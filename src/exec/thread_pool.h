#ifndef FACTORML_EXEC_THREAD_POOL_H_
#define FACTORML_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace factorml::exec {

/// Process-wide pool of persistent worker threads behind the morsel-driven
/// ParallelFor (parallel_for.h) and RunMorsels (morsel_queue.h) API.
/// Threads are spawned lazily on first use and kept for the process
/// lifetime, so repeated parallel regions (one per EM pass / mini-batch)
/// pay no thread start-up cost.
class ThreadPool {
 public:
  static ThreadPool& Instance();

  /// Runs fn(worker) for every worker in [0, num_workers). Worker 0
  /// executes on the calling thread; workers 1..n-1 on pool threads.
  /// Blocks until every worker returns. After completion the op / I/O
  /// counters accumulated by each pool thread are merged into the calling
  /// thread's thread-local counters in worker order, so snapshot deltas
  /// taken on the calling thread (core::ReportScope) cover the whole
  /// region deterministically.
  ///
  /// num_workers <= 1 — or a call from inside a pool worker (regions do
  /// not nest) — executes fn(0..n-1) inline on the calling thread, which
  /// is bit-for-bit the serial path.
  void Run(int num_workers, const std::function<void(int)>& fn);

  /// Enqueues a detached task on the pool's background I/O crew — a small
  /// set of dedicated threads separate from the compute workers, so
  /// asynchronous page prefetch (storage::Prefetcher) keeps making
  /// progress while every compute worker is busy inside Run. Tasks may be
  /// submitted from any thread, including pool workers mid-region; they
  /// run in submission order per crew thread with no completion
  /// handshake — callers that need one build it themselves (the
  /// Prefetcher's in-flight count + Drain).
  ///
  /// Crew threads never merge their op/I/O counters anywhere; tasks that
  /// must be accounted for fold their own deltas back explicitly.
  void SubmitIo(std::function<void()> task);

  /// Crew size of SubmitIo (fixed, spawned lazily on first submission).
  static constexpr int kIoCrewThreads = 2;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() = default;
  ~ThreadPool();

  void EnsureThreads(int count);
  void WorkerLoop();
  void IoCrewLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;

  std::mutex io_mu_;
  std::condition_variable io_cv_;
  std::deque<std::function<void()>> io_queue_;
  std::vector<std::thread> io_threads_;
  bool io_stop_ = false;
};

/// Worker count a parallel region should use: `requested` when >= 1,
/// otherwise the process-wide default. Always >= 1.
int EffectiveThreads(int requested);

/// True while the calling thread is a pool worker inside Run (parallel
/// regions do not nest — Run from a worker executes inline). Schedulers
/// layered on the pool (exec::RunMorsels) use this to take their serial
/// drain path directly instead of building a queue Run would ignore.
bool InParallelRegion();

/// Process-wide default worker count, initially 1 so library behavior is
/// unchanged unless a caller opts in (the --threads flag of the CLI and
/// bench binaries lands here). Values < 1 are clamped to 1.
void SetDefaultThreads(int threads);
int DefaultThreads();

}  // namespace factorml::exec

#endif  // FACTORML_EXEC_THREAD_POOL_H_
