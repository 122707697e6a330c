#ifndef FACTORML_EXEC_MORSEL_QUEUE_H_
#define FACTORML_EXEC_MORSEL_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "exec/parallel_for.h"

namespace factorml::exec {

/// Work-stealing scheduler over a fixed, deterministically numbered chunk
/// list (SplitRowChunks / SplitWeightedChunks). Each worker owns a
/// contiguous block of chunk ids — the same near-even split PartitionRows
/// produces — and pops it front-to-back, i.e. in ascending chunk id, the
/// sequential scan order. When stealing is enabled and a worker's block
/// runs dry, it robs single chunks from the *back* of another worker's
/// block, scanning victims round-robin from its right neighbor. A block is
/// one 64-bit word packing (next, end), updated by compare-and-swap, so
/// owner pops and thief pops are lock-free and every chunk id is handed
/// out exactly once.
///
/// Determinism contract: the queue decides only *who* executes a chunk,
/// never *what* is computed. Callers give every chunk its own accumulator
/// slot (indexed by chunk id) and reduce the slots in chunk order after
/// the region completes, so results are bit-identical for any steal
/// schedule, any worker count, and the serial run.
class MorselQueue {
 public:
  /// `num_chunks` chunk ids [0, num_chunks) statically pre-assigned to
  /// `num_workers` contiguous blocks; `steal` permits cross-block pops.
  MorselQueue(int64_t num_chunks, int num_workers, bool steal);

  /// Explicit pre-assignment: worker w owns the chunk ids of `blocks[w]`
  /// (possibly empty). The shard plane uses this to hand each worker its
  /// global ownership block clamped to one shard's chunk span, so a
  /// chunk's owner never depends on the shard count.
  MorselQueue(const std::vector<Range>& blocks, bool steal);

  /// Next chunk id for `worker`, or -1 when no work remains (for this
  /// worker when stealing is off; globally when it is on).
  int64_t Next(int worker);

  /// Chunks executed by a worker other than their static owner.
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  MorselQueue(const MorselQueue&) = delete;
  MorselQueue& operator=(const MorselQueue&) = delete;

 private:
  /// One worker's remaining block of chunk ids, packed (next << 32 | end)
  /// so the owner's front pop and a thief's back pop contend on a single
  /// CAS word. Padded to its own cache line.
  struct alignas(64) Block {
    std::atomic<uint64_t> span{0};
  };
  static uint64_t Pack(uint32_t next, uint32_t end) {
    return (static_cast<uint64_t>(next) << 32) | end;
  }
  static uint32_t SpanNext(uint64_t s) { return static_cast<uint32_t>(s >> 32); }
  static uint32_t SpanEnd(uint64_t s) { return static_cast<uint32_t>(s); }

  int num_workers_;
  bool steal_;
  std::vector<Block> blocks_;
  std::atomic<uint64_t> steals_{0};
};

/// What one scheduled parallel region observed: steal traffic and how long
/// each worker actually spent executing chunks (the balance evidence the
/// skew bench reports; wall-clock speedup needs multi-core hardware, busy
/// spread is the single-core proxy).
struct MorselStats {
  uint64_t steals = 0;
  std::vector<double> busy_seconds;  // one entry per worker
};

/// Runs body(chunks[c], c, worker) exactly once per chunk on `threads`
/// workers (worker 0 is the calling thread), stealing between workers when
/// `steal` is set. threads <= 1 — or a call from inside a pool worker —
/// drains the chunks in ascending id order on the calling thread, which is
/// the schedule every parallel reduction is defined to reproduce. Blocks
/// until all chunks complete; per-worker op/I/O counters merge into the
/// caller in worker order (ThreadPool::Run).
MorselStats RunMorsels(const std::vector<Range>& chunks, int threads,
                       bool steal,
                       const std::function<void(Range, int64_t, int)>& body);

/// Span-restricted variant for the shard plane: runs body exactly once for
/// every chunk id in [span.begin, span.end), with ownership blocks taken
/// from the GLOBAL split PartitionRows(chunks.size(), threads) and clamped
/// to the span. This is the shard plane's time-sharing rule:
/// a chunk keeps the owner (and therefore the worker buffer pool) it has
/// in the unsharded run, so each worker visits its chunks in the same
/// ascending order whether the pass runs as one region or as a sequence
/// of shard spans — which is what makes total page I/O an invariant of
/// the shard count. Stealing stays confined to the span (shards are
/// sequential; there is never cross-shard work to steal). Chunk ids passed
/// to body are global. Serial/nested calls drain the span in ascending id
/// order inline, as in RunMorsels.
MorselStats RunMorselSpan(const std::vector<Range>& chunks, Range span,
                          int threads, bool steal,
                          const std::function<void(Range, int64_t, int)>& body);

}  // namespace factorml::exec

#endif  // FACTORML_EXEC_MORSEL_QUEUE_H_
