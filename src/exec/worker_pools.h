#ifndef FACTORML_EXEC_WORKER_POOLS_H_
#define FACTORML_EXEC_WORKER_POOLS_H_

#include <memory>
#include <vector>

#include "storage/buffer_pool.h"

namespace factorml::exec {

/// Per-worker buffer pools for parallel scans: worker 0 keeps the caller's
/// (shared) pool — so a single-worker region is exactly the serial path —
/// and workers 1..n-1 get private pools of the same capacity. A private
/// pool is touched by one worker at a time, so frame pointers returned by
/// GetPages keep their single-threaded validity guarantee, and misses never
/// serialize on the shared pool's latch. Page reads issued by different
/// pools against the same PagedFile are safe and take no lock (each run
/// is one positioned `preadv`, which shares no file offset).
///
/// The private pools live for one parallel phase; their frames are dropped
/// on destruction, which mirrors how the paper's per-pass scans re-read
/// everything that exceeds pool capacity anyway.
class WorkerPools {
 public:
  WorkerPools(storage::BufferPool* shared, int workers) : shared_(shared) {
    for (int w = 1; w < workers; ++w) {
      extras_.push_back(
          std::make_unique<storage::BufferPool>(shared->capacity_pages()));
    }
  }

  storage::BufferPool* Get(int worker) {
    return worker == 0 ? shared_
                       : extras_[static_cast<size_t>(worker - 1)].get();
  }

 private:
  storage::BufferPool* shared_;
  std::vector<std::unique_ptr<storage::BufferPool>> extras_;
};

}  // namespace factorml::exec

#endif  // FACTORML_EXEC_WORKER_POOLS_H_
