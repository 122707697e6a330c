#ifndef FACTORML_STORAGE_BUFFER_POOL_H_
#define FACTORML_STORAGE_BUFFER_POOL_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/paged_file.h"

namespace factorml::storage {

/// LRU page cache shared by all scans. A repeated pass over a relation that
/// fits in the pool costs no physical reads — which is exactly the regime
/// where the paper's attribute tables (nR pages) live, while the wide fact
/// and materialized tables do not fit and are re-read every pass.
class BufferPool {
 public:
  /// `capacity_pages` frames of kPageSize bytes each.
  explicit BufferPool(size_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Resolves pages [first, first + n) of `file` into `out[0..n)`, making
  /// exactly the LRU moves and counter updates of `n` successive
  /// single-page lookups: a hit moves its frame to the front, a miss
  /// evicts the LRU back. Each run of consecutive misses is read with one
  /// PagedFile::ReadPages. `n` is at most max_run_pages(), so a run never
  /// evicts its own frames. A returned pointer stays valid until its frame
  /// is evicted, i.e. until at least `capacity_pages - n` further distinct
  /// pages are touched; callers must copy out what they need before
  /// issuing unbounded further reads.
  ///
  /// Concurrency: the map and LRU list are latched (across the misses'
  /// reads too, so two threads never read one page twice), so GetPages
  /// may be called from multiple threads. The eviction contract above
  /// then spans all callers together — concurrent scanners must either
  /// share a pool sized for their combined working set or use per-worker
  /// pools (exec::WorkerPools), which is what the parallel trainers do.
  Status GetPages(PagedFile* file, uint64_t first, size_t n,
                  const char** out);

  /// The run of one.
  Result<const char*> GetPage(PagedFile* file, uint64_t page_no) {
    const char* page = nullptr;
    FML_RETURN_IF_ERROR(GetPages(file, page_no, 1, &page));
    return page;
  }

  /// Longest run GetPages accepts: max(1, capacity / 2).
  size_t max_run_pages() const { return std::max<size_t>(1, capacity_ / 2); }

  /// True when (file, page_no) is currently cached. Does not touch the LRU
  /// order or any counter — the prefetcher's cheap pre-check before paying
  /// a physical read.
  bool Contains(PagedFile* file, uint64_t page_no) const;

  /// Hands the pool a page the prefetcher read outside the latch.
  /// Residency-only: the frame is inserted when the page is absent,
  /// evicting from the LRU back if the pool is full — but NEVER the
  /// most-recently-demanded frame, which is the one pointer a cursor-plane
  /// reader holds while decoding (a pool under active prefetch must have a
  /// single demand reader resolving runs of one page, which is how the
  /// strategies' per-worker pools are used; see GetPages' contract note). Returns false (dropping
  /// `data`) when the page was already present or no evictable frame
  /// exists (e.g. capacity 1 holding the reader's current page). The
  /// inserted frame is marked; the first demand lookup that finds it
  /// counts a prefetch_hit. No counter is charged here — the prefetcher
  /// accounts for its own physical reads, and demand-path eviction
  /// decisions/counts with prefetch off are untouched.
  bool InsertPrefetched(PagedFile* file, uint64_t page_no,
                        std::unique_ptr<char[]> data);

  /// Drops every cached frame (e.g. between timed runs).
  void Clear();

  size_t capacity_pages() const { return capacity_; }
  size_t cached_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  struct Key {
    uint64_t file_id;
    uint64_t page_no;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && page_no == o.page_no;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.file_id * 0x9e3779b97f4a7c15ULL ^
                                   k.page_no);
    }
  };
  struct Frame {
    Key key;
    std::unique_ptr<char[]> data;
    /// Landed by the prefetcher and not yet demanded (see InsertPrefetched).
    bool prefetched = false;
  };

  size_t capacity_;
  mutable std::mutex mu_;  // latches lru_, map_ and last_demand_
  std::list<Frame> lru_;   // front = most recently used
  std::unordered_map<Key, std::list<Frame>::iterator, KeyHash> map_;
  /// Frame returned last by the most recent GetPages — the one pointer a
  /// cursor-plane reader may still be decoding from, hence the one frame
  /// InsertPrefetched must never evict. lru_.end() = none.
  std::list<Frame>::iterator last_demand_ = lru_.end();
};

}  // namespace factorml::storage

#endif  // FACTORML_STORAGE_BUFFER_POOL_H_
