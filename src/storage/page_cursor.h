#ifndef FACTORML_STORAGE_PAGE_CURSOR_H_
#define FACTORML_STORAGE_PAGE_CURSOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace factorml::storage {

/// Asynchronous residency-only page loader — the background half of the
/// unified I/O cursor plane. Requests are page ranges of one file; each is
/// executed on the exec::ThreadPool's dedicated I/O crew, reading each run
/// of consecutive absent pages with one PagedFile::ReadPages into private
/// buffers *outside* the pool latch and handing them to
/// BufferPool::InsertPrefetched. Prefetch therefore changes page residency
/// and nothing else: it never evicts, never returns data to the caller,
/// and never touches an accumulator — the determinism contract of the
/// chunk-ordered scheduler extends to any prefetch schedule by
/// construction.
///
/// Accounting: physical reads performed by the crew are folded into the
/// *draining* thread's GlobalIo() (pages_read and prefetch_reads) at
/// Drain(), so a training run's ReportScope delta sees them; the crew
/// threads' own thread-local counters are never merged. Requests beyond
/// `max_inflight` are dropped (prefetch is best-effort), as are pages that
/// are already resident or that find the pool full.
class Prefetcher {
 public:
  explicit Prefetcher(int max_inflight = 16);

  /// Drains outstanding requests (folding counters into the destroying
  /// thread) so no crew task outlives the pools/files it references.
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Asynchronously lands pages [first_page, end_page) of `file` in
  /// `pool`. Best-effort and non-blocking: at the in-flight cap the
  /// request is dropped, resident pages are skipped, read errors are
  /// swallowed (the demand path will surface them).
  void PrefetchPages(BufferPool* pool, PagedFile* file, uint64_t first_page,
                     uint64_t end_page);

  /// Blocks until every issued request has completed, then folds the
  /// crew's physical read counts into the calling thread's GlobalIo().
  /// Must be called on the thread whose ReportScope should observe the
  /// prefetch I/O (the pass dispatcher), and before any pool/file a
  /// request references is destroyed.
  void Drain();

  /// Physical pages read by completed requests so far (monotonic).
  uint64_t pages_fetched() const;
  /// Requests dropped at the in-flight cap (monotonic).
  uint64_t requests_dropped() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;  // signaled when inflight_ hits zero
  const int max_inflight_;
  int inflight_ = 0;
  uint64_t fetched_total_ = 0;    // physical reads, all completed requests
  uint64_t fetched_unfolded_ = 0; // not yet folded into a GlobalIo()
  uint64_t dropped_ = 0;
};

/// The unified I/O cursor plane: owns "give me the pages (and decoded
/// rows) for row range [a, b)" of one table through one buffer pool. Both
/// access paths sit on top of it — TableScanner (base-table scans of S or
/// the materialized T) and JoinCursor (FK1-run probes of S) are thin
/// batching/row-decoding shims that delegate every page touch here.
///
/// The demand path (ReadRows) resolves the pages of a read in runs of up
/// to kMaxRunPages through BufferPool::GetPages — one system call per run
/// of misses — with the page sequence, pool counters and LRU order of a
/// page-by-page walk. The prefetch path (PrefetchRows)
/// is the asynchronous double-buffer: the shims call it with the rows of
/// the *next* batch / next scheduled morsel while compute runs on the
/// current one.
class PageCursor {
 public:
  PageCursor(const Table* table, BufferPool* pool)
      : table_(table), pool_(pool) {}

  /// Binds the async plane; null disables prefetch (the default). A
  /// cursor that demand-reads a pool the prefetcher lands pages in must
  /// carry it: the walk then resolves runs of one page, the one frame
  /// InsertPrefetched never evicts.
  void SetPrefetcher(Prefetcher* prefetcher) { prefetcher_ = prefetcher; }
  Prefetcher* prefetcher() const { return prefetcher_; }

  const Table* table() const { return table_; }
  BufferPool* pool() const { return pool_; }

  /// Reads `count` rows starting at `start_row` into `out` through the
  /// pool — the demand path every Table/Join read funnels through.
  Status ReadRows(int64_t start_row, size_t count, RowBatch* out) const;

  /// Batched decode: reads `count` rows starting at `start_row` into rows
  /// [dst_row, dst_row + count) of `out`, which the caller has shaped
  /// (ColumnStrips::Shape) with the table's columns and keys — so several
  /// row ranges can land in one block. The page walk is ReadRows' (same
  /// GetPage sequence, same demand I/O accounting); only the in-memory
  /// decode target differs — features are transposed into the
  /// cache-blocked strip layout the la/ batch kernels consume, keys stay
  /// row-major. Each call is one "decode_strip" trace span and one
  /// storage.decode_strip_micros histogram sample.
  Status ReadStrips(int64_t start_row, size_t count, size_t dst_row,
                    ColumnStrips* out) const;

  /// Asynchronously lands the data pages covering rows
  /// [start_row, start_row + count) in the pool. Residency-only; no-op
  /// without a prefetcher or for an empty/clamped-away range.
  void PrefetchRows(int64_t start_row, int64_t count) const;

 private:
  /// The one page walk of the demand path (ReadRows and ReadStrips):
  /// fetches, in order and in runs (BufferPool::GetPages), each page the
  /// rows [start_row, start_row + count) touch and hands
  /// `run(filled, src, take)` the page's `take` packed rows starting at
  /// `src`, rows [filled, filled + take) of the read. A page whose row
  /// count cannot hold the rows wanted from it is a "corrupt page" error
  /// naming the file and page. The range must already be checked.
  template <typename Run>
  Status WalkPages(int64_t start_row, size_t count, const Run& run) const;

  const Table* table_;
  BufferPool* pool_;
  Prefetcher* prefetcher_ = nullptr;
};

}  // namespace factorml::storage

#endif  // FACTORML_STORAGE_PAGE_CURSOR_H_
