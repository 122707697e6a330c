#include "storage/page_cursor.h"

#include <algorithm>
#include <cstring>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_stats.h"

namespace factorml::storage {

namespace {

// Data page layout (shared with Table's write side): uint64 row count,
// then packed fixed-width rows.
uint64_t PageRowCount(const char* page) {
  uint64_t n;
  std::memcpy(&n, page, sizeof(n));
  return n;
}

}  // namespace

// ------------------------------------------------------------- Prefetcher

Prefetcher::Prefetcher(int max_inflight)
    : max_inflight_(max_inflight < 1 ? 1 : max_inflight) {}

Prefetcher::~Prefetcher() { Drain(); }

void Prefetcher::PrefetchPages(BufferPool* pool, PagedFile* file,
                               uint64_t first_page, uint64_t end_page) {
  if (first_page >= end_page) return;
  static obs::Counter* requests =
      obs::Registry::Instance().GetCounter("storage.prefetch_requests");
  static obs::Counter* dropped_ctr =
      obs::Registry::Instance().GetCounter("storage.prefetch_dropped");
  requests->Add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_ >= max_inflight_) {
      ++dropped_;
      dropped_ctr->Add();
      return;
    }
    ++inflight_;
  }
  obs::TraceInstant(obs::kCatStorage, "prefetch_issue", "page",
                    static_cast<int64_t>(first_page));
  exec::ThreadPool::Instance().SubmitIo([this, pool, file, first_page,
                                         end_page] {
    obs::TraceSpan land_span(obs::kCatStorage, "prefetch_land");
    // Each run of consecutive absent pages is one ReadPages into private
    // buffers the read overwrites whole. ReadPages charges the crew
    // thread's thread-local counters, which are never merged; the folded
    // accounting below is authoritative.
    uint64_t fetched = 0;
    std::unique_ptr<char[]> bufs[kMaxRunPages];
    char* ptrs[kMaxRunPages];
    for (uint64_t page = first_page; page < end_page;) {
      if (pool->Contains(file, page)) {
        ++page;
        continue;
      }
      size_t n = 0;
      while (n < kMaxRunPages && page + n < end_page &&
             (n == 0 || !pool->Contains(file, page + n))) {
        bufs[n] = std::make_unique_for_overwrite<char[]>(kPageSize);
        ptrs[n] = bufs[n].get();
        ++n;
      }
      if (!file->ReadPages(page, n, ptrs).ok()) break;
      fetched += n;
      for (size_t i = 0; i < n; ++i) {
        pool->InsertPrefetched(file, page + i, std::move(bufs[i]));
      }
      page += n;
    }
    land_span.Arg("pages", static_cast<int64_t>(fetched));
    std::lock_guard<std::mutex> lock(mu_);
    fetched_total_ += fetched;
    fetched_unfolded_ += fetched;
    if (--inflight_ == 0) cv_.notify_all();
  });
}

void Prefetcher::Drain() {
  static obs::Histogram* drain_micros =
      obs::Registry::Instance().GetHistogram("storage.prefetch_drain_micros");
  obs::TraceSpan drain_span(obs::kCatStorage, "prefetch_drain");
  const uint64_t t0 = obs::NowMicros();
  uint64_t fold = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return inflight_ == 0; });
    fold = fetched_unfolded_;
    fetched_unfolded_ = 0;
  }
  drain_micros->Record(obs::NowMicros() - t0);
  drain_span.Arg("pages", static_cast<int64_t>(fold));
  GlobalIo().pages_read += fold;
  GlobalIo().prefetch_reads += fold;
}

uint64_t Prefetcher::pages_fetched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fetched_total_;
}

uint64_t Prefetcher::requests_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

// ------------------------------------------------------------- PageCursor

template <typename Run>
Status PageCursor::WalkPages(int64_t start_row, size_t count,
                             const Run& run) const {
  if (count == 0) return Status::OK();
  const size_t rpp = table_->schema().RowsPerPage();
  const size_t row_bytes = table_->schema().RowBytes();
  const uint64_t first_page = 1 + static_cast<uint64_t>(start_row) / rpp;
  const uint64_t end_page =
      2 + static_cast<uint64_t>(start_row + static_cast<int64_t>(count) - 1) /
              rpp;
  // Runs of one while a prefetcher lands pages in this pool:
  // InsertPrefetched protects only the last demanded frame.
  const uint64_t max_run =
      prefetcher_ != nullptr
          ? 1
          : std::min<uint64_t>(kMaxRunPages, pool_->max_run_pages());
  const char* pages[kMaxRunPages];
  size_t filled = 0;
  for (uint64_t page_no = first_page; page_no < end_page;) {
    const uint64_t n = std::min(max_run, end_page - page_no);
    FML_RETURN_IF_ERROR(pool_->GetPages(table_->file(), page_no, n, pages));
    for (uint64_t i = 0; i < n; ++i, ++page_no) {
      const size_t offset_in_page =
          filled == 0 ? static_cast<size_t>(start_row) % rpp : 0;
      const size_t take = std::min(count - filled, rpp - offset_in_page);
      // Every page but the table's last is full; a row count that cannot
      // hold the rows wanted here (or exceeds the page) is corrupt.
      const uint64_t rows_in_page = PageRowCount(pages[i]);
      if (rows_in_page > rpp || rows_in_page < offset_in_page + take) {
        return Status::Internal(
            "corrupt page " + std::to_string(page_no) + " in " +
            table_->path() + ": holds " + std::to_string(rows_in_page) +
            " rows, rows [" + std::to_string(offset_in_page) + ", " +
            std::to_string(offset_in_page + take) + ") wanted");
      }
      run(filled, pages[i] + 8 + offset_in_page * row_bytes, take);
      filled += take;
    }
  }
  return Status::OK();
}

Status PageCursor::ReadRows(int64_t start_row, size_t count,
                            RowBatch* out) const {
  FML_RETURN_IF_ERROR(table_->CheckRowRange(start_row, count));
  const Schema& schema = table_->schema();
  const size_t row_bytes = schema.RowBytes();

  out->num_rows = count;
  out->num_keys = schema.num_keys;
  out->start_row = start_row;
  out->keys.resize(count * schema.num_keys);
  if (out->feats.rows() != count || out->feats.cols() != schema.num_feats) {
    out->feats.Resize(count, schema.num_feats);
  }
  return WalkPages(start_row, count,
                   [&](size_t filled, const char* src, size_t take) {
                     for (size_t r = 0; r < take; ++r) {
                       std::memcpy(
                           out->keys.data() + (filled + r) * schema.num_keys,
                           src, 8 * schema.num_keys);
                       std::memcpy(out->feats.Row(filled + r).data(),
                                   src + 8 * schema.num_keys,
                                   8 * schema.num_feats);
                       src += row_bytes;
                     }
                   });
}

Status PageCursor::ReadStrips(int64_t start_row, size_t count,
                              size_t dst_row, ColumnStrips* out) const {
  FML_RETURN_IF_ERROR(table_->CheckRowRange(start_row, count));
  const Schema& schema = table_->schema();
  const size_t row_bytes = schema.RowBytes();
  const size_t d = schema.num_feats;
  const size_t strip_rows = out->strip_rows;
  FML_CHECK_EQ(out->num_cols, d);
  FML_CHECK_EQ(out->num_keys, schema.num_keys);
  FML_CHECK_LE(dst_row + count, out->num_rows);
  static obs::Histogram* decode_micros =
      obs::Registry::Instance().GetHistogram("storage.decode_strip_micros");
  obs::TraceSpan span(obs::kCatStorage, "decode_strip");
  const uint64_t t0 = obs::NowMicros();

  const Status st = WalkPages(
      start_row, count, [&](size_t filled, const char* src, size_t take) {
        // Column by column over each run of the page's rows that stays
        // inside one strip, so every strip column is written as one
        // contiguous run (a row-at-a-time scatter lands all d columns in
        // the same cache sets).
        for (size_t done = 0; done < take;) {
          const size_t idx = dst_row + filled + done;  // block row index
          const size_t h = idx % strip_rows;
          const size_t n = std::min(take - done, strip_rows - h);
          const char* run = src + done * row_bytes;
          for (size_t r = 0; r < n; ++r) {
            std::memcpy(out->keys.data() + (idx + r) * schema.num_keys,
                        run + r * row_bytes, 8 * schema.num_keys);
          }
          double* strip0 =
              out->data.data() + (idx / strip_rows) * d * strip_rows + h;
          for (size_t c = 0; c < d; ++c) {
            double* dst = strip0 + c * strip_rows;
            const char* col = run + 8 * (schema.num_keys + c);
            for (size_t r = 0; r < n; ++r) {
              std::memcpy(dst + r, col + r * row_bytes, 8);
            }
          }
          done += n;
        }
      });
  FML_RETURN_IF_ERROR(st);
  decode_micros->Record(obs::NowMicros() - t0);
  span.Arg("rows", static_cast<int64_t>(count));
  return Status::OK();
}

void PageCursor::PrefetchRows(int64_t start_row, int64_t count) const {
  if (prefetcher_ == nullptr) return;
  const int64_t num_rows = table_->num_rows();
  if (start_row < 0) {
    count += start_row;
    start_row = 0;
  }
  count = std::min(count, num_rows - start_row);
  if (count <= 0) return;
  const auto rpp = static_cast<int64_t>(table_->schema().RowsPerPage());
  const auto first_page = static_cast<uint64_t>(1 + start_row / rpp);
  const auto last_page =
      static_cast<uint64_t>(1 + (start_row + count - 1) / rpp);
  prefetcher_->PrefetchPages(pool_, table_->file(), first_page,
                             last_page + 1);
}

}  // namespace factorml::storage
