#include "storage/table.h"

#include <algorithm>
#include <cstring>

#include "storage/page_cursor.h"

namespace factorml::storage {

void ColumnStrips::Shape(size_t height, size_t rows, size_t cols,
                         size_t nkeys, int64_t start) {
  FML_CHECK_GT(height, 0u);
  strip_rows = height;
  num_strips = (rows + height - 1) / height;
  num_rows = rows;
  num_cols = cols;
  num_keys = nkeys;
  start_row = start;
  keys.resize(rows * nkeys);
  data.resize(num_strips * cols * height);
}

namespace {

constexpr uint64_t kMagic = 0x464d4c5442763031ULL;  // "FMLTBv01"

struct FileHeader {
  uint64_t magic;
  uint64_t num_keys;
  uint64_t num_feats;
  int64_t num_rows;
};

/// The row-size contract Create and Open share: a row holds at least one
/// column and fits a data page after the page's 8-byte row count, so
/// Schema::RowsPerPage() >= 1 and the row-to-page arithmetic never
/// divides by zero. Column counts are bounded first so a hostile header
/// cannot overflow RowBytes().
Status CheckRowSize(uint64_t num_keys, uint64_t num_feats,
                    const std::string& path) {
  constexpr uint64_t kMaxCols = (kPageSize - 8) / 8;
  if (num_keys > kMaxCols || num_feats > kMaxCols ||
      num_keys + num_feats == 0 || num_keys + num_feats > kMaxCols) {
    return Status::InvalidArgument(
        "row of " + std::to_string(num_keys) + " key + " +
        std::to_string(num_feats) + " feature columns does not fit a " +
        std::to_string(kPageSize) + "-byte page (1.." +
        std::to_string(kMaxCols) + " columns): " + path);
  }
  return Status::OK();
}

}  // namespace

Table::Table(std::unique_ptr<PagedFile> file, Schema schema, int64_t num_rows,
             bool writable)
    : file_(std::move(file)),
      schema_(schema),
      num_rows_(num_rows),
      writable_(writable) {
  if (writable_) stage_ = std::make_unique<char[]>(kMaxRunPages * kPageSize);
}

Result<Table> Table::Create(const std::string& path, const Schema& schema) {
  FML_RETURN_IF_ERROR(CheckRowSize(schema.num_keys, schema.num_feats, path));
  FML_ASSIGN_OR_RETURN(auto file, PagedFile::Create(path));
  // Reserve the header page; contents are finalized in Finish().
  std::vector<char> header(kPageSize, 0);
  FML_ASSIGN_OR_RETURN(uint64_t page_no, file->AppendPage(header.data()));
  (void)page_no;
  return Table(std::move(file), schema, 0, /*writable=*/true);
}

Result<Table> Table::Open(const std::string& path) {
  FML_ASSIGN_OR_RETURN(auto file, PagedFile::Open(path));
  std::vector<char> header(kPageSize);
  FML_RETURN_IF_ERROR(file->ReadPage(0, header.data()));
  FileHeader h;
  std::memcpy(&h, header.data(), sizeof(h));
  if (h.magic != kMagic) {
    return Status::InvalidArgument("not a factorml table: " + path);
  }
  FML_RETURN_IF_ERROR(CheckRowSize(h.num_keys, h.num_feats, path));
  Schema schema{static_cast<size_t>(h.num_keys),
                static_cast<size_t>(h.num_feats)};
  const auto rpp = static_cast<uint64_t>(schema.RowsPerPage());
  const uint64_t data_pages = file->num_pages() - 1;
  if (h.num_rows < 0 ||
      (static_cast<uint64_t>(h.num_rows) + rpp - 1) / rpp > data_pages) {
    return Status::InvalidArgument(
        "header declares " + std::to_string(h.num_rows) + " rows, but " +
        std::to_string(data_pages) + " data page(s) hold at most " +
        std::to_string(data_pages * rpp) + ": " + path);
  }
  Table t(std::move(file), schema, h.num_rows, /*writable=*/false);
  t.finished_ = true;
  return t;
}

uint64_t Table::num_data_pages() const {
  const uint64_t total = file_->num_pages();
  return total > 0 ? total - 1 : 0;
}

Status Table::Append(const int64_t* keys, const double* feats) {
  if (!writable_ || finished_) {
    return Status::FailedPrecondition("table not writable: " + path());
  }
  const size_t row_bytes = schema_.RowBytes();
  char* page = stage_.get() + staged_pages_ * kPageSize;
  char* dst = page + 8 + tail_rows_ * row_bytes;
  std::memcpy(dst, keys, 8 * schema_.num_keys);
  std::memcpy(dst + 8 * schema_.num_keys, feats, 8 * schema_.num_feats);
  ++tail_rows_;
  ++num_rows_;
  if (tail_rows_ == schema_.RowsPerPage()) {
    const uint64_t n = tail_rows_;
    std::memcpy(page, &n, sizeof(n));
    tail_rows_ = 0;
    if (++staged_pages_ == kMaxRunPages) FML_RETURN_IF_ERROR(FlushStage());
  }
  return Status::OK();
}

Status Table::FlushStage() {
  FML_RETURN_IF_ERROR(
      file_->AppendPages(stage_.get(), staged_pages_).status());
  staged_pages_ = 0;
  return Status::OK();
}

Status Table::Finish() {
  if (finished_) return Status::OK();
  if (!writable_) {
    return Status::FailedPrecondition("table not writable: " + path());
  }
  if (tail_rows_ > 0) {
    // Seal the tail page; its unused row slots may hold rows of an
    // earlier flush, so zero them as a fresh page would have them.
    char* page = stage_.get() + staged_pages_ * kPageSize;
    const uint64_t n = tail_rows_;
    std::memcpy(page, &n, sizeof(n));
    const size_t used = 8 + tail_rows_ * schema_.RowBytes();
    std::memset(page + used, 0, kPageSize - used);
    tail_rows_ = 0;
    ++staged_pages_;
  }
  if (staged_pages_ > 0) FML_RETURN_IF_ERROR(FlushStage());
  stage_.reset();
  std::vector<char> header(kPageSize, 0);
  FileHeader h{kMagic, schema_.num_keys, schema_.num_feats, num_rows_};
  std::memcpy(header.data(), &h, sizeof(h));
  FML_RETURN_IF_ERROR(file_->WritePage(0, header.data()));
  finished_ = true;
  return Status::OK();
}

Status Table::CheckRowRange(int64_t start_row, size_t count) const {
  if (start_row < 0 || start_row + static_cast<int64_t>(count) > num_rows_) {
    return Status::OutOfRange("row range out of bounds in " + path());
  }
  return Status::OK();
}

Status Table::ReadRows(BufferPool* pool, int64_t start_row, size_t count,
                       RowBatch* out) const {
  return PageCursor(this, pool).ReadRows(start_row, count, out);
}

Status Table::ReadStrips(BufferPool* pool, int64_t start_row, size_t count,
                         size_t strip_rows, ColumnStrips* out) const {
  FML_RETURN_IF_ERROR(CheckRowRange(start_row, count));
  out->Shape(strip_rows, count, schema_.num_feats, schema_.num_keys,
             start_row);
  return PageCursor(this, pool).ReadStrips(start_row, count, 0, out);
}

TableScanner::TableScanner(const Table* table, BufferPool* pool,
                           size_t batch_rows)
    : table_(table), pool_(pool), batch_rows_(batch_rows) {
  FML_CHECK_GT(batch_rows_, 0u);
}

void TableScanner::EnablePrefetch(Prefetcher* prefetcher,
                                  int64_t depth_batches) {
  prefetcher_ = prefetcher;
  prefetch_batches_ = depth_batches < 1 ? 1 : depth_batches;
  prefetch_water_ = next_row_;
}

void TableScanner::PrefetchRowRange(int64_t begin, int64_t end) {
  if (prefetcher_ == nullptr) return;
  const int64_t cap =
      prefetch_batches_ * static_cast<int64_t>(batch_rows_);
  PageCursor cursor(table_, pool_);
  cursor.SetPrefetcher(prefetcher_);
  cursor.PrefetchRows(begin, std::min(end - begin, cap));
}

bool TableScanner::PrepareBatch(PageCursor* cursor, size_t* count) {
  if (!status_.ok()) return false;
  const int64_t end = end_row_ < 0 ? table_->num_rows() : end_row_;
  if (next_row_ >= end) return false;
  *count = static_cast<size_t>(
      std::min<int64_t>(batch_rows_, end - next_row_));
  if (prefetcher_ != nullptr) {
    // Double-buffer: land the following `prefetch_batches_` batches while
    // the caller computes on this one. The high-water mark keeps each row
    // from being requested twice within a range.
    cursor->SetPrefetcher(prefetcher_);
    const int64_t batch_end = next_row_ + static_cast<int64_t>(*count);
    const int64_t window_end = std::min(
        end, batch_end + prefetch_batches_ * static_cast<int64_t>(batch_rows_));
    const int64_t from = std::max(prefetch_water_, batch_end);
    if (window_end > from) {
      cursor->PrefetchRows(from, window_end - from);
      prefetch_water_ = window_end;
    }
  }
  return true;
}

bool TableScanner::Next(RowBatch* out) {
  size_t count = 0;
  PageCursor cursor(table_, pool_);
  if (!PrepareBatch(&cursor, &count)) return false;
  status_ = cursor.ReadRows(next_row_, count, out);
  if (!status_.ok()) return false;
  next_row_ += static_cast<int64_t>(count);
  return true;
}

bool TableScanner::NextStrips(size_t strip_rows, ColumnStrips* out) {
  size_t count = 0;
  PageCursor cursor(table_, pool_);
  if (!PrepareBatch(&cursor, &count)) return false;
  const Schema& schema = table_->schema();
  out->Shape(strip_rows, count, schema.num_feats, schema.num_keys, next_row_);
  status_ = cursor.ReadStrips(next_row_, count, 0, out);
  if (!status_.ok()) return false;
  next_row_ += static_cast<int64_t>(count);
  return true;
}

void TableScanner::SetRowRange(int64_t begin, int64_t end) {
  FML_CHECK_GE(begin, 0);
  FML_CHECK_LE(end, table_->num_rows());
  FML_CHECK_LE(begin, end);
  begin_row_ = begin;
  end_row_ = end;
  next_row_ = begin;
  prefetch_water_ = begin;
}

void TableScanner::Reset() {
  next_row_ = begin_row_;
  prefetch_water_ = begin_row_;
  status_ = Status::OK();
}

}  // namespace factorml::storage
