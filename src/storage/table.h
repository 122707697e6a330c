#ifndef FACTORML_STORAGE_TABLE_H_
#define FACTORML_STORAGE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"

namespace factorml::storage {

/// Fixed-width row layout: `num_keys` int64 columns (ids / foreign keys)
/// followed by `num_feats` double feature columns. All relations in the
/// paper's setting (S, R1..Rq, and the materialized join T) fit this shape;
/// the learning target Y, when present, is feature column 0 of S and T by
/// the convention established in core/dataset.h.
struct Schema {
  size_t num_keys = 0;
  size_t num_feats = 0;

  size_t RowBytes() const { return 8 * (num_keys + num_feats); }
  /// Rows that fit one data page after the 8-byte page header.
  size_t RowsPerPage() const { return (kPageSize - 8) / RowBytes(); }

  bool operator==(const Schema& o) const {
    return num_keys == o.num_keys && num_feats == o.num_feats;
  }
};

/// A batch of decoded rows produced by TableScanner. Keys are flattened
/// row-major (`num_keys` per row); features form a dense matrix.
struct RowBatch {
  size_t num_rows = 0;
  size_t num_keys = 0;
  int64_t start_row = 0;           // global row id of row 0 in this batch
  std::vector<int64_t> keys;       // num_rows * num_keys
  la::Matrix feats;                // num_rows x num_feats

  const int64_t* KeysOf(size_t row) const {
    return keys.data() + row * num_keys;
  }
};

/// A batch of decoded rows laid out as cache-blocked column-major strips —
/// the batched-decode target of the kernel plane. The row range is cut
/// into strips of `strip_rows` rows (the last strip may be short); within
/// strip s, feature column c occupies the contiguous run
/// `data[(s * num_cols + c) * strip_rows .. + strip_rows)` (the stride is
/// always the full strip height, so a short last strip just leaves its
/// tail lanes unused). One strip of one column is the unit the batch
/// kernels (la/kernels.h `*_strip`) consume: tall enough to amortize the
/// decode transpose, short enough that a handful of columns stay in L1/L2.
/// Keys stay row-major like RowBatch — the join paths that need them are
/// row-at-a-time anyway.
struct ColumnStrips {
  size_t strip_rows = 0;  // H — strip height (and the column stride)
  size_t num_strips = 0;
  size_t num_rows = 0;    // total decoded rows across all strips
  size_t num_cols = 0;    // feature columns
  size_t num_keys = 0;
  int64_t start_row = 0;  // global row id of strip 0, row 0
  std::vector<int64_t> keys;  // num_rows * num_keys, row-major
  std::vector<double> data;   // num_strips * num_cols * strip_rows

  /// The one shape every strip builder starts from: `rows` rows of `cols`
  /// feature columns and `nkeys` keys each, in strips of `height` rows,
  /// row 0 at global row `start`. Sizes `keys` and `data` and leaves
  /// their contents to the builder, which writes every present row.
  /// Defined out of line: inlined into a builder's caller, its resize
  /// paths crowd the builder's transpose loop out of registers (the F
  /// strategy's S-slice transpose spilled its cursor to the stack).
  void Shape(size_t height, size_t rows, size_t cols, size_t nkeys,
             int64_t start);

  const double* Col(size_t strip, size_t col) const {
    return data.data() + (strip * num_cols + col) * strip_rows;
  }
  double* MutableCol(size_t strip, size_t col) {
    return data.data() + (strip * num_cols + col) * strip_rows;
  }
  /// Rows actually present in `strip` (strip_rows except a short tail).
  size_t RowsInStrip(size_t strip) const {
    return std::min(strip_rows, num_rows - strip * strip_rows);
  }
  /// Batch-local index of `strip`'s first row (add start_row for global).
  size_t StripStart(size_t strip) const { return strip * strip_rows; }
  const int64_t* KeysOf(size_t row) const {
    return keys.data() + row * num_keys;
  }
};

/// A heap-file relation: header page 0 (magic, schema, row count) followed
/// by data pages of packed fixed-width rows. Tables are write-once: build
/// with Append + Finish, then scan through a BufferPool.
class Table {
 public:
  /// Creates a new table file at `path` (truncating any existing file).
  static Result<Table> Create(const std::string& path, const Schema& schema);

  /// Opens an existing table, reading schema and row count from the header.
  static Result<Table> Open(const std::string& path);

  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const Schema& schema() const { return schema_; }
  const std::string& path() const { return file_->path(); }
  int64_t num_rows() const { return num_rows_; }
  /// Data pages only (excludes the header page) — this is the |S|, |R|, |T|
  /// of the paper's I/O cost formulas.
  uint64_t num_data_pages() const;

  PagedFile* file() const { return file_.get(); }

  /// Appends one row. Rows are staged in memory and written kMaxRunPages
  /// full pages per PagedFile::AppendPages call.
  Status Append(const int64_t* keys, const double* feats);

  /// Writes the staged pages and the tail page, persists the header and
  /// frees the stage. Must be called once after the last Append before
  /// the table is scanned.
  Status Finish();

  /// Bytes held for staged appends: kMaxRunPages pages while writable,
  /// 0 once finished.
  size_t stage_bytes() const { return stage_ ? kMaxRunPages * kPageSize : 0; }

  /// OK when rows [start_row, start_row + count) exist, else OutOfRange
  /// naming the file: the bound every read checks before it sizes its
  /// output.
  Status CheckRowRange(int64_t start_row, size_t count) const;

  /// Reads `count` rows starting at `start_row` into `out` via the pool.
  /// Convenience shim over the unified I/O cursor plane
  /// (storage::PageCursor, which owns the page walk and decode).
  Status ReadRows(BufferPool* pool, int64_t start_row, size_t count,
                  RowBatch* out) const;

  /// Reads `count` rows starting at `start_row` into column-major strips
  /// of height `strip_rows` via the pool: shapes `out` to the read, then
  /// decodes it with storage::PageCursor::ReadStrips (same page walk as
  /// ReadRows, identical I/O accounting, different decode target).
  Status ReadStrips(BufferPool* pool, int64_t start_row, size_t count,
                    size_t strip_rows, ColumnStrips* out) const;

 private:
  Table(std::unique_ptr<PagedFile> file, Schema schema, int64_t num_rows,
        bool writable);

  /// Writes the staged pages with one AppendPages.
  Status FlushStage();

  std::unique_ptr<PagedFile> file_;
  Schema schema_;
  int64_t num_rows_;
  bool writable_;
  bool finished_ = false;
  /// kMaxRunPages pages, zero-filled once: full pages overwrite their row
  /// count and rows, so their padding stays zero across flushes.
  std::unique_ptr<char[]> stage_;
  size_t staged_pages_ = 0;  // full pages in stage_
  size_t tail_rows_ = 0;     // rows in stage_ page `staged_pages_`
};

class Prefetcher;  // storage/page_cursor.h — the async half of the I/O plane
class PageCursor;  // storage/page_cursor.h — the demand half

/// Sequential batched reader over a table's rows — a thin batching /
/// row-decoding shim over the unified I/O cursor plane (PageCursor): every
/// page touch is delegated there, and when a Prefetcher is attached the
/// scanner double-buffers, asynchronously landing the pages of the next
/// `depth_batches` batches while the caller computes on the current one.
class TableScanner {
 public:
  /// Batches of up to `batch_rows` rows; the last batch may be short.
  TableScanner(const Table* table, BufferPool* pool, size_t batch_rows);

  /// Attaches the async prefetch plane: Next() keeps the pages of the
  /// following `depth_batches` batches in flight ahead of the demand
  /// reads. Residency-only — decoded rows, batch boundaries and demand
  /// read order are unchanged by any prefetch schedule.
  void EnablePrefetch(Prefetcher* prefetcher, int64_t depth_batches);

  /// Asynchronously lands the head of rows [begin, end) — at most
  /// `depth_batches` batches' worth — in the pool. Used by the morsel
  /// drivers to overlap the next scheduled chunk's reads with the current
  /// chunk's compute. No-op without EnablePrefetch.
  void PrefetchRowRange(int64_t begin, int64_t end);

  /// Fills `out` with the next batch. Returns false at end-of-table or on
  /// error (check status()).
  bool Next(RowBatch* out);

  /// Strip-decoding twin of Next(): same batch boundaries, same demand
  /// page walk, same prefetch schedule — but the batch lands as
  /// column-major strips of height `strip_rows` instead of row-major
  /// rows. The M strategy's full passes call this; Next() serves the
  /// row-at-a-time readers.
  bool NextStrips(size_t strip_rows, ColumnStrips* out);

  /// Restricts the scan to rows [begin, end) — the morsel of one parallel
  /// worker. Batch boundaries fall at begin + i * batch_rows, so a
  /// full-range scanner chunks exactly like an unrestricted one. Also
  /// repositions to `begin`.
  void SetRowRange(int64_t begin, int64_t end);

  /// Restarts the scan from the first row of the range (a new pass).
  void Reset();

  const Status& status() const { return status_; }

 private:
  /// Shared head of Next()/NextStrips(): status check, batch sizing, and
  /// the double-buffer prefetch window. Returns false at end-of-range.
  bool PrepareBatch(PageCursor* cursor, size_t* count);

  const Table* table_;
  BufferPool* pool_;
  size_t batch_rows_;
  int64_t begin_row_ = 0;
  int64_t end_row_ = -1;  // -1 = num_rows()
  int64_t next_row_ = 0;
  Status status_;
  Prefetcher* prefetcher_ = nullptr;
  int64_t prefetch_batches_ = 0;
  int64_t prefetch_water_ = 0;  // rows at/after this mark not yet prefetched
};

}  // namespace factorml::storage

#endif  // FACTORML_STORAGE_TABLE_H_
