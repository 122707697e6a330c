#ifndef FACTORML_STORAGE_PAGED_FILE_H_
#define FACTORML_STORAGE_PAGED_FILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace factorml::storage {

/// Fixed page size of the storage engine (8 KiB, the PostgreSQL default —
/// the paper stored its relations in PostgreSQL).
inline constexpr size_t kPageSize = 8192;

/// Longest run of consecutive pages one transfer moves: the page walk's
/// read runs and Table's staged appends (256 KiB).
inline constexpr size_t kMaxRunPages = 32;

/// A file addressed in fixed-size pages. Every physical page transfer is
/// counted in GlobalIo(); higher layers (BufferPool, Table) never touch the
/// byte offsets directly. A run of consecutive pages moves in one system
/// call (`preadv` / `pwrite` on a raw descriptor); the single-page calls
/// are the run of one.
class PagedFile {
 public:
  /// Creates (truncates) a new file for writing + reading.
  static Result<std::unique_ptr<PagedFile>> Create(const std::string& path);

  /// Opens an existing file read-only.
  static Result<std::unique_ptr<PagedFile>> Open(const std::string& path);

  ~PagedFile();

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  /// Stable identifier unique across the process lifetime; the BufferPool
  /// keys cached frames by (file_id, page_no) so ids are never reused.
  uint64_t id() const { return id_; }
  const std::string& path() const { return path_; }
  uint64_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }

  /// Reads pages [first, first + n) into `bufs[0..n)` (kPageSize bytes
  /// each) with one positioned vector read. Takes no lock: positioned
  /// reads share no file offset, so per-worker buffer pools and the
  /// prefetch crew read one file concurrently. A range past the end is
  /// OutOfRange; a file shorter than the range (truncated after Open) is
  /// IoError naming the file and the pages.
  Status ReadPages(uint64_t first, size_t n, char* const* bufs);
  Status ReadPage(uint64_t page_no, char* buf) {
    return ReadPages(page_no, 1, &buf);
  }

  /// Appends `n` pages held contiguously in `buf` with one positioned
  /// write; returns the first one's page number.
  Result<uint64_t> AppendPages(const char* buf, size_t n);
  Result<uint64_t> AppendPage(const char* buf) { return AppendPages(buf, 1); }

  /// Overwrites an existing page (used for the header page on Finish).
  Status WritePage(uint64_t page_no, const char* buf);

  /// Writes are unbuffered (they reach the kernel in the call), so there
  /// is nothing to flush; kept as the point where a writer's file is
  /// complete.
  Status Flush() { return Status::OK(); }

 private:
  PagedFile(int fd, std::string path, uint64_t num_pages, bool writable);

  /// One positioned write of `bytes` at `offset`, resumed after a partial
  /// transfer; `what` names the pages in the error.
  Status WriteAt(const char* buf, size_t bytes, uint64_t offset,
                 const std::string& what);

  int fd_;
  std::string path_;
  std::atomic<uint64_t> num_pages_;
  bool writable_;
  uint64_t id_;
  std::mutex mu_;  // serializes AppendPages and WritePage; reads are free
};

}  // namespace factorml::storage

#endif  // FACTORML_STORAGE_PAGED_FILE_H_
