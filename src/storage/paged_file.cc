#include "storage/paged_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "storage/io_stats.h"

namespace factorml::storage {

namespace {
std::atomic<uint64_t> g_next_file_id{1};

void SimulateLatency(uint64_t micros) {
  if (micros == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

std::string PageRange(uint64_t first, size_t n) {
  return "pages [" + std::to_string(first) + ", " +
         std::to_string(first + n) + ")";
}
}  // namespace

PagedFile::PagedFile(int fd, std::string path, uint64_t num_pages,
                     bool writable)
    : fd_(fd),
      path_(std::move(path)),
      num_pages_(num_pages),
      writable_(writable),
      id_(g_next_file_id.fetch_add(1)) {}

PagedFile::~PagedFile() { ::close(fd_); }

Result<std::unique_ptr<PagedFile>> PagedFile::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    return Status::IoError("cannot create file: " + path);
  }
  return std::unique_ptr<PagedFile>(new PagedFile(fd, path, 0, true));
}

Result<std::unique_ptr<PagedFile>> PagedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open file: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat file: " + path);
  }
  const uint64_t pages = static_cast<uint64_t>(st.st_size) / kPageSize;
  return std::unique_ptr<PagedFile>(new PagedFile(fd, path, pages, false));
}

Status PagedFile::ReadPages(uint64_t first, size_t n, char* const* bufs) {
  const uint64_t pages = num_pages();
  if (first > pages || n > pages - first) {
    return Status::OutOfRange(PageRange(first, n) + " out of range in " +
                              path_);
  }
  // One preadv per kMaxRunPages pages; a partial transfer resumes at the
  // byte it stopped at, and end-of-file before the range ends is a short
  // read.
  const uint64_t total = n * kPageSize;
  uint64_t done = 0;
  while (done < total) {
    iovec iov[kMaxRunPages];
    const size_t page = done / kPageSize;
    int cnt = 0;
    for (size_t p = page; p < n && cnt < static_cast<int>(kMaxRunPages);
         ++p, ++cnt) {
      const size_t skip = p == page ? done % kPageSize : 0;
      iov[cnt].iov_base = bufs[p] + skip;
      iov[cnt].iov_len = kPageSize - skip;
    }
    const ssize_t got = ::preadv(fd_, iov, cnt,
                                 static_cast<off_t>(first * kPageSize + done));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      return Status::IoError("read of " + PageRange(first, n) + " failed in " +
                             path_ + ": " + std::strerror(errno));
    }
    if (got == 0) {
      return Status::IoError("short read of " + PageRange(first, n) + " in " +
                             path_ + ": " + std::to_string(done) + " of " +
                             std::to_string(total) + " bytes");
    }
    done += static_cast<uint64_t>(got);
  }
  // Counted on the calling thread; the simulated device latency is per
  // page, as on a device that moves a run page by page.
  GlobalIo().pages_read += n;
  SimulateLatency(n * SimulatedReadLatencyMicros());
  return Status::OK();
}

Status PagedFile::WriteAt(const char* buf, size_t bytes, uint64_t offset,
                          const std::string& what) {
  size_t done = 0;
  while (done < bytes) {
    const ssize_t put = ::pwrite(fd_, buf + done, bytes - done,
                                 static_cast<off_t>(offset + done));
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) {
      return Status::IoError(
          "short write of " + what + " in " + path_ + ": " +
          std::to_string(done) + " of " + std::to_string(bytes) + " bytes" +
          (put < 0 ? std::string(": ") + std::strerror(errno) : ""));
    }
    done += static_cast<size_t>(put);
  }
  return Status::OK();
}

Result<uint64_t> PagedFile::AppendPages(const char* buf, size_t n) {
  uint64_t first = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!writable_) {
      return Status::FailedPrecondition("file opened read-only: " + path_);
    }
    first = num_pages();
    FML_RETURN_IF_ERROR(WriteAt(buf, n * kPageSize, first * kPageSize,
                                PageRange(first, n)));
    num_pages_.store(first + n, std::memory_order_release);
  }
  GlobalIo().pages_written += n;
  SimulateLatency(n * SimulatedWriteLatencyMicros());
  return first;
}

Status PagedFile::WritePage(uint64_t page_no, const char* buf) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!writable_) {
      return Status::FailedPrecondition("file opened read-only: " + path_);
    }
    if (page_no >= num_pages()) {
      return Status::OutOfRange("page " + std::to_string(page_no) +
                                " out of range in " + path_);
    }
    FML_RETURN_IF_ERROR(WriteAt(buf, kPageSize, page_no * kPageSize,
                                PageRange(page_no, 1)));
  }
  GlobalIo().pages_written++;
  SimulateLatency(SimulatedWriteLatencyMicros());
  return Status::OK();
}

}  // namespace factorml::storage
