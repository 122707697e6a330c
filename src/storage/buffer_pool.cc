#include "storage/buffer_pool.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_stats.h"

namespace factorml::storage {

BufferPool::BufferPool(size_t capacity_pages)
    : capacity_(capacity_pages == 0 ? 1 : capacity_pages) {}

Status BufferPool::GetPages(PagedFile* file, uint64_t first, size_t n,
                            const char** out) {
  FML_CHECK_LE(n, max_run_pages());
  // The latch is held across the misses' disk reads as well: releasing it
  // there would let two threads read the same page twice and double-insert.
  // Parallel scan paths avoid this serialization with per-worker pools;
  // the prefetcher reads outside the latch and inserts via
  // InsertPrefetched.
  std::lock_guard<std::mutex> lock(mu_);
  // The pending run of consecutive misses: frames already placed in the
  // LRU order, read together when the run ends. n <= capacity / 2 keeps
  // them clear of the LRU back, so no later miss of this call evicts one.
  std::list<Frame>::iterator miss_frames[kMaxRunPages];
  char* miss_bufs[kMaxRunPages];
  uint64_t miss_first = 0;
  size_t miss_n = 0;
  auto read_misses = [&]() -> Status {
    if (miss_n == 0) return Status::OK();
    // The demand stall: the wall time this reader blocks on the physical
    // read of the run. Charged to stall_micros, recorded in the always-on
    // stall histogram, and — when tracing — emitted as a demand_read span
    // whose duration IS the stall.
    static obs::Histogram* stall_hist =
        obs::Registry::Instance().GetHistogram("storage.demand_stall_micros");
    const uint64_t stall_begin = obs::NowMicros();
    const Status st = file->ReadPages(miss_first, miss_n, miss_bufs);
    const size_t pages = miss_n;
    miss_n = 0;
    if (!st.ok()) {
      // The run's frames hold no page: drop them, as a failed single-page
      // miss never inserts its frame.
      for (size_t i = 0; i < pages; ++i) {
        if (miss_frames[i] == last_demand_) last_demand_ = lru_.end();
        map_.erase(miss_frames[i]->key);
        lru_.erase(miss_frames[i]);
      }
      return st;
    }
    const uint64_t stall = obs::NowMicros() - stall_begin;
    GlobalIo().stall_micros += stall;
    stall_hist->Record(stall);
    if (obs::TraceEnabled()) {
      obs::TraceEvent ev;
      ev.name = "demand_read";
      ev.cat = obs::kCatStorage;
      ev.ts_micros = stall_begin;
      ev.dur_micros = stall;
      ev.arg1_name = "page";
      ev.arg1 = static_cast<int64_t>(miss_first);
      ev.arg2_name = "pages";
      ev.arg2 = static_cast<int64_t>(pages);
      obs::internal::EmitToThreadBuffer(ev);
    }
    return Status::OK();
  };

  for (size_t i = 0; i < n; ++i) {
    const Key key{file->id(), first + i};
    auto it = map_.find(key);
    if (it != map_.end()) {
      FML_RETURN_IF_ERROR(read_misses());
      GlobalIo().pool_hits++;
      if (it->second->prefetched) {
        it->second->prefetched = false;
        GlobalIo().prefetch_hits++;
      }
      // Move to front of the LRU list.
      lru_.splice(lru_.begin(), lru_, it->second);
      last_demand_ = it->second;
      out[i] = it->second->data.get();
      continue;
    }
    GlobalIo().pool_misses++;
    std::unique_ptr<char[]> buf;
    if (map_.size() >= capacity_) {
      // Reuse the least recently used frame (the demand path's eviction
      // decision — prefetch never alters it).
      auto victim_it = std::prev(lru_.end());
      if (victim_it == last_demand_) last_demand_ = lru_.end();
      buf = std::move(victim_it->data);
      map_.erase(victim_it->key);
      lru_.pop_back();
    } else {
      buf = std::make_unique_for_overwrite<char[]>(kPageSize);
    }
    lru_.push_front(Frame{key, std::move(buf)});
    map_[key] = lru_.begin();
    last_demand_ = lru_.begin();
    out[i] = lru_.front().data.get();
    if (miss_n == 0) miss_first = key.page_no;
    miss_frames[miss_n] = lru_.begin();
    miss_bufs[miss_n++] = lru_.front().data.get();
    if (miss_n == kMaxRunPages) FML_RETURN_IF_ERROR(read_misses());
  }
  return read_misses();
}

bool BufferPool::Contains(PagedFile* file, uint64_t page_no) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.count(Key{file->id(), page_no}) > 0;
}

bool BufferPool::InsertPrefetched(PagedFile* file, uint64_t page_no,
                                  std::unique_ptr<char[]> data) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{file->id(), page_no};
  if (map_.count(key) > 0) return false;  // a demand read won the race
  if (map_.size() >= capacity_) {
    // Evict from the LRU back, skipping the reader's current frame. An
    // old sequential-scan frame is dead weight (it would be flooded out
    // before any reuse); the page about to be demanded is not.
    auto victim_it = std::prev(lru_.end());
    if (victim_it == last_demand_) {
      if (lru_.size() < 2) return false;  // nothing evictable
      victim_it = std::prev(victim_it);
    }
    map_.erase(victim_it->key);
    lru_.erase(victim_it);
  }
  lru_.push_front(Frame{key, std::move(data), /*prefetched=*/true});
  map_[key] = lru_.begin();
  return true;
}

void BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  last_demand_ = lru_.end();
}

}  // namespace factorml::storage
