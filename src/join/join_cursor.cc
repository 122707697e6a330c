#include "join/join_cursor.h"

#include <algorithm>
#include <cstring>

#include "storage/page_cursor.h"

namespace factorml::join {

JoinCursor::JoinCursor(const NormalizedRelations* rel,
                       storage::BufferPool* pool, size_t target_batch_rows)
    : rel_(rel), pool_(pool), target_batch_rows_(target_batch_rows) {
  FML_CHECK_GT(target_batch_rows_, 0u);
  FML_CHECK_GT(rel_->fk1_index.num_rids(), 0)
      << "JoinCursor requires a built fk1_index";
}

void JoinCursor::EnablePrefetch(storage::Prefetcher* prefetcher,
                                int64_t depth_batches) {
  prefetcher_ = prefetcher;
  prefetch_batches_ = depth_batches < 1 ? 1 : depth_batches;
}

int64_t JoinCursor::RunWindow(int64_t begin, int64_t end, int64_t cap,
                              int64_t* row_begin) const {
  // S is clustered by FK1 and rids are dense, so the positions' runs form
  // one contiguous S row span; cap it at the double-buffer window.
  const FkIndex& idx = rel_->fk1_index;
  begin = std::max<int64_t>(begin, 0);
  end = std::min(end, idx.num_rids());
  int64_t first = -1;
  int64_t rows = 0;
  for (int64_t pos = begin; pos < end && rows < cap; ++pos) {
    const int64_t count = idx.CountOf(pos);
    if (count == 0) continue;
    if (first < 0) first = idx.StartOf(pos);
    rows += count;
  }
  if (first < 0) return 0;
  *row_begin = first;
  return std::min(rows, cap);
}

void JoinCursor::PrefetchPositionRange(int64_t begin, int64_t end) {
  if (prefetcher_ == nullptr || !order_.empty()) return;
  const int64_t cap =
      prefetch_batches_ * static_cast<int64_t>(target_batch_rows_);
  int64_t row_begin = 0;
  const int64_t rows = RunWindow(begin, end, cap, &row_begin);
  if (rows == 0) return;
  storage::PageCursor cursor(&rel_->s, pool_);
  cursor.SetPrefetcher(prefetcher_);
  cursor.PrefetchRows(row_begin, rows);
}

void JoinCursor::SetRidOrder(std::vector<int64_t> order) {
  if (!order.empty()) {
    FML_CHECK_EQ(order.size(),
                 static_cast<size_t>(rel_->fk1_index.num_rids()));
  }
  order_ = std::move(order);
  next_pos_ = 0;
}

void JoinCursor::SetPositionRange(int64_t begin, int64_t end) {
  const int64_t num_rids = rel_->fk1_index.num_rids();
  FML_CHECK_GE(begin, 0);
  FML_CHECK_LE(end, num_rids);
  FML_CHECK_LE(begin, end);
  begin_pos_ = begin;
  end_pos_ = end;
  next_pos_ = begin;
  prefetch_water_ = 0;
}

void JoinCursor::Reset() {
  next_pos_ = begin_pos_;
  prefetch_water_ = 0;
  status_ = Status::OK();
}

bool JoinCursor::Next(JoinBatch* out) {
  if (!status_.ok()) return false;
  const FkIndex& idx = rel_->fk1_index;
  const int64_t end_pos = end_pos_ < 0 ? idx.num_rids() : end_pos_;
  if (next_pos_ >= end_pos) return false;

  // Collect whole rid groups until the batch target is reached.
  out->groups.clear();
  size_t total = 0;
  while (next_pos_ < end_pos && total < target_batch_rows_) {
    const int64_t rid =
        order_.empty() ? next_pos_ : order_[static_cast<size_t>(next_pos_)];
    const size_t count = static_cast<size_t>(idx.CountOf(rid));
    out->groups.push_back(JoinGroup{rid, total, count});
    total += count;
    ++next_pos_;
  }

  // Fast path: groups form one contiguous S row range (always true in
  // natural order because S is clustered by FK1).
  bool contiguous = true;
  for (size_t g = 0; g + 1 < out->groups.size(); ++g) {
    const auto& a = out->groups[g];
    const auto& b = out->groups[g + 1];
    if (a.count > 0 && b.count > 0 &&
        idx.StartOf(a.rid) + static_cast<int64_t>(a.count) !=
            idx.StartOf(b.rid)) {
      contiguous = false;
      break;
    }
  }

  if (prefetcher_ != nullptr && order_.empty()) {
    // Double-buffer: land the runs of the following batches (positions
    // [next_pos_, end_pos), already advanced past this batch) while the
    // caller computes on this one. The high-water mark keeps rows from
    // being requested twice within a range.
    const int64_t cap =
        prefetch_batches_ * static_cast<int64_t>(target_batch_rows_);
    int64_t row_begin = 0;
    const int64_t rows = RunWindow(next_pos_, end_pos, cap, &row_begin);
    if (rows > 0) {
      const int64_t from = std::max(prefetch_water_, row_begin);
      const int64_t window_end = row_begin + rows;
      if (window_end > from) {
        storage::PageCursor cursor(&rel_->s, pool_);
        cursor.SetPrefetcher(prefetcher_);
        cursor.PrefetchRows(from, window_end - from);
        prefetch_water_ = window_end;
      }
    }
  }

  if (total == 0) {
    // All collected rids had no matching S tuples; emit an empty batch so
    // callers see a consistent stream (they typically skip it).
    out->s_rows.num_rows = 0;
    out->s_rows.num_keys = rel_->s.schema().num_keys;
    out->s_rows.keys.clear();
    out->s_rows.feats.Resize(0, rel_->s.schema().num_feats);
    return true;
  }

  storage::PageCursor cursor(&rel_->s, pool_);
  cursor.SetPrefetcher(prefetcher_);  // demand runs of one under prefetch
  if (contiguous) {
    int64_t first_start = -1;
    for (const auto& g : out->groups) {
      if (g.count > 0) {
        first_start = idx.StartOf(g.rid);
        break;
      }
    }
    status_ = cursor.ReadRows(first_start, total, &out->s_rows);
    return status_.ok();
  }

  // Permuted order: assemble the batch group by group.
  const auto& schema = rel_->s.schema();
  out->s_rows.num_rows = total;
  out->s_rows.num_keys = schema.num_keys;
  out->s_rows.start_row = -1;
  out->s_rows.keys.resize(total * schema.num_keys);
  out->s_rows.feats.Resize(total, schema.num_feats);
  for (const auto& g : out->groups) {
    if (g.count == 0) continue;
    status_ = cursor.ReadRows(idx.StartOf(g.rid), g.count, &scratch_);
    if (!status_.ok()) return false;
    std::memcpy(out->s_rows.keys.data() + g.offset * schema.num_keys,
                scratch_.keys.data(),
                sizeof(int64_t) * g.count * schema.num_keys);
    std::memcpy(out->s_rows.feats.Row(g.offset).data(), scratch_.feats.data(),
                sizeof(double) * g.count * schema.num_feats);
  }
  return true;
}

}  // namespace factorml::join
