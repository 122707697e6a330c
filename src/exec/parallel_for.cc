#include "exec/parallel_for.h"

#include <algorithm>

namespace factorml::exec {

std::vector<Range> PartitionRows(int64_t total, int parts, int64_t align) {
  std::vector<Range> ranges;
  if (total <= 0) return ranges;
  if (parts < 1) parts = 1;
  if (align < 1) align = 1;
  int64_t begin = 0;
  for (int p = 0; p < parts && begin < total; ++p) {
    // Even split of what remains over the remaining parts, rounded up to
    // the alignment so interior boundaries sit on page row boundaries.
    const int64_t remaining_parts = parts - p;
    int64_t end = begin + (total - begin + remaining_parts - 1) / remaining_parts;
    if (align > 1 && end < total) {
      end = ((end + align - 1) / align) * align;
      if (end > total) end = total;
    }
    ranges.push_back(Range{begin, end});
    begin = end;
  }
  if (!ranges.empty()) ranges.back().end = total;
  return ranges;
}

std::vector<Range> PartitionWeighted(const int64_t* weights, int64_t n,
                                     int parts) {
  std::vector<Range> ranges;
  if (n <= 0) return ranges;
  if (parts < 1) parts = 1;
  int64_t total = 0;
  for (int64_t i = 0; i < n; ++i) total += weights[i];

  int64_t begin = 0;
  int64_t consumed = 0;
  for (int p = 0; p < parts && begin < n; ++p) {
    const int64_t remaining_parts = parts - p;
    const int64_t target =
        (total - consumed + remaining_parts - 1) / remaining_parts;
    int64_t end = begin;
    int64_t weight = 0;
    // Take whole positions until this part reaches its share; always take
    // at least one so every range is non-empty.
    while (end < n && (weight < target || end == begin)) {
      weight += weights[end];
      ++end;
    }
    // Leave at least one position per remaining part.
    const int64_t max_end = n - (remaining_parts - 1);
    while (end > max_end && end - 1 > begin) {
      --end;
      weight -= weights[end];
    }
    ranges.push_back(Range{begin, end});
    consumed += weight;
    begin = end;
  }
  if (!ranges.empty()) ranges.back().end = n;
  return ranges;
}

namespace {

/// Grows the requested morsel so the chunk count stays under
/// kMaxMorselChunks — a pure function of (total, morsel), so the
/// determinism contract is unaffected.
int64_t CapMorsel(int64_t total, int64_t morsel) {
  if (morsel < 1) morsel = 1;
  const int64_t floor_morsel = (total + kMaxMorselChunks - 1) / kMaxMorselChunks;
  return morsel < floor_morsel ? floor_morsel : morsel;
}

}  // namespace

std::vector<Range> SplitRowChunks(int64_t total, int64_t morsel_rows,
                                  int64_t align) {
  std::vector<Range> chunks;
  if (total <= 0) return chunks;
  morsel_rows = CapMorsel(total, morsel_rows);
  if (align < 1) align = 1;
  // Round the chunk size up to the alignment so interior boundaries sit on
  // page row boundaries (each page belongs to exactly one chunk).
  const int64_t step = ((morsel_rows + align - 1) / align) * align;
  for (int64_t begin = 0; begin < total; begin += step) {
    chunks.push_back(Range{begin, std::min(begin + step, total)});
  }
  return chunks;
}

std::vector<Range> SplitWeightedChunks(const int64_t* weights, int64_t n,
                                       int64_t morsel_weight) {
  std::vector<Range> chunks;
  if (n <= 0) return chunks;
  int64_t total = 0;
  for (int64_t i = 0; i < n; ++i) total += weights[i];
  morsel_weight = CapMorsel(total, morsel_weight);
  int64_t begin = 0;
  int64_t weight = 0;
  for (int64_t i = 0; i < n; ++i) {
    // An over-target position must sit alone in its chunk (the documented
    // giant-run isolation): flush whatever lighter runs are pending first.
    if (weights[i] >= morsel_weight && weight > 0) {
      chunks.push_back(Range{begin, i});
      begin = i;
      weight = 0;
    }
    weight += weights[i];
    if (weight >= morsel_weight) {
      chunks.push_back(Range{begin, i + 1});
      begin = i + 1;
      weight = 0;
    }
  }
  // Trailing underweight positions (including all-zero-weight tails) form
  // one final short chunk rather than being dropped.
  if (begin < n) chunks.push_back(Range{begin, n});
  return chunks;
}

void ParallelFor(int threads, int64_t total, int64_t align,
                 const std::function<void(Range, int)>& body) {
  if (total <= 0) return;
  if (threads <= 1) {
    body(Range{0, total}, 0);
    return;
  }
  const std::vector<Range> ranges = PartitionRows(total, threads, align);
  ThreadPool::Instance().Run(
      static_cast<int>(ranges.size()),
      [&](int w) { body(ranges[static_cast<size_t>(w)], w); });
}

Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace factorml::exec
