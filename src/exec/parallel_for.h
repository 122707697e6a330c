#ifndef FACTORML_EXEC_PARALLEL_FOR_H_
#define FACTORML_EXEC_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"

namespace factorml::exec {

/// A contiguous half-open range of work items — fact-table rows, rid
/// positions of a join order, columns of a gradient matrix. The morsel
/// unit of the parallel runtime: each worker owns one range per region.
struct Range {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t size() const { return end - begin; }
  bool empty() const { return end <= begin; }
};

/// Splits [0, total) into at most `parts` non-empty contiguous ranges of
/// near-equal size. When align > 1, interior boundaries are rounded up to
/// multiples of `align` — pass storage::Schema::RowsPerPage() so no two
/// workers touch the same storage page (each page is read by exactly one
/// worker, keeping parallel physical-read counts equal to serial ones).
std::vector<Range> PartitionRows(int64_t total, int parts, int64_t align = 1);

/// Splits positions [0, n) into at most `parts` contiguous ranges whose
/// weight sums are near-equal. Positions are atomic — a position is never
/// split across ranges — so with weights = chunk sizes (PlanShards),
/// every range is a whole span of chunks.
std::vector<Range> PartitionWeighted(const int64_t* weights, int64_t n,
                                     int parts);

/// Ceiling on the chunk count of one pass. Models allocate one accumulator
/// slot per chunk, so unbounded chunk counts would scale slot memory with
/// the data instead of with the requested morsel size; when `total /
/// morsel_rows` exceeds this, the effective morsel grows (deterministically
/// — it depends only on the same inputs) until the plan fits. Heavy
/// per-slot models (factorized GMM keeps per-rid mass vectors in each
/// slot) should prefer generous --morsel-rows for the same reason.
inline constexpr int64_t kMaxMorselChunks = 1024;

/// Rows per chunk of the full-pass plan when --morsel-rows is unset.
inline constexpr int64_t kDefaultMorselRows = 4096;

/// Splits [0, total) into fixed-size, deterministically numbered chunks —
/// the decomposition behind the work-stealing scheduler (morsel_queue.h).
/// `morsel_rows` is rounded up to a multiple of `align` (pass
/// storage::Schema::RowsPerPage() so no two chunks share a storage page)
/// and grown to respect kMaxMorselChunks. Chunk boundaries depend only on
/// (total, morsel_rows, align) — never on the worker count — which is the
/// first half of the chunk-ordered determinism contract: the chunk set and
/// its numbering are invariants of the data, so any assignment of chunks
/// to workers computes the same per-chunk results.
std::vector<Range> SplitRowChunks(int64_t total, int64_t morsel_rows,
                                  int64_t align = 1);

/// Packs positions [0, n) (weights = FK1-run lengths) into consecutive
/// whole-position chunks of at least `morsel_weight` total weight (grown
/// to respect kMaxMorselChunks). A position heavier than the target forms
/// its own chunk — positions are atomic, as in PartitionWeighted, so
/// factorized per-R-tuple reuse is preserved within every chunk.
/// Zero-weight positions (rids with no matching fact rows) are carried
/// along and never produce empty ranges. Like SplitRowChunks, the result
/// is independent of the worker count.
std::vector<Range> SplitWeightedChunks(const int64_t* weights, int64_t n,
                                       int64_t morsel_weight);

/// Morsel-driven parallel-for over [0, total): partitions with
/// PartitionRows(total, threads, align) and runs body(ranges[w], w) with
/// one worker per range (worker 0 is the calling thread). Blocks until all
/// complete; per-worker op/I/O counter deltas are merged into the caller in
/// worker order (see ThreadPool::Run). threads <= 1 runs
/// body(Range{0, total}, 0) inline — bit-for-bit the serial path.
void ParallelFor(int threads, int64_t total, int64_t align,
                 const std::function<void(Range, int)>& body);

/// First non-OK status in worker order (OK when all workers succeeded).
/// The standard error plumbing for Status-returning work inside a region:
/// each worker writes its slot, the caller propagates the first failure.
Status FirstError(const std::vector<Status>& statuses);

}  // namespace factorml::exec

#endif  // FACTORML_EXEC_PARALLEL_FOR_H_
