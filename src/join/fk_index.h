#ifndef FACTORML_JOIN_FK_INDEX_H_
#define FACTORML_JOIN_FK_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/parallel_for.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace factorml::join {

/// Primary/foreign-key index over a fact table S that is *clustered* by one
/// foreign-key column: for each RID value of the referenced attribute table
/// it records the contiguous run of S rows carrying that value. Probing the
/// matching S tuples of an R tuple (the paper's Fig. 1(b)/(c) access
/// pattern) then becomes a sequential range read.
class FkIndex {
 public:
  FkIndex() = default;

  /// Scans S and builds the index for key column `fk_key_idx`. RIDs must be
  /// dense in [0, num_rids). Fails with FailedPrecondition if S is not
  /// sorted by that column (i.e. not clustered).
  Status Build(const storage::Table& s, storage::BufferPool* pool,
               size_t fk_key_idx, int64_t num_rids);

  int64_t num_rids() const { return static_cast<int64_t>(counts_.size()); }
  size_t fk_key_idx() const { return fk_key_idx_; }

  /// First S row with this rid (meaningful only when count > 0).
  int64_t StartOf(int64_t rid) const { return starts_[rid]; }
  /// Number of S rows matching this rid (may be 0).
  int64_t CountOf(int64_t rid) const { return counts_[rid]; }

  /// Total matching rows, equals S's row count.
  int64_t total_rows() const { return total_rows_; }

 private:
  std::vector<int64_t> starts_;
  std::vector<int64_t> counts_;
  size_t fk_key_idx_ = 0;
  int64_t total_rows_ = 0;
};

/// Chunk plan of the S/F full passes: packs consecutive whole FK1 runs
/// into chunks of at least `morsel_rows` matching S rows (a run longer
/// than that forms its own chunk — runs are atomic, so factorized
/// per-R1-tuple reuse survives inside every chunk). The result depends
/// only on the index and the chunk size, never on the worker count, so
/// the chunk numbering — and with it the chunk-ordered reduction — is an
/// invariant of the data.
std::vector<exec::Range> ChunkFk1Runs(const FkIndex& index,
                                      int64_t morsel_rows);

}  // namespace factorml::join

#endif  // FACTORML_JOIN_FK_INDEX_H_
