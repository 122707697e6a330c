#include "join/fk_index.h"

namespace factorml::join {

Status FkIndex::Build(const storage::Table& s, storage::BufferPool* pool,
                      size_t fk_key_idx, int64_t num_rids) {
  if (fk_key_idx >= s.schema().num_keys) {
    return Status::InvalidArgument("fk key index out of range");
  }
  if (num_rids <= 0) {
    return Status::InvalidArgument("num_rids must be positive");
  }
  fk_key_idx_ = fk_key_idx;
  starts_.assign(num_rids, 0);
  counts_.assign(num_rids, 0);
  total_rows_ = s.num_rows();

  storage::TableScanner scanner(&s, pool, 4096);
  storage::RowBatch batch;
  int64_t prev_fk = -1;
  while (scanner.Next(&batch)) {
    for (size_t r = 0; r < batch.num_rows; ++r) {
      const int64_t fk = batch.KeysOf(r)[fk_key_idx];
      if (fk < 0 || fk >= num_rids) {
        return Status::FailedPrecondition("dangling foreign key: " +
                                          std::to_string(fk));
      }
      if (fk < prev_fk) {
        return Status::FailedPrecondition(
            "fact table is not clustered by the foreign key");
      }
      if (counts_[fk] == 0) {
        starts_[fk] = batch.start_row + static_cast<int64_t>(r);
      }
      counts_[fk]++;
      prev_fk = fk;
    }
  }
  return scanner.status();
}

std::vector<exec::Range> ChunkFk1Runs(const FkIndex& index,
                                      int64_t morsel_rows) {
  std::vector<int64_t> run_lengths(static_cast<size_t>(index.num_rids()));
  for (int64_t rid = 0; rid < index.num_rids(); ++rid) {
    run_lengths[static_cast<size_t>(rid)] = index.CountOf(rid);
  }
  return exec::SplitWeightedChunks(run_lengths.data(), index.num_rids(),
                                   morsel_rows);
}

}  // namespace factorml::join
