// The F strategy: push the model through the join. Rows are delivered in
// normalized form — the S slice plus foreign keys, grouped by R1 rid —
// and the model reaches attribute features through the resident views,
// reusing per-attribute-tuple work across all matching fact tuples
// (Fig. 1(c) / Fig. 2 of the paper). Morsels are whole FK1 runs so the
// per-R-tuple reuse is preserved within each worker.

#include "core/pipeline/access_internal.h"
#include "join/assemble.h"

namespace factorml::core::pipeline::internal {

namespace {

class FactorizedStrategy final : public JoinStreamStrategyBase {
 public:
  using JoinStreamStrategyBase::JoinStreamStrategyBase;

  Algorithm algorithm() const override { return Algorithm::kFactorized; }

  Status RunPass(const PipelineContext& ctx, ModelProgram* model,
                 int pass) override {
    return DriveJoinPass(
        ctx, model, pass,
        [&](const join::JoinBatch& batch, int slot,
            storage::ColumnStrips* s_strips) {
          model->Accumulate(pass, slot, SliceBlock(batch, s_strips));
        });
  }

  Status RunEpoch(PipelineContext* ctx, ModelProgram* model,
                  int epoch) override {
    return DriveJoinEpoch(
        ctx, model, epoch,
        [&](const join::JoinBatch& batch, storage::ColumnStrips* s_strips) {
          return model->OnBatch(*ctx, SliceBlock(batch, s_strips));
        });
  }

 private:
  /// The batch in normalized form: the S slice's columns as strips (the
  /// S-column half of join::AssembleJoinedStrips, no views), with the
  /// rows' keys and the group structure riding along.
  Block SliceBlock(const join::JoinBatch& batch,
                   storage::ColumnStrips* s_strips) const {
    join::AssembleJoinedStrips(*rel_, batch.s_rows, /*views=*/{},
                               kDefaultStripRows, s_strips);
    return Block{s_strips->start_row, s_strips->num_rows, s_strips,
                 &batch.s_rows, batch.groups};
  }
};

}  // namespace

std::unique_ptr<AccessStrategy> MakeFactorized(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass) {
  return std::make_unique<FactorizedStrategy>(rel, pool, options,
                                              full_pass);
}

}  // namespace factorml::core::pipeline::internal
