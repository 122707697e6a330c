// The S strategy: recompute the join on the fly every pass/epoch — reload
// the attribute tables (build side), stream S (probe side) and assemble
// each joined tuple into a full d-vector before it enters the model
// (Fig. 1(b) of the paper). Morsels are whole FK1 runs so each worker's
// scan of S stays a sequential range read.

#include "core/pipeline/access_internal.h"
#include "join/assemble.h"

namespace factorml::core::pipeline::internal {

namespace {

class StreamingStrategy final : public JoinStreamStrategyBase {
 public:
  using JoinStreamStrategyBase::JoinStreamStrategyBase;

  Algorithm algorithm() const override { return Algorithm::kStreaming; }

  Status RunPass(const PipelineContext& ctx, ModelProgram* model,
                 int pass) override {
    return DriveJoinPass(
        ctx, model, pass,
        [&](const join::JoinBatch& batch, int slot,
            storage::ColumnStrips* strips) {
          // Assemble the joined tuples straight into column strips in
          // T's layout.
          join::AssembleJoinedStrips(*ctx.rel, batch.s_rows, views_,
                                     kDefaultStripRows, strips);
          model->Accumulate(pass, slot, StripBlock(*strips));
        });
  }

  Status RunEpoch(PipelineContext* ctx, ModelProgram* model,
                  int epoch) override {
    return DriveJoinEpoch(
        ctx, model, epoch,
        [&](const join::JoinBatch& batch, storage::ColumnStrips* strips) {
          {
            // On-the-fly join, the same assembly as RunPass.
            PhaseScope phase(ctx->report, "assemble");
            join::AssembleJoinedStrips(*ctx->rel, batch.s_rows, views_,
                                       kDefaultStripRows, strips);
          }
          return model->OnBatch(*ctx, StripBlock(*strips));
        });
  }
};

}  // namespace

std::unique_ptr<AccessStrategy> MakeStreaming(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass) {
  return std::make_unique<StreamingStrategy>(rel, pool, options,
                                             full_pass);
}

}  // namespace factorml::core::pipeline::internal
