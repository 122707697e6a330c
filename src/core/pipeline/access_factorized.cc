// The F strategy: push the model through the join. Rows are delivered in
// normalized form — the S slice plus foreign keys, grouped by R1 rid —
// and the model reaches attribute features through the resident views,
// reusing per-attribute-tuple work across all matching fact tuples
// (Fig. 1(c) / Fig. 2 of the paper). Morsels are whole FK1 runs so the
// per-R-tuple reuse is preserved within each worker.

#include <optional>

#include "core/pipeline/access_internal.h"
#include "join/join_cursor.h"

namespace factorml::core::pipeline::internal {

namespace {

class FactorizedStrategy final : public JoinStreamStrategyBase {
 public:
  using JoinStreamStrategyBase::JoinStreamStrategyBase;

  Algorithm algorithm() const override { return Algorithm::kFactorized; }

  Status RunPass(const PipelineContext& ctx, ModelProgram* model,
                 int pass) override {
    // One join cursor per worker thread, reused across the FK1-run
    // morsels it executes (runs are atomic, so whichever worker ends up
    // with a chunk delivers the same groups and preserves the per-R-tuple
    // reuse).
    struct Worker {
      std::optional<join::JoinCursor> cursor;
      join::JoinBatch batch;
      storage::ColumnStrips s_strips;
    };
    std::vector<Worker> workers(static_cast<size_t>(threads_));
    FML_RETURN_IF_ERROR(DriveMorsels(
        ctx, [&](exec::Range range, int slot, int w,
                 const exec::Range* next, Status* status) {
          Worker& wk = workers[static_cast<size_t>(w)];
          if (!wk.cursor) {
            wk.cursor.emplace(ctx.rel, pools_->Get(w), batch_rows_);
            if (prefetcher() != nullptr) {
              wk.cursor->EnablePrefetch(prefetcher(), prefetch_depth_);
            }
          }
          // Overlap the next scheduled chunk's S-run reads with this
          // chunk's compute (residency-only; see DriveMorsels).
          if (next != nullptr) {
            wk.cursor->PrefetchPositionRange(next->begin, next->end);
          }
          wk.cursor->SetPositionRange(range.begin, range.end);
          while (wk.cursor->Next(&wk.batch)) {
            if (wk.batch.s_rows.num_rows == 0) continue;
            // The S-slice columns as strips (a straight transpose of
            // s_rows.feats — no target special-casing, the model knows the
            // S-slice layout); the group structure rides along in s_rows.
            const storage::RowBatch& s = wk.batch.s_rows;
            PackRowsToStrips(s.feats.data(), s.feats.cols(), s.num_rows,
                             s.feats.cols(), s.start_row, kDefaultStripRows,
                             &wk.s_strips);
            const FactorizedBlock block{&s, &wk.batch.groups, &wk.s_strips};
            model->AccumulateFactorized(pass, slot, block);
          }
          *status = wk.cursor->status();
        }));
    MergeSlots(model, pass);
    return Status::OK();
  }

  Status RunEpoch(PipelineContext* ctx, ModelProgram* model,
                  int epoch) override {
    FML_RETURN_IF_ERROR(LoadViews());
    ctx->views = &views_;
    join::JoinCursor cursor(ctx->rel, pool_, batch_rows_);
    auto order = model->EpochRidOrder(*ctx, epoch);
    if (!order.empty()) cursor.SetRidOrder(std::move(order));
    FML_RETURN_IF_ERROR(model->BeginEpoch(*ctx, epoch));

    join::JoinBatch batch;
    storage::ColumnStrips s_strips;
    while (cursor.Next(&batch)) {
      if (batch.s_rows.num_rows == 0) continue;
      // The S slice as strips, same transpose as RunPass (short
      // mini-batches pack into one partial strip).
      const storage::RowBatch& s = batch.s_rows;
      PackRowsToStrips(s.feats.data(), s.feats.cols(), s.num_rows,
                       s.feats.cols(), s.start_row, kDefaultStripRows,
                       &s_strips);
      const FactorizedBlock block{&s, &batch.groups, &s_strips};
      FML_RETURN_IF_ERROR(model->OnFactorizedBatch(*ctx, block));
    }
    return cursor.status();
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
