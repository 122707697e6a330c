// The S strategy: recompute the join on the fly every pass/epoch — reload
// the attribute tables (build side), stream S (probe side) and assemble
// each joined tuple into a full d-vector before it enters the model
// (Fig. 1(b) of the paper). Morsels are whole FK1 runs so each worker's
// scan of S stays a sequential range read.

#include <optional>

#include "core/pipeline/access_internal.h"
#include "join/assemble.h"
#include "join/join_cursor.h"

namespace factorml::core::pipeline::internal {

namespace {

class StreamingStrategy final : public JoinStreamStrategyBase {
 public:
  using JoinStreamStrategyBase::JoinStreamStrategyBase;

  Algorithm algorithm() const override { return Algorithm::kStreaming; }

  Status RunPass(const PipelineContext& ctx, ModelProgram* model,
                 int pass) override {
    // One join cursor + strip buffer per worker thread, reused across the
    // FK1-run morsels it executes.
    struct Worker {
      std::optional<join::JoinCursor> cursor;
      join::JoinBatch batch;
      storage::ColumnStrips strips;
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
            // Assemble the joined tuples straight into column strips in
            // T's layout.
            join::AssembleJoinedStrips(*ctx.rel, wk.batch.s_rows, views_,
                                       kDefaultStripRows, &wk.strips);
            model->AccumulateDense(
                pass, slot, JoinedStripBlock(wk.strips, ctx.rel->has_target));
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

    const size_t y_off = ctx->rel->has_target ? 1 : 0;
    const size_t d = ctx->rel->total_dims();
    la::Matrix x;  // assembly scratch, packed into strips per batch
    std::vector<double> y;
    storage::ColumnStrips strips;
    join::JoinBatch batch;
    while (cursor.Next(&batch)) {
      const size_t b = batch.s_rows.num_rows;
      if (b == 0) continue;
      x.Reshape(b, d);
      y.resize(y_off != 0 ? b : 0);
      {
        // On-the-fly join: assemble the full joined tuples, row-parallel
        // (pure data movement against shared read-only views).
        PhaseScope phase(ctx->report, "assemble");
        exec::ParallelFor(
            ctx->threads, static_cast<int64_t>(b), /*align=*/1,
            [&](exec::Range rg, int) {
              for (int64_t r = rg.begin; r < rg.end; ++r) {
                if (y_off != 0) {
                  y[static_cast<size_t>(r)] =
                      batch.s_rows.feats(static_cast<size_t>(r), 0);
                }
                join::AssembleJoinedRow(*ctx->rel, batch.s_rows,
                                        static_cast<size_t>(r), views_,
                                        x.Row(static_cast<size_t>(r)).data());
              }
            });
      }
      // The model's epoch math runs as batch matrix products over strips
      // (short batches included — the pack handles any row count).
      PackRowsToStrips(x.data(), d, b, d, 0, kDefaultStripRows, &strips);
      const DenseBatch dense{&strips, &y};
      FML_RETURN_IF_ERROR(model->OnDenseBatch(*ctx, dense));
    }
    return cursor.status();
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
