// The M strategy: join once, write T to disk, then drive the model from
// sequential scans of T (full-pass plane, Algorithm 1 of the paper) or
// planned row-range reads of T (mini-batch plane). Page-aligned row-range
// morsels keep every data page owned by exactly one worker.

#include <optional>

#include "common/stopwatch.h"
#include "core/pipeline/access_internal.h"
#include "join/batch_plan.h"
#include "join/materialize.h"
#include "storage/table.h"

namespace factorml::core::pipeline::internal {

namespace {

class MaterializedStrategy final : public StrategyBase {
 public:
  using StrategyBase::StrategyBase;

  Algorithm algorithm() const override { return Algorithm::kMaterialized; }

  Status Prepare(PipelineContext* ctx, const std::string& temp_stem) override {
    Stopwatch mat_watch;
    FML_ASSIGN_OR_RETURN(
        storage::Table t,
        join::MaterializeJoin(*rel_, pool_,
                              temp_dir_ + "/m_" + temp_stem + "_T.fml",
                              threads_));
    t_.emplace(std::move(t));
    if (ctx->report != nullptr) {
      ctx->report->materialize_seconds = mat_watch.ElapsedSeconds();
    }
    if (full_pass_) {
      const auto align = static_cast<int64_t>(t_->schema().RowsPerPage());
      BuildWorkers(exec::SplitRowChunks(t_->num_rows(), morsel_rows_, align));
      RecordMorselPlan(ctx);
    }
    return Status::OK();
  }

  Status BeginPass(PipelineContext* ctx) override {
    ctx->views = nullptr;  // T already carries the attribute columns
    return Status::OK();
  }

  Status RunPass(const PipelineContext& ctx, ModelProgram* model,
                 int pass) override {
    // One scanner + batch buffer per worker thread, reused across the
    // morsels it executes (the ranges are page-aligned, so whichever
    // worker ends up with a chunk reads the same pages and rows).
    struct Worker {
      std::optional<storage::TableScanner> scan;
      storage::ColumnStrips strips;
    };
    std::vector<Worker> workers(static_cast<size_t>(threads_));
    FML_RETURN_IF_ERROR(DriveMorsels(
        ctx, [&](exec::Range range, int slot, int w,
                 const exec::Range* next, Status* status) {
          Worker& wk = workers[static_cast<size_t>(w)];
          if (!wk.scan) {
            wk.scan.emplace(&*t_, pools_->Get(w), batch_rows_);
            if (prefetcher() != nullptr) {
              wk.scan->EnablePrefetch(prefetcher(), prefetch_depth_);
            }
          }
          // Overlap the next scheduled chunk's page reads with this
          // chunk's compute (residency-only; see DriveMorsels).
          if (next != nullptr) {
            wk.scan->PrefetchRowRange(next->begin, next->end);
          }
          wk.scan->SetRowRange(range.begin, range.end);
          // Batched decode: the scanner's batches and demand page walk,
          // fused straight into column strips in T's layout.
          while (wk.scan->NextStrips(kDefaultStripRows, &wk.strips)) {
            if (wk.strips.num_rows == 0) continue;
            model->Accumulate(pass, slot, StripBlock(wk.strips));
          }
          *status = wk.scan->status();
        }));
    MergeSlots(model, pass);
    return Status::OK();
  }

  Status RunEpoch(PipelineContext* ctx, ModelProgram* model,
                  int epoch) override {
    const auto order = model->EpochRidOrder(*ctx, epoch);
    const auto plan = join::PlanGroupBatches(ctx->rel->fk1_index, batch_rows_,
                                             order.empty() ? nullptr : &order);
    ctx->views = nullptr;
    FML_RETURN_IF_ERROR(model->BeginEpoch(*ctx, epoch));

    // Each planned row range decodes straight into its rows of one
    // T-layout block (a shuffled batch gathers many ranges), through the
    // same page walk and strip decode as RunPass.
    const storage::PageCursor cursor(&*t_, ctx->pool);
    const storage::Schema& schema = t_->schema();
    storage::ColumnStrips strips;
    for (const auto& batch : plan) {
      strips.Shape(kDefaultStripRows, static_cast<size_t>(batch.total_rows),
                   schema.num_feats, schema.num_keys,
                   batch.ranges.empty() ? 0 : batch.ranges.front().start);
      size_t filled = 0;
      for (const auto& range : batch.ranges) {
        const auto count = static_cast<size_t>(range.count);
        FML_RETURN_IF_ERROR(
            cursor.ReadStrips(range.start, count, filled, &strips));
        filled += count;
      }
      FML_CHECK_EQ(filled, strips.num_rows);
      FML_RETURN_IF_ERROR(model->OnBatch(*ctx, StripBlock(strips)));
    }
    return Status::OK();
  }

 private:
  std::optional<storage::Table> t_;
};

}  // namespace

std::unique_ptr<AccessStrategy> MakeMaterialized(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass) {
  return std::make_unique<MaterializedStrategy>(rel, pool, options,
                                                full_pass);
}

}  // namespace factorml::core::pipeline::internal
