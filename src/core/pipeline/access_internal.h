#ifndef FACTORML_CORE_PIPELINE_ACCESS_INTERNAL_H_
#define FACTORML_CORE_PIPELINE_ACCESS_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline/access_strategy.h"
#include "exec/morsel_queue.h"
#include "exec/parallel_for.h"
#include "exec/worker_pools.h"
#include "join/attribute_view.h"
#include "join/join_cursor.h"
#include "obs/trace.h"
#include "storage/page_cursor.h"

namespace factorml::core::pipeline::internal {

/// State shared by the three strategy drivers: the relations, the caller's
/// buffer pool, the full-pass morsel plan and the per-worker pools (built
/// once per training run so private pool contents persist across passes,
/// exactly like the hand-written trainers' WorkerPools did).
///
/// The full-pass plan (`ranges_`) is a list of fixed, deterministically
/// numbered chunks: slot == chunk id, workers acquire chunks from the
/// MorselQueue (with stealing when enabled) and the reduction merges in
/// chunk order, so the result is invariant under thread count and steal
/// schedule.
class StrategyBase : public AccessStrategy {
 public:
  int NumSlots() const override { return num_slots_; }

  const std::vector<exec::Range>& MorselPlan() const override {
    return ranges_;
  }

  void SetShardScan(const exec::ShardPlan* plan,
                    ShardScanObserver* observer) override {
    FML_CHECK((plan == nullptr) == (observer == nullptr));
    shard_plan_ = plan;
    shard_observer_ = observer;
  }

  StrategyBase(const join::NormalizedRelations* rel,
               storage::BufferPool* pool, const StrategyOptions& options,
               bool full_pass)
      : rel_(rel),
        pool_(pool),
        batch_rows_(options.batch_rows),
        temp_dir_(options.temp_dir),
        threads_(options.threads),
        morsel_rows_(options.morsel_rows),
        steal_(options.steal),
        prefetch_(options.prefetch),
        prefetch_depth_(options.prefetch_depth),
        full_pass_(full_pass) {}

  /// Installs the full-pass chunk plan (RunTraining has resolved
  /// morsel_rows >= 1 before strategies are created). NumSlots() becomes
  /// the accumulator slot count handed to ModelProgram::BeginPass, and
  /// one buffer pool per worker thread is built. Also brings up the async
  /// I/O plane when prefetch is on: one Prefetcher serves every worker of
  /// the run (each request lands in the issuing worker's own pool).
  void BuildWorkers(std::vector<exec::Range> ranges) {
    ranges_ = std::move(ranges);
    num_slots_ = ranges_.empty() ? 1 : static_cast<int>(ranges_.size());
    pools_ = std::make_unique<exec::WorkerPools>(pool_, threads_);
    if (prefetch_ && prefetcher_ == nullptr) {
      // Wide (and capped) arithmetic: --prefetch-depth accepts anything
      // up to INT_MAX, and an in-flight cap beyond a few per worker buys
      // nothing.
      const int64_t inflight =
          std::min<int64_t>(1024, 2ll * threads_ * prefetch_depth_);
      prefetcher_ =
          std::make_unique<storage::Prefetcher>(static_cast<int>(inflight));
    }
  }

  /// The async plane, or null when --prefetch=off. Strategies attach it
  /// to their per-worker scanners/cursors (EnablePrefetch).
  storage::Prefetcher* prefetcher() const { return prefetcher_.get(); }

  /// Publishes the plan shape to the report (called from Prepare).
  void RecordMorselPlan(PipelineContext* ctx) const {
    if (ctx->report != nullptr) {
      ctx->report->morsel_chunks = static_cast<int64_t>(ranges_.size());
    }
  }

  /// Drives one full pass over the chunk plan: body(range, slot, worker,
  /// next, status-slot) runs once per chunk; the caller then merges slots
  /// 0..NumSlots()-1 in order. Workers acquire chunks from the scheduler,
  /// stealing when enabled (slot = chunk id). Steal counts and per-worker
  /// busy time accumulate into ctx.report; the returned status is the
  /// first error in slot order.
  ///
  /// `next` is the range of the worker's next scheduled chunk — the front
  /// of its own MorselQueue block, known deterministically from the morsel
  /// plan — or null at the block end or with prefetch off. Strategies
  /// hand it to the cursor plane so the next chunk's pages load while
  /// this chunk computes. (A stolen chunk's successor may belong to
  /// another worker's block; prefetch is then skipped rather than landed
  /// in the wrong worker's pool — residency is best-effort.)
  /// All prefetch requests are drained before returning, so the pass
  /// dispatcher's I/O delta covers them and no request outlives the pass.
  template <typename Body>
  Status DriveMorsels(const PipelineContext& ctx, const Body& body) {
    std::vector<Status> slot_status(static_cast<size_t>(num_slots_));
    // Static chunk ownership, same split as the MorselQueue's blocks.
    const std::vector<exec::Range> owned =
        prefetcher_ != nullptr
            ? exec::PartitionRows(static_cast<int64_t>(ranges_.size()),
                                  threads_)
            : std::vector<exec::Range>{};
    const auto run_span = [&](exec::Range span) {
      // One "scan" span per scheduled chunk span: the whole plan when
      // unsharded, one per shard otherwise (nested under its shard_scan).
      obs::TraceSpan scan_span(obs::kCatPipeline, "scan");
      scan_span.Arg("chunk_begin", span.begin);
      scan_span.Arg2("chunk_end", span.end);
      const exec::MorselStats stats = exec::RunMorselSpan(
          ranges_, span, threads_, steal_,
          [&](exec::Range range, int64_t chunk, int worker) {
            const exec::Range* next = nullptr;
            const auto w = static_cast<size_t>(worker);
            if (w < owned.size() && chunk >= owned[w].begin &&
                chunk + 1 < std::min(owned[w].end, span.end)) {
              next = &ranges_[static_cast<size_t>(chunk) + 1];
            }
            body(range, static_cast<int>(chunk), worker, next,
                 &slot_status[static_cast<size_t>(chunk)]);
          });
      if (prefetcher_ != nullptr) prefetcher_->Drain();
      if (ctx.report != nullptr) {
        ctx.report->steals += stats.steals;
        auto& busy = ctx.report->worker_busy_seconds;
        if (busy.size() < stats.busy_seconds.size()) {
          busy.resize(stats.busy_seconds.size(), 0.0);
        }
        for (size_t w = 0; w < stats.busy_seconds.size(); ++w) {
          busy[w] += stats.busy_seconds[w];
        }
      }
    };
    if (shard_plan_ == nullptr) {
      run_span(exec::Range{0, static_cast<int64_t>(ranges_.size())});
      return exec::FirstError(slot_status);
    }
    // Shard plane armed: scan shard by shard in shard-id order. Ownership
    // blocks stay global (RunMorselSpan), so each worker visits its chunks
    // — and fills its buffer pool — in the same ascending order as the
    // unsharded run; the observer snapshots I/O and extracts the shard's
    // ShardDelta between spans, and the merge is left to the driver.
    for (int shard = 0; shard < shard_plan_->num_shards(); ++shard) {
      obs::TraceSpan shard_span(obs::kCatPipeline, "shard_scan");
      shard_span.Arg("shard", shard);
      run_span(shard_plan_->ChunkSpan(shard));
      FML_RETURN_IF_ERROR(shard_observer_->OnShardScanned(shard));
    }
    return exec::FirstError(slot_status);
  }

  /// The unsharded chunk-order reduction: merges slots 0..NumSlots()-1
  /// on the calling thread. A no-op while the shard plane is armed — the
  /// ShardedDriver owns the merge there (delta round-trip first, same
  /// global slot order).
  void MergeSlots(ModelProgram* model, int pass) const {
    if (shard_plan_ != nullptr) return;
    pipeline::MergeSlots(model, pass, exec::Range{0, num_slots_});
  }

  const join::NormalizedRelations* rel_;
  storage::BufferPool* pool_;
  size_t batch_rows_;
  std::string temp_dir_;
  int threads_;
  int64_t morsel_rows_;
  bool steal_;
  bool prefetch_;
  int prefetch_depth_;
  bool full_pass_;
  std::vector<exec::Range> ranges_;
  int num_slots_ = 1;
  /// Armed by the ShardedDriver for the duration of a sharded RunPass.
  const exec::ShardPlan* shard_plan_ = nullptr;
  ShardScanObserver* shard_observer_ = nullptr;
  std::unique_ptr<exec::WorkerPools> pools_;
  /// Declared after pools_ so destruction drains the crew (Prefetcher's
  /// destructor) before the per-worker pools its requests land in go away.
  std::unique_ptr<storage::Prefetcher> prefetcher_;
};

/// Common ground of the S and F strategies: both stream the join through
/// JoinCursor over FK1-run morsels and reload the attribute views at every
/// pass / epoch (the per-pass join recompute of Fig. 1(b)/(c)).
class JoinStreamStrategyBase : public StrategyBase {
 public:
  Status Prepare(PipelineContext* ctx, const std::string& temp_stem) override {
    (void)temp_stem;
    FML_CHECK_GT(rel_->fk1_index.num_rids(), 0) << "BuildIndex() not called";
    views_.resize(rel_->num_joins());
    if (full_pass_) {
      BuildWorkers(join::ChunkFk1Runs(rel_->fk1_index, morsel_rows_));
      RecordMorselPlan(ctx);
      // S/F chunks are whole FK1 runs: every slot's range is a contiguous
      // span of table-0 rid positions, so the plan doubles as the
      // rid-span contract (PipelineContext docs).
      ctx->slot_rid_spans = &ranges_;
    }
    return Status::OK();
  }

  Status BeginPass(PipelineContext* ctx) override {
    FML_RETURN_IF_ERROR(LoadViews());
    ctx->views = &views_;
    return Status::OK();
  }

  using StrategyBase::StrategyBase;

 protected:
  /// The S/F full pass: one join cursor and strip buffer per worker thread,
  /// reused across the FK1-run morsels it executes (runs are atomic, so
  /// whichever worker ends up with a chunk delivers the same groups and
  /// keeps F's per-R-tuple reuse). `body(batch, slot, &strips)` builds
  /// each non-empty batch's strips and hands them to the model.
  template <typename Body>
  Status DriveJoinPass(const PipelineContext& ctx, ModelProgram* model,
                       int pass, const Body& body) {
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
            body(wk.batch, slot, &wk.strips);
          }
          *status = wk.cursor->status();
        }));
    MergeSlots(model, pass);
    return Status::OK();
  }

  /// The S/F epoch: reloads the views, orders R1's rids by the model's
  /// EpochRidOrder and streams S in planned batches through one cursor;
  /// `body(batch, &strips)` builds each non-empty batch's strips and
  /// returns the model hook's status.
  template <typename Body>
  Status DriveJoinEpoch(PipelineContext* ctx, ModelProgram* model, int epoch,
                        const Body& body) {
    FML_RETURN_IF_ERROR(LoadViews());
    ctx->views = &views_;
    join::JoinCursor cursor(ctx->rel, pool_, batch_rows_);
    auto order = model->EpochRidOrder(*ctx, epoch);
    if (!order.empty()) cursor.SetRidOrder(std::move(order));
    FML_RETURN_IF_ERROR(model->BeginEpoch(*ctx, epoch));
    join::JoinBatch batch;
    storage::ColumnStrips strips;
    while (cursor.Next(&batch)) {
      if (batch.s_rows.num_rows == 0) continue;
      FML_RETURN_IF_ERROR(body(batch, &strips));
    }
    return cursor.status();
  }

  Status LoadViews() {
    for (size_t i = 0; i < rel_->num_joins(); ++i) {
      FML_RETURN_IF_ERROR(views_[i].Load(rel_->attrs[i], pool_));
    }
    return Status::OK();
  }

  std::vector<join::AttributeTableView> views_;
};

/// The M/S strategies' block over one batch of joined-row strips laid out
/// like T, on both planes: the whole joined row is the model's slice and
/// no table is factored, so no keys or groups ride along.
inline Block StripBlock(const storage::ColumnStrips& strips) {
  return Block{strips.start_row, strips.num_rows, &strips, nullptr, {}};
}

std::unique_ptr<AccessStrategy> MakeMaterialized(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass);
std::unique_ptr<AccessStrategy> MakeStreaming(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass);
std::unique_ptr<AccessStrategy> MakeFactorized(
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    const StrategyOptions& options, bool full_pass);

}  // namespace factorml::core::pipeline::internal

#endif  // FACTORML_CORE_PIPELINE_ACCESS_INTERNAL_H_
