#ifndef FACTORML_CORE_PIPELINE_ACCESS_STRATEGY_H_
#define FACTORML_CORE_PIPELINE_ACCESS_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline/model_program.h"
#include "core/pipeline/strategy_options.h"
#include "exec/shard_plan.h"
#include "join/normalized_relations.h"
#include "la/kernels.h"
#include "storage/buffer_pool.h"

namespace factorml::core::pipeline {

/// What the ShardedDriver hands a strategy while its shard plane is armed
/// (AccessStrategy::SetShardScan): after each shard's chunk span has been
/// scanned — accumulated into the model's slots, prefetch drained, worker
/// counters folded into the calling thread — the strategy reports it here,
/// still inside RunPass, before the next shard starts. The observer owns
/// everything that happens between scans: per-shard IoStats/timing
/// snapshots and the ShardDelta extraction.
class ShardScanObserver {
 public:
  virtual ~ShardScanObserver() = default;
  virtual Status OnShardScanned(int shard) = 0;
};

/// The data-access plane of the training pipeline: one driver per paper
/// strategy. A strategy owns materialization and temp files (M),
/// attribute-table views and their per-pass reloads (S/F),
/// TableScanner/JoinCursor iteration, the page-aligned / FK1-run chunk
/// plan, per-worker buffer pools, exec/ dispatch, and the deterministic
/// chunk-order merge — everything about *how rows reach the
/// model*, and nothing about the math.
class AccessStrategy {
 public:
  /// `options.threads` must already be resolved (>= 1).
  static Result<std::unique_ptr<AccessStrategy>> Create(
      Algorithm algorithm, const join::NormalizedRelations* rel,
      storage::BufferPool* pool, const StrategyOptions& options,
      bool full_pass);

  virtual ~AccessStrategy() = default;

  virtual Algorithm algorithm() const = 0;

  /// One-time setup: the M strategy joins and materializes T (recording
  /// report->materialize_seconds); S/F verify the FK1 index and carve the
  /// morsel ranges. Full-pass strategies also build their per-worker
  /// buffer pools here, once per training run, so pool contents persist
  /// across passes exactly as a hand-written trainer's would.
  virtual Status Prepare(PipelineContext* ctx, const std::string& temp_stem) = 0;

  /// Accumulator slot count of the full-pass plan, handed to
  /// ModelProgram::BeginPass: the chunk count (slot = chunk id, so the
  /// merge order is a data invariant, whatever the thread count).
  virtual int NumSlots() const = 0;

  /// Reloads per-pass inputs: S/F load the attribute views (one counted
  /// read of each R table per pass, the paper's per-pass join recompute)
  /// and publish them via ctx->views; M is a no-op.
  virtual Status BeginPass(PipelineContext* ctx) = 0;

  /// One parallel pass over all rows: workers scan the plan's chunks and
  /// feed blocks to the model's accumulate hook, one slot per chunk; the
  /// slots are then merged in chunk order on the calling thread. With the shard
  /// plane armed (SetShardScan), the scan instead runs shard by shard in
  /// shard-id order — same chunks, same owners, same per-worker cursor
  /// reuse — the observer is notified after each shard, and the merge is
  /// left to the ShardedDriver.
  virtual Status RunPass(const PipelineContext& ctx, ModelProgram* model,
                         int pass) = 0;

  /// The fixed full-pass morsel plan (empty before Prepare and in
  /// mini-batch mode): the chunk list the ShardedDriver splits into
  /// shards.
  virtual const std::vector<exec::Range>& MorselPlan() const = 0;

  /// Arms (plan + observer non-null) or disarms (both null) the shard
  /// plane for subsequent RunPass calls. Only the ShardedDriver calls
  /// this; the plan must be a decomposition of MorselPlan()'s chunk ids.
  virtual void SetShardScan(const exec::ShardPlan* plan,
                            ShardScanObserver* observer) = 0;

  /// One mini-batch epoch: plans/streams whole-FK1-group batches in the
  /// model's epoch order and feeds them to the model sequentially (batch
  /// internals parallelize inside the model via ctx.threads).
  virtual Status RunEpoch(PipelineContext* ctx, ModelProgram* model,
                          int epoch) = 0;
};

/// Runs one complete training: validates, measures (ReportScope), creates
/// the strategy, and drives the model program's plane (full-pass or
/// mini-batch) to completion. This is the single orchestration loop behind
/// every trainer in the system.
Status RunTraining(const join::NormalizedRelations& rel, Algorithm algorithm,
                   const StrategyOptions& options, ModelProgram* model,
                   storage::BufferPool* pool, TrainReport* report);

/// Assembles the joined feature vectors of the given fact rows (views are
/// loaded once, each row read through the pool) — the shared deterministic
/// seed-row initialization used by GMM and k-means.
Result<la::Matrix> AssembleJoinedRows(const join::NormalizedRelations& rel,
                                      storage::BufferPool* pool,
                                      const std::vector<int64_t>& rows);

}  // namespace factorml::core::pipeline

#endif  // FACTORML_CORE_PIPELINE_ACCESS_STRATEGY_H_
