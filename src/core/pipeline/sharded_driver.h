#ifndef FACTORML_CORE_PIPELINE_SHARDED_DRIVER_H_
#define FACTORML_CORE_PIPELINE_SHARDED_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/pipeline/access_strategy.h"

namespace factorml::core::pipeline {

/// One shard's merged-state contribution to one full pass, serialized:
/// the bytes a distributed (RPC) backend puts on the wire. The payload is
/// the concatenation of the shard's per-chunk accumulator slots, each
/// streamed through ModelProgram::VisitSlotState and zero-run-length
/// encoded, behind a fixed header (magic/version, shard id, chunk span,
/// payload lengths — see sharded_driver.cc). Keeping the slots unfolded on the wire is what
/// preserves bit-exactness: the receiver runs MergeSlots over the chunks in
/// global chunk order, the exact reduction the single-shard run performs,
/// instead of summing pre-folded shard partials in a different
/// floating-point association.
struct ShardDelta {
  int shard = 0;
  int64_t chunk_begin = 0;
  int64_t chunk_end = 0;
  std::string bytes;

  size_t wire_size() const { return bytes.size(); }
};

/// Serializes the post-scan accumulator slots [chunks.begin, chunks.end)
/// of `model` into a ShardDelta and ZEROES them — until the delta is
/// applied the model holds no trace of the shard's scan, which is what
/// proves the bytes carry the complete merged state (the in-process
/// backend's loopback is a real serialization boundary, not a no-op).
/// Zero stretches of the slot stream become run-length counters, non-zero
/// stretches stay literal doubles — decode is bit-exact.
ShardDelta ExtractShardDelta(ModelProgram* model, int pass, int shard,
                             exec::Range chunks);

/// Writes a delta's payload back into the model's slots. Fails on magic,
/// header or length mismatch — a wire-format or accumulator-shape drift —
/// naming the shard, the expected vs. received chunk span, and the byte
/// counts involved.
Status ApplyShardDelta(ModelProgram* model, int pass,
                       const ShardDelta& delta);

/// What RunTraining drives when shards > 1, independent of where the
/// shard scans execute. The in-process backend (ShardedDriver, below)
/// scans every shard on this process's workers; the process backend
/// (ProcessShardCoordinator, core/pipeline/shard_rpc.h) farms spans out
/// to factormld worker processes over sockets and applies the returned
/// ShardDelta bytes through the exact same chunk-ordered merge. Both
/// satisfy the same contract: after RunPass the model's merged state is
/// bit-identical to the unsharded run at the same resolved morsel size.
class ShardPassDriver {
 public:
  virtual ~ShardPassDriver() = default;

  /// Builds the shard plan over the strategy's (already Prepared) morsel
  /// plan; the effective shard count lands in report->shards with one
  /// ShardStat per shard. Called once, before model->Init. The resolved
  /// StrategyOptions carry the shard count.
  virtual Status Init(AccessStrategy* strategy,
                      const StrategyOptions& options,
                      TrainReport* report) = 0;

  /// One sharded full pass: scan (locally or remotely), then apply +
  /// merge all shard deltas in global chunk order.
  virtual Status RunPass(AccessStrategy* strategy, const PipelineContext& ctx,
                         ModelProgram* model, int pass) = 0;

  /// Called once after the iteration loop, with the final objective
  /// available. Backends with external workers verify convergence
  /// agreement and shut the workers down here.
  virtual Status Finish(ModelProgram* model, TrainReport* report) {
    (void)model;
    (void)report;
    return Status::OK();
  }

  virtual const exec::ShardPlan& plan() const = 0;
};

/// The shard plane's in-process backend: drives one RunTraining-style full
/// pass per shard over a strategy's morsel plan and merges the resulting
/// ShardDeltas in shard-id order.
///
/// Execution model — shards time-share the run's compute workers: shard
/// scans run sequentially in shard-id order, each as a span-restricted
/// morsel region (exec::RunMorselSpan) over the strategy's existing
/// per-worker pools and pass-scoped cursors, with chunk ownership taken
/// from the global split. Each shard therefore observes its own IoStats
/// window and busy time (TrainReport::shard_stats), while the union of all
/// shards performs exactly the page-request sequences of the unsharded
/// run — which yields the determinism contract:
///
///   objectives, params and op counts are bit-identical to --shards=1 at
///   the same resolved morsel size for ANY threads x steal x prefetch
///   schedule (slot = global chunk id; merge order = shard-id order =
///   global chunk order), and total page I/O is additionally bit-identical
///   whenever the schedule itself is I/O-deterministic (steal and
///   prefetch off; stealing re-homes chunks into thief pools and prefetch
///   races the crew, so those counters are not schedule-stable even at
///   shards=1).
///
/// A distributed backend replaces only the scan step — each remote shard
/// runs the same span over its own pools and ships its ShardDelta back —
/// and inherits the merge semantics verified here.
class ShardedDriver : public ShardPassDriver, public ShardScanObserver {
 public:
  /// Builds the shard plan over the strategy's (already Prepared) morsel
  /// plan; the effective shard count (= requested, bounded by the chunk
  /// count) lands in report->shards with one ShardStat per shard.
  Status Init(AccessStrategy* strategy, const StrategyOptions& options,
              TrainReport* report) override;

  /// One sharded full pass: arms the strategy's shard plane, scans shard
  /// by shard (OnShardScanned accounts each window and extracts its
  /// delta), then applies the deltas and merges the chunk slots in
  /// shard-id order.
  Status RunPass(AccessStrategy* strategy, const PipelineContext& ctx,
                 ModelProgram* model, int pass) override;

  /// ShardScanObserver: called by the strategy after each shard's span has
  /// been scanned and drained.
  Status OnShardScanned(int shard) override;

  const exec::ShardPlan& plan() const override { return plan_; }

 private:
  exec::ShardPlan plan_;
  TrainReport* report_ = nullptr;
  ModelProgram* model_ = nullptr;
  int pass_ = 0;
  std::vector<ShardDelta> deltas_;
  storage::IoStats io_mark_;
  Stopwatch scan_watch_;
};

}  // namespace factorml::core::pipeline

#endif  // FACTORML_CORE_PIPELINE_SHARDED_DRIVER_H_
