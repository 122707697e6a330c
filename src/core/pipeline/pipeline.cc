// The orchestration loop of the training pipeline: strategy selection,
// measurement scopes, and the two driving planes (full-pass iterations and
// mini-batch epochs). Every trainer in the system — GMM, NN, linear
// regression, k-means — is a ModelProgram run through this single loop.

#include "core/pipeline/access_strategy.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/pipeline/access_internal.h"
#include "core/pipeline/checkpoint.h"
#include "core/pipeline/shard_rpc.h"
#include "core/pipeline/sharded_driver.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "join/assemble.h"
#include "join/attribute_view.h"

namespace factorml::core::pipeline {

Result<std::unique_ptr<AccessStrategy>> AccessStrategy::Create(
    Algorithm algorithm, const join::NormalizedRelations* rel,
    storage::BufferPool* pool, const StrategyOptions& options,
    bool full_pass) {
  switch (algorithm) {
    case Algorithm::kMaterialized:
      return internal::MakeMaterialized(rel, pool, options, full_pass);
    case Algorithm::kStreaming:
      return internal::MakeStreaming(rel, pool, options, full_pass);
    case Algorithm::kFactorized:
      return internal::MakeFactorized(rel, pool, options, full_pass);
  }
  return Status::InvalidArgument("unknown algorithm");
}

namespace {

/// FNV-1a over the run-shape facts a checkpoint must agree on before its
/// state can be trusted: the label (strategy prefix + model name) plus
/// the dataset's row count and joined dimensionality. A mismatch means
/// the checkpoint belongs to a different run shape — warn, train fresh.
uint64_t CheckpointFingerprint(const std::string& label,
                               const join::NormalizedRelations& rel) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  mix(static_cast<uint64_t>(rel.s.num_rows()));
  mix(static_cast<uint64_t>(rel.total_dims()));
  mix(static_cast<uint64_t>(rel.num_joins()));
  return h;
}

/// One full deterministic training run: strategy creation, shard-plane
/// arming, the iteration loop, the report scope. `shard_driver` selects
/// the shard backend: nullptr = the in-process ShardedDriver when shards
/// are on; a ProcessShardCoordinator drives remote workers; a
/// ShardWorkerDriver makes this process one of those workers. The process
/// backend's restart protocol reruns this whole function — everything in
/// it is a pure function of (on-disk data, resolved options), so a rerun
/// reproduces the run bit-exactly.
Status RunTrainingAttempt(const join::NormalizedRelations& rel,
                          Algorithm algorithm,
                          const StrategyOptions& resolved, bool mini_batch,
                          ModelProgram* model, storage::BufferPool* pool,
                          TrainReport* report,
                          ShardPassDriver* shard_driver) {
  ReportScope scope(report, std::string(1, AlgorithmPrefix(algorithm)) +
                                "-" + model->Name());
  if (report != nullptr) report->threads = resolved.threads;
  // Bind the compute-kernel backend before any worker runs: one process-
  // wide vtable swap (la/kernels.h), plus the strip-decode switch the
  // strategies read from their options. Scalar keeps the seed's exact
  // loops; simd picks the best backend this CPU supports.
  la::SelectKernels(resolved.kernels);

  PipelineContext ctx;
  ctx.rel = &rel;
  ctx.pool = pool;
  ctx.report = report;
  ctx.threads = resolved.threads;
  // F hands the model the S slice and the q attribute tables; M and S
  // hand it the whole joined row.
  const bool factored = algorithm == Algorithm::kFactorized;
  ctx.slice_cols = factored ? rel.ds() : rel.total_dims();
  ctx.factored_tables = factored ? rel.num_joins() : 0;

  FML_ASSIGN_OR_RETURN(
      std::unique_ptr<AccessStrategy> strategy,
      AccessStrategy::Create(algorithm, &rel, pool, resolved,
                             /*full_pass=*/!mini_batch));
  FML_RETURN_IF_ERROR(strategy->Prepare(&ctx, model->TempStem()));
  // The shard plane splits the (now fixed) morsel plan into rid-range
  // shards; every full pass below then runs one scan per shard and merges
  // the ShardDeltas in shard-id order (see sharded_driver.h).
  ShardedDriver sharded;
  const bool use_shards = resolved.shards > 1 && !mini_batch;
  ShardPassDriver* driver = shard_driver;
  if (driver == nullptr && use_shards) driver = &sharded;
  if (driver != nullptr) {
    FML_RETURN_IF_ERROR(driver->Init(strategy.get(), resolved, report));
  }
  FML_RETURN_IF_ERROR(model->Init(ctx));

  // Checkpoint/restore (iteration-boundary granularity). Every node of a
  // process-backend run restores — the lockstep replicas must all start
  // at the same iteration — but only the coordinating process (or the
  // sole process of an unsharded run) ever writes. The op-count delta
  // stored in the checkpoint is recharged on resume so the resumed run's
  // op totals equal the uninterrupted run's.
  const bool ckpt_enabled = !resolved.checkpoint_dir.empty();
  const bool ckpt_writer = ckpt_enabled && resolved.shard_channel == nullptr;
  const int64_t ckpt_every =
      resolved.checkpoint_every > 0 ? resolved.checkpoint_every : 1;
  const std::string ckpt_label =
      std::string(1, AlgorithmPrefix(algorithm)) + "-" + model->Name();
  const uint64_t ckpt_fp =
      ckpt_enabled ? CheckpointFingerprint(ckpt_label, rel) : 0;
  const OpCounters ops_mark = GlobalOps();
  int start_iter = 0;
  bool restored_converged = false;
  if (ckpt_enabled) {
    Result<CheckpointState> loaded =
        ReadCheckpoint(resolved.checkpoint_dir, ckpt_label);
    if (loaded.ok()) {
      const CheckpointState& st = loaded.value();
      size_t want = 0;
      model->VisitIterationState(
          [&want](double*, size_t len) { want += len; });
      if (st.fingerprint != ckpt_fp || want != st.state.size()) {
        FML_LOG(Warning) << "checkpoint " << ckpt_label
                         << " does not match this run (fingerprint/state "
                            "shape drift); training from scratch";
      } else {
        size_t off = 0;
        model->VisitIterationState([&st, &off](double* data, size_t len) {
          std::memcpy(data, st.state.data() + off, len * sizeof(double));
          off += len;
        });
        if (resolved.shard_channel == nullptr) GlobalOps() += st.ops;
        start_iter = static_cast<int>(st.completed_iterations);
        restored_converged = st.converged;
        FML_LOG(Info) << "resumed " << ckpt_label << " from checkpoint at "
                      << start_iter << " completed iteration(s)";
      }
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      FML_LOG(Warning) << "ignoring corrupted checkpoint ("
                       << loaded.status().message()
                       << "); training from scratch";
    }
  }
  const auto maybe_checkpoint = [&](int completed, bool converged) -> Status {
    if (!ckpt_writer) return Status::OK();
    if (!converged && completed % ckpt_every != 0) return Status::OK();
    CheckpointState st;
    st.label = ckpt_label;
    st.fingerprint = ckpt_fp;
    st.completed_iterations = completed;
    st.converged = converged;
    st.ops = GlobalOps() - ops_mark;
    model->VisitIterationState([&st](double* data, size_t len) {
      st.state.insert(st.state.end(), data, data + len);
    });
    return WriteCheckpoint(resolved.checkpoint_dir, st);
  };

  // Run-level observability: iteration spans on the timeline and two
  // always-on counters. The per-pass spans come from the PhaseScope below
  // (every pass name is a "phase" trace span).
  static obs::Counter* iter_count =
      obs::Registry::Instance().GetCounter("pipeline.iterations");
  static obs::Counter* pass_count =
      obs::Registry::Instance().GetCounter("pipeline.passes");

  int iterations = start_iter;
  if (mini_batch) {
    for (int epoch = start_iter;
         !restored_converged && epoch < model->MaxIterations(); ++epoch) {
      {
        obs::TraceSpan iter_span(obs::kCatPipeline, "iteration");
        iter_span.Arg("iter", epoch);
        FML_RETURN_IF_ERROR(strategy->RunEpoch(&ctx, model, epoch));
      }
      iter_count->Add();
      FML_ASSIGN_OR_RETURN(const bool stop, model->EndIteration(ctx, epoch));
      ++iterations;
      FML_RETURN_IF_ERROR(maybe_checkpoint(iterations, stop));
      if (stop) break;
    }
  } else {
    // Peak accumulator-slot footprint, probed on the first executed
    // iteration right after BeginPass sizes the slots (rid-scoped slots
    // make this O(sum of spans x state width) instead of O(chunk count x
    // full table)). Gauges take the run's later value in the report
    // delta, so the Set lands in TrainReport::metrics.
    static obs::Gauge* slot_gauge =
        obs::Registry::Instance().GetGauge("pipeline.slot_bytes");
    double max_slot_bytes = 0.0;
    for (int iter = start_iter;
         !restored_converged && iter < model->MaxIterations(); ++iter) {
      obs::TraceSpan iter_span(obs::kCatPipeline, "iteration");
      iter_span.Arg("iter", iter);
      const int num_passes = model->NumPasses(iter);
      for (int pass = 0; pass < num_passes; ++pass) {
        FML_RETURN_IF_ERROR(strategy->BeginPass(&ctx));
        FML_RETURN_IF_ERROR(
            model->BeginPass(ctx, iter, pass, strategy->NumSlots()));
        if (iter == start_iter) {
          size_t bytes = 0;
          for (int s = 0; s < strategy->NumSlots(); ++s) {
            model->VisitSlotState(pass, s,
                                  [&bytes](double*, double*, size_t len) {
                                    bytes += len * sizeof(double);
                                  });
          }
          max_slot_bytes =
              std::max(max_slot_bytes, static_cast<double>(bytes));
          slot_gauge->Set(max_slot_bytes);
        }
        {
          PhaseScope phase(report, model->PassName(pass));
          if (driver != nullptr) {
            FML_RETURN_IF_ERROR(
                driver->RunPass(strategy.get(), ctx, model, pass));
          } else {
            FML_RETURN_IF_ERROR(strategy->RunPass(ctx, model, pass));
          }
        }
        pass_count->Add();
        FML_RETURN_IF_ERROR(model->EndPass(ctx, iter, pass));
      }
      iter_count->Add();
      FML_ASSIGN_OR_RETURN(const bool stop, model->EndIteration(ctx, iter));
      ++iterations;
      FML_RETURN_IF_ERROR(maybe_checkpoint(iterations, stop));
      if (stop) break;
    }
  }
  // Peak RSS of this process (KB, getrusage), snapshotted before the
  // report delta is taken so it reaches TrainReport::metrics.
  static obs::Gauge* rss_gauge =
      obs::Registry::Instance().GetGauge("process.peak_rss_kb");
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    rss_gauge->Set(static_cast<double>(ru.ru_maxrss));
  }
  scope.Finish(iterations, model->Objective());
  // Backend epilogue after the report is final: the process coordinator
  // verifies bitwise objective agreement with every worker and shuts the
  // crew down; the worker driver reports DONE and waits for BYE.
  if (driver != nullptr) {
    FML_RETURN_IF_ERROR(driver->Finish(model, report));
  }
  return Status::OK();
}

}  // namespace

Status RunTraining(const join::NormalizedRelations& rel, Algorithm algorithm,
                   const StrategyOptions& options, ModelProgram* model,
                   storage::BufferPool* pool, TrainReport* report) {
  FML_RETURN_IF_ERROR(rel.Validate());
  const uint32_t caps = model->Capabilities();
  if ((caps & kNeedsTarget) != 0 && !rel.has_target) {
    return Status::InvalidArgument(std::string(model->Name()) +
                                   " training requires a target column");
  }
  FML_RETURN_IF_ERROR(model->ValidateOptions(rel));
  FML_CHECK((caps & (kFullPass | kMiniBatch)) != 0 &&
            (caps & (kFullPass | kMiniBatch)) != (kFullPass | kMiniBatch))
      << model->Name() << ": exactly one driving plane must be declared";
  const bool mini_batch = (caps & kMiniBatch) != 0;

  StrategyOptions resolved = options;
  resolved.threads = exec::EffectiveThreads(options.threads);
  // The resolved morsel_rows — never the thread count, the steal schedule
  // or the shard count — is what every full-pass result depends on.
  if (resolved.morsel_rows <= 0) {
    resolved.morsel_rows = exec::kDefaultMorselRows;
  }
  if (resolved.prefetch_depth < 1) resolved.prefetch_depth = 1;
  if (resolved.shards < 1) resolved.shards = 1;
  if (resolved.shards > 1 && mini_batch) {
    return Status::InvalidArgument(
        std::string(model->Name()) +
        ": --shards requires the full-pass plane; mini-batch (SGD) "
        "epochs are sequential and train unsharded");
  }
  if (resolved.checkpoint_every < 0) {
    return Status::InvalidArgument(
        "--checkpoint-every=" + std::to_string(resolved.checkpoint_every) +
        " must be >= 1");
  }
  if (resolved.checkpoint_every > 0 && resolved.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every requires --checkpoint-dir");
  }

  // Worker mode: this process IS a shard worker; the coordinator on the
  // other end of shard_channel drives its passes. Single attempt — the
  // restart sentinel propagates to factormld, which reruns with a fresh
  // program.
  if (resolved.shard_channel != nullptr) {
    ShardWorkerDriver worker(resolved.shard_channel);
    return RunTrainingAttempt(rel, algorithm, resolved, mini_batch, model,
                              pool, report, &worker);
  }

  if (resolved.shard_backend == ShardBackend::kProcess && resolved.shards > 1) {
    // The family blob is taken before Init, from the options the program
    // was built with — exactly what a worker rebuilds its replica from.
    const std::string blob = model->ShardJobBlob();
    if (blob.empty()) {
      return Status::InvalidArgument(
          std::string(model->Name()) +
          " does not support --shard-backend=process (no shard job blob)");
    }
    // One coordinator (and worker crew) for all attempts; a restart
    // sentinel reruns the attempt on the surviving workers.
    ProcessShardCoordinator coordinator(resolved, algorithm, &rel, pool,
                                        model->TempStem(), blob);
    constexpr int kMaxAttempts = 3;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      const Status st = RunTrainingAttempt(rel, algorithm, resolved,
                                           mini_batch, model, pool, report,
                                           &coordinator);
      if (!IsShardRestart(st)) return st;
    }
    return Status::Internal(
        "process shard backend: restart budget exhausted");
  }

  return RunTrainingAttempt(rel, algorithm, resolved, mini_batch, model,
                            pool, report, /*shard_driver=*/nullptr);
}

Result<la::Matrix> AssembleJoinedRows(const join::NormalizedRelations& rel,
                                      storage::BufferPool* pool,
                                      const std::vector<int64_t>& rows) {
  std::vector<join::AttributeTableView> views(rel.num_joins());
  for (size_t i = 0; i < rel.num_joins(); ++i) {
    FML_RETURN_IF_ERROR(views[i].Load(rel.attrs[i], pool));
  }
  la::Matrix out(rows.size(), rel.total_dims());
  storage::RowBatch batch;
  for (size_t c = 0; c < rows.size(); ++c) {
    FML_RETURN_IF_ERROR(rel.s.ReadRows(pool, rows[c], 1, &batch));
    join::AssembleJoinedRow(rel, batch, 0, views, out.Row(c).data());
  }
  return out;
}

}  // namespace factorml::core::pipeline
