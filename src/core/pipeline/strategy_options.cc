#include "core/pipeline/strategy_options.h"

#include "common/flags.h"

namespace factorml::core::pipeline {

StrategyOptions StrategyOptionsFromArgs(const ArgParser& args,
                                        const StrategyOptions& defaults) {
  StrategyOptions o = defaults;
  o.batch_rows = static_cast<size_t>(args.GetPositiveInt(
      "batch", static_cast<int64_t>(defaults.batch_rows)));
  o.threads = args.Has("threads") ? args.GetThreads() : defaults.threads;
  o.morsel_rows = args.GetMorselRows(defaults.morsel_rows);
  o.steal = args.GetSteal(defaults.steal);
  o.prefetch = args.GetPrefetch(defaults.prefetch);
  o.prefetch_depth = args.GetPrefetchDepth(defaults.prefetch_depth);
  o.shards = args.GetShards(defaults.shards);
  o.kernels =
      args.GetKernels(la::KernelModeName(defaults.kernels)) == "simd"
          ? la::KernelMode::kSimd
          : la::KernelMode::kScalar;
  o.checkpoint_dir = args.GetCheckpointDir(defaults.checkpoint_dir);
  o.checkpoint_every = args.GetCheckpointEvery(defaults.checkpoint_every);
  return o;
}

}  // namespace factorml::core::pipeline
