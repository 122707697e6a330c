// M/S/F comparison for the two model families added on top of
// core/pipeline: closed-form ridge linear regression (factorized
// Gram/cofactor accumulation) and Lloyd's k-means (block-separable
// distance caches). The sweep mirrors Fig. 3's tuple-ratio axis: the
// factorized saving grows with rr = nS / nR, exactly as the paper's
// analysis predicts for GMM/NN — evidence that the strategies really are
// orthogonal to the model. A last section trains linreg and logreg over a
// two-way join (a second attribute table of nR/10 tuples x 10 features, at
// the first rr) under both --kernels modes: F's attr x attr cross block.
//
// Flags: --nr, --ds, --dr, --rr=20,50,... --k, --iters, --threads,
//        --json=PATH (record every TrainReport as JSON).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "core/factorml.h"

namespace factorml::bench {
namespace {

join::NormalizedRelations Generate(
    const std::string& dir, int64_t n_s,
    const std::vector<data::AttributeSpec>& attrs, size_t d_s, bool target,
    storage::BufferPool* pool) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.name = "lk_" + std::to_string(n_s) + "_" +
              std::to_string(attrs.size()) + (target ? "_t" : "_c");
  spec.s_rows = n_s;
  spec.s_feats = d_s;
  spec.attrs = attrs;
  spec.with_target = target;
  spec.clusters = 4;
  spec.seed = 42;
  auto rel = data::GenerateSynthetic(spec, pool);
  if (!rel.ok()) Die(rel.status());
  return std::move(rel).value();
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args);
  JsonReport json("linreg_kmeans", args);
  const int64_t n_r = args.GetInt("nr", 200);
  const size_t d_s = static_cast<size_t>(args.GetPositiveInt("ds", 5));
  const size_t d_r = static_cast<size_t>(args.GetPositiveInt("dr", 15));
  const double row_scale = args.GetDouble("scale_rows", 1.0);

  BenchDir dir;
  storage::BufferPool pool(4096);

  std::printf("== New model families over a binary join (nR=%lld, dS=%zu, "
              "dR=%zu) ==\n",
              static_cast<long long>(n_r), d_s, d_r);

  std::printf("\n-- ridge linear regression: varying rr --\n");
  PrintTrioHeader("rr");
  linreg::LinregOptions lopt;
  lopt.temp_dir = dir.str();
  for (const int64_t rr : args.GetIntList("rr", {20, 50, 100, 200})) {
    const int64_t n_s = static_cast<int64_t>(rr * n_r * row_scale);
    auto rel = Generate(dir.str(), n_s, {{n_r, d_r}}, d_s, /*target=*/true,
                        &pool);
    const Trio t = RunAllStrategies(rel, lopt, &pool, &core::TrainLinreg,
                                    &linreg::LinregModel::MaxAbsDiff);
    EmitTrioRow(&json, "linreg_rr", std::to_string(rr), t);
  }

  kmeans::KmeansOptions kopt;
  kopt.num_clusters = static_cast<size_t>(args.GetPositiveInt("k", 5));
  kopt.max_iters = args.GetIterations("iters", 5);
  kopt.temp_dir = dir.str();
  std::printf("\n-- k-means: varying rr (K=%zu, iters=%d) --\n",
              kopt.num_clusters, kopt.max_iters);
  PrintTrioHeader("rr");
  for (const int64_t rr : args.GetIntList("rr", {20, 50, 100, 200})) {
    const int64_t n_s = static_cast<int64_t>(rr * n_r * row_scale);
    auto rel = Generate(dir.str(), n_s, {{n_r, d_r}}, d_s, /*target=*/false,
                        &pool);
    const Trio t = RunAllStrategies(rel, kopt, &pool, &core::TrainKmeans,
                                    &kmeans::KmeansModel::MaxAbsDiff);
    EmitTrioRow(&json, "kmeans_rr", std::to_string(rr), t);
  }

  const int64_t rr2 = args.GetIntList("rr", {20, 50, 100, 200}).front();
  const int64_t n_r2 = std::max<int64_t>(n_r / 10, 1);
  auto rel2 = Generate(dir.str(), static_cast<int64_t>(rr2 * n_r * row_scale),
                       {{n_r, d_r}, {n_r2, 10}}, d_s, /*target=*/true, &pool);
  // The synthetic target is continuous: later IRLS iterations of the
  // soft-label fit amplify summation-order differences past the M/F gate.
  logreg::LogregOptions gopt;
  gopt.temp_dir = dir.str();
  gopt.max_iters = 2;
  for (const bool logistic : {false, true}) {
    std::printf("\n-- %s over two joins (rr=%lld, nR2=%lld, dR2=10): "
                "--kernels=scalar vs simd --\n",
                logistic ? "logreg (2 IRLS iterations)" : "linreg",
                static_cast<long long>(rr2), static_cast<long long>(n_r2));
    PrintTrioHeader("kernels");
    for (const auto mode : {la::KernelMode::kScalar, la::KernelMode::kSimd}) {
      lopt.kernels = gopt.kernels = mode;
      const Trio t =
          logistic ? RunAllStrategies(rel2, gopt, &pool, &core::TrainLogreg,
                                      &logreg::LogregModel::MaxAbsDiff)
                   : RunAllStrategies(rel2, lopt, &pool, &core::TrainLinreg,
                                      &linreg::LinregModel::MaxAbsDiff);
      EmitTrioRow(&json, logistic ? "logreg_2join" : "linreg_2join",
                  la::KernelModeName(mode), t);
    }
  }
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
