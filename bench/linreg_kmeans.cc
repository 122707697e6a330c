// M/S/F comparison for the two model families added on top of
// core/pipeline: closed-form ridge linear regression (factorized
// Gram/cofactor accumulation) and Lloyd's k-means (block-separable
// distance caches). The sweep mirrors Fig. 3's tuple-ratio axis: the
// factorized saving grows with rr = nS / nR, exactly as the paper's
// analysis predicts for GMM/NN — evidence that the strategies really are
// orthogonal to the model.
//
// Flags: --nr, --ds, --dr, --rr=20,50,... --k, --iters, --threads,
//        --json=PATH (record every TrainReport as JSON).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/flags.h"
#include "core/factorml.h"

namespace factorml::bench {
namespace {

join::NormalizedRelations Generate(const std::string& dir, int64_t n_s,
                                   int64_t n_r, size_t d_s, size_t d_r,
                                   bool target, storage::BufferPool* pool) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.name = "lk_" + std::to_string(n_s) + (target ? "_t" : "_c");
  spec.s_rows = n_s;
  spec.s_feats = d_s;
  spec.attrs = {data::AttributeSpec{n_r, d_r}};
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
    auto rel = Generate(dir.str(), n_s, n_r, d_s, d_r, /*target=*/true,
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
    auto rel = Generate(dir.str(), n_s, n_r, d_s, d_r, /*target=*/false,
                        &pool);
    const Trio t = RunAllStrategies(rel, kopt, &pool, &core::TrainKmeans,
                                    &kmeans::KmeansModel::MaxAbsDiff);
    EmitTrioRow(&json, "kmeans_rr", std::to_string(rr), t);
  }
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
