// Reproduces Figure 4 of the paper: GMM training over a multi-way join
// (S |><| R1 |><| R2, the Movies-3way style workload with synthetic tuples
// injected into R1), varying the tuple ratio rr = nS/nR1 (--part=rr), the
// width dR1 of the grown attribute table (--part=dr1), and the number of
// mixture components K (--part=k).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/flags.h"
#include "core/factorml.h"

namespace factorml::bench {
namespace {

join::NormalizedRelations Generate(const std::string& dir, int64_t n_s,
                                   int64_t n_r1, size_t d_r1, int64_t n_r2,
                                   size_t d_r2, storage::BufferPool* pool) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.name = "fig4_" + std::to_string(n_s) + "_" + std::to_string(d_r1);
  spec.s_rows = n_s;
  spec.s_feats = 5;
  spec.attrs = {data::AttributeSpec{n_r1, d_r1},
                data::AttributeSpec{n_r2, d_r2}};
  spec.seed = 42;
  auto rel = data::GenerateSynthetic(spec, pool);
  if (!rel.ok()) Die(rel.status());
  return std::move(rel).value();
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args);
  JsonReport json("fig4_gmm_multiway", args);
  const std::string part = args.GetString("part", "all");
  const int64_t n_r1 = args.GetInt("nr1", 200);
  const int64_t n_r2 = args.GetInt("nr2", 200);
  const size_t d_r2 = static_cast<size_t>(args.GetPositiveInt("dr2", 5));
  const int iters = args.GetIterations("iters", 2);

  BenchDir dir;
  storage::BufferPool pool(4096);
  gmm::GmmOptions opt;
  opt.max_iters = iters;
  opt.temp_dir = dir.str();

  std::printf("== Figure 4: GMM over a 3-way join (nR1=%lld, nR2=%lld, "
              "dS=5, dR2=%zu, iters=%d) ==\n",
              static_cast<long long>(n_r1), static_cast<long long>(n_r2),
              d_r2, iters);

  if (part == "rr" || part == "all") {
    std::printf("\n-- Fig 4(a): varying rr = nS/nR1 (dR1=10, K=5) --\n");
    PrintTrioHeader("rr");
    for (const int64_t rr : args.GetIntList("rr", {20, 50, 100, 200})) {
      auto rel =
          Generate(dir.str(), rr * n_r1, n_r1, 10, n_r2, d_r2, &pool);
      opt.num_components = 5;
      EmitTrioRow(&json, "fig4a_rr", std::to_string(rr),
                  RunGmmAll(rel, opt, &pool));
    }
  }

  if (part == "dr1" || part == "all") {
    std::printf("\n-- Fig 4(b): varying dR1 (rr=100, K=5) --\n");
    PrintTrioHeader("dR1");
    for (const int64_t d_r1 : args.GetIntList("dr1", {5, 10, 20, 30})) {
      auto rel = Generate(dir.str(), 100 * n_r1, n_r1,
                          static_cast<size_t>(d_r1), n_r2, d_r2, &pool);
      opt.num_components = 5;
      EmitTrioRow(&json, "fig4b_dr1", std::to_string(d_r1),
                  RunGmmAll(rel, opt, &pool));
    }
  }

  if (part == "k" || part == "all") {
    std::printf("\n-- Fig 4(c): varying K (rr=100, dR1=10) --\n");
    PrintTrioHeader("K");
    auto rel = Generate(dir.str(), 100 * n_r1, n_r1, 10, n_r2, d_r2, &pool);
    for (const int64_t k : args.GetIntList("k", {2, 4, 6, 8})) {
      opt.num_components = static_cast<size_t>(k);
      EmitTrioRow(&json, "fig4c_k", std::to_string(k),
                  RunGmmAll(rel, opt, &pool));
    }
  }
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
