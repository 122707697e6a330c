// Reproduces Figure 6 of the paper: NN training over a 3-way join
// (S |><| R1 |><| R2), varying rr = nS/nR1 (--part=rr), dR1 (--part=dr1)
// and the number of hidden units nh (--part=nh).

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
  spec.name = "fig6_" + std::to_string(n_s) + "_" + std::to_string(d_r1);
  spec.s_rows = n_s;
  spec.s_feats = 5;
  spec.attrs = {data::AttributeSpec{n_r1, d_r1},
                data::AttributeSpec{n_r2, d_r2}};
  spec.with_target = true;
  spec.seed = 42;
  auto rel = data::GenerateSynthetic(spec, pool);
  if (!rel.ok()) Die(rel.status());
  return std::move(rel).value();
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args);
  JsonReport json("fig6_nn_multiway", args);
  const std::string part = args.GetString("part", "all");
  const int64_t n_r1 = args.GetInt("nr1", 200);
  const int64_t n_r2 = args.GetInt("nr2", 200);
  const size_t d_r2 = static_cast<size_t>(args.GetPositiveInt("dr2", 5));
  const int epochs = args.GetIterations("epochs", 2);

  BenchDir dir;
  storage::BufferPool pool(4096);
  nn::NnOptions opt;
  opt.epochs = epochs;
  opt.temp_dir = dir.str();

  std::printf("== Figure 6: NN over a 3-way join (nR1=%lld, nR2=%lld, "
              "dS=5, dR2=%zu, epochs=%d) ==\n",
              static_cast<long long>(n_r1), static_cast<long long>(n_r2),
              d_r2, epochs);

  if (part == "rr" || part == "all") {
    std::printf("\n-- Fig 6(a): varying rr = nS/nR1 (dR1=10, nh=50) --\n");
    PrintTrioHeader("rr");
    for (const int64_t rr : args.GetIntList("rr", {20, 50, 100, 200})) {
      auto rel =
          Generate(dir.str(), rr * n_r1, n_r1, 10, n_r2, d_r2, &pool);
      opt.hidden = {50};
      EmitTrioRow(&json, "fig6a_rr", std::to_string(rr),
                  RunNnAll(rel, opt, &pool));
    }
  }

  if (part == "dr1" || part == "all") {
    std::printf("\n-- Fig 6(b): varying dR1 (rr=100, nh=50) --\n");
    PrintTrioHeader("dR1");
    for (const int64_t d_r1 : args.GetIntList("dr1", {5, 10, 20, 30})) {
      auto rel = Generate(dir.str(), 100 * n_r1, n_r1,
                          static_cast<size_t>(d_r1), n_r2, d_r2, &pool);
      opt.hidden = {50};
      EmitTrioRow(&json, "fig6b_dr1", std::to_string(d_r1),
                  RunNnAll(rel, opt, &pool));
    }
  }

  if (part == "nh" || part == "all") {
    std::printf("\n-- Fig 6(c): varying nh (rr=100, dR1=10) --\n");
    PrintTrioHeader("nh");
    auto rel = Generate(dir.str(), 100 * n_r1, n_r1, 10, n_r2, d_r2, &pool);
    for (const int64_t nh : args.GetIntList("nh", {10, 25, 50, 100})) {
      opt.hidden = {static_cast<size_t>(nh)};
      EmitTrioRow(&json, "fig6c_nh", std::to_string(nh),
                  RunNnAll(rel, opt, &pool));
    }
  }
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
