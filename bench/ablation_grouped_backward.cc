// Extension ablation (beyond the paper): Sec. VI-A3 argues the backward
// pass offers no computation reuse because the redundancy lies across the
// *columns* of x^T. Grouping by rid shows there is reuse after all: the
// first-layer gradient's R-slice equals sum_rid (sum of the group's
// deltas) x_r^T, replacing nh*dR work per fact tuple with nh work per
// fact tuple plus nh*dR per R tuple. This bench quantifies the win.

#include <cstdio>

#include "bench_util.h"
#include "common/flags.h"
#include "core/factorml.h"

namespace factorml::bench {
namespace {

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args);
  const int64_t n_r = args.GetInt("nr", 200);
  const int epochs = args.GetIterations("epochs", 2);

  BenchDir dir;
  storage::BufferPool pool(4096);

  std::printf("== Extension ablation: grouped backward accumulation in "
              "F-NN (nR=%lld, dS=5, nh=50, epochs=%d) ==\n\n",
              static_cast<long long>(n_r), epochs);
  std::printf("%6s %6s %12s %12s %10s %10s\n", "rr", "dR", "F-NN(s)",
              "F-NN+grp(s)", "mult F/grp", "drift");
  for (const int64_t rr : {50LL, 200LL}) {
    for (const int64_t d_r : {10LL, 30LL}) {
      data::SyntheticSpec spec;
      spec.dir = dir.str();
      spec.name = "gb_" + std::to_string(rr) + "_" + std::to_string(d_r);
      spec.s_rows = rr * n_r;
      spec.s_feats = 5;
      spec.attrs = {data::AttributeSpec{n_r, static_cast<size_t>(d_r)}};
      spec.with_target = true;
      spec.seed = 4;
      auto rel_or = data::GenerateSynthetic(spec, &pool);
      if (!rel_or.ok()) Die(rel_or.status());

      nn::NnOptions opt;
      opt.hidden = {50};
      opt.epochs = epochs;
      opt.temp_dir = dir.str();

      core::TrainReport base, grouped;
      pool.Clear();
      auto f1 = core::TrainNn(rel_or.value(), opt,
                              core::Algorithm::kFactorized, &pool, &base);
      if (!f1.ok()) Die(f1.status());
      opt.grouped_backward = true;
      pool.Clear();
      auto f2 = core::TrainNn(rel_or.value(), opt,
                              core::Algorithm::kFactorized, &pool, &grouped);
      if (!f2.ok()) Die(f2.status());

      const double drift =
          nn::Mlp::MaxAbsDiffParams(f1.value(), f2.value());
      std::printf("%6lld %6lld %12.3f %12.3f %10.2f %10.2e\n",
                  static_cast<long long>(rr), static_cast<long long>(d_r),
                  base.wall_seconds, grouped.wall_seconds,
                  static_cast<double>(base.ops.mults) /
                      static_cast<double>(grouped.ops.mults),
                  drift);
    }
  }
  std::printf("\nthe gradients are identical (drift ~ fp noise); the "
              "grouped variant saves first-layer backward multiplies on "
              "top of the paper's F-NN.\n");
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
