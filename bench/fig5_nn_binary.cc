// Reproduces Figure 5 of the paper: NN training time over a binary PK/FK
// join, comparing M-NN / S-NN / F-NN while varying
//   (a) the tuple ratio rr = nS / nR       (--part=rr)
//   (b) the attribute-table width dR       (--part=dr)
//   (c) the number of hidden units nh      (--part=nh)
// Single hidden layer, sigmoid activation, fixed epochs — the paper's
// setup (10 epochs there; 2 by default here, change with --epochs).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/flags.h"
#include "core/factorml.h"

namespace factorml::bench {
namespace {

join::NormalizedRelations Generate(const std::string& dir, int64_t n_s,
                                   int64_t n_r, size_t d_s, size_t d_r,
                                   storage::BufferPool* pool) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.name = "fig5_" + std::to_string(n_s) + "_" + std::to_string(d_r);
  spec.s_rows = n_s;
  spec.s_feats = d_s;
  spec.attrs = {data::AttributeSpec{n_r, d_r}};
  spec.with_target = true;
  spec.seed = 42;
  auto rel = data::GenerateSynthetic(spec, pool);
  if (!rel.ok()) Die(rel.status());
  return std::move(rel).value();
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args, "fig5_nn_binary");
  JsonReport json("fig5_nn_binary", args);
  const std::string part = args.GetString("part", "all");
  const int64_t n_r = args.GetInt("nr", 200);
  const size_t d_s = static_cast<size_t>(args.GetPositiveInt("ds", 5));
  const int epochs = args.GetIterations("epochs", 2);

  BenchDir dir;
  storage::BufferPool pool(4096);
  nn::NnOptions opt;
  opt.epochs = epochs;
  opt.temp_dir = dir.str();

  std::printf("== Figure 5: NN over a binary join (nR=%lld, dS=%zu, "
              "epochs=%d, sigmoid) ==\n",
              static_cast<long long>(n_r), d_s, epochs);

  if (part == "rr" || part == "all") {
    for (const size_t d_r : {size_t{5}, size_t{15}}) {
      std::printf("\n-- Fig 5(a): varying rr (dR=%zu, nh=50) --\n", d_r);
      PrintTrioHeader("rr");
      for (const int64_t rr : args.GetIntList("rr", {20, 50, 100, 200})) {
        auto rel = Generate(dir.str(), rr * n_r, n_r, d_s, d_r, &pool);
        opt.hidden = {50};
        EmitTrioRow(&json, "fig5a_rr", std::to_string(rr),
                    RunNnAll(rel, opt, &pool));
      }
    }
  }

  if (part == "dr" || part == "all") {
    for (const int64_t rr : {int64_t{50}, int64_t{200}}) {
      std::printf("\n-- Fig 5(b): varying dR (rr=%lld, nh=50) --\n",
                  static_cast<long long>(rr));
      PrintTrioHeader("dR");
      for (const int64_t d_r : args.GetIntList("dr", {5, 10, 15, 25, 40})) {
        auto rel = Generate(dir.str(), rr * n_r, n_r, d_s,
                            static_cast<size_t>(d_r), &pool);
        opt.hidden = {50};
        EmitTrioRow(&json, "fig5b_dr", std::to_string(d_r),
                    RunNnAll(rel, opt, &pool));
      }
    }
  }

  if (part == "nh" || part == "all") {
    std::printf("\n-- Fig 5(c): varying nh (rr=100, dR=15) --\n");
    PrintTrioHeader("nh");
    auto rel = Generate(dir.str(), 100 * n_r, n_r, d_s, 15, &pool);
    for (const int64_t nh : args.GetIntList("nh", {10, 25, 50, 100})) {
      opt.hidden = {static_cast<size_t>(nh)};
      EmitTrioRow(&json, "fig5c_nh", std::to_string(nh),
                  RunNnAll(rel, opt, &pool));
    }
  }

  if (part == "kernels") {
    // Scalar-vs-simd kernel-plane sweep (the BENCH_nn_kernels.json CI
    // artifact): same M/S/F runs under both --kernels backends, with the
    // per-phase wall timings in the JSON rows. The vector-table speedup
    // lives in the first_layer_fwd and w1_grad phases — the batch matrix
    // products both modes run through gemm_strip.
    std::printf("\n-- kernel plane: --kernels=scalar vs simd "
                "(rr=100, dR=15, nh=50) --\n");
    auto rel = Generate(dir.str(), 100 * n_r, n_r, d_s, 15, &pool);
    opt.hidden = {50};
    Trio trios[2];
    for (int simd = 0; simd < 2; ++simd) {
      opt.kernels = simd == 1 ? la::KernelMode::kSimd
                              : la::KernelMode::kScalar;
      PrintTrioHeader(simd == 1 ? "simd" : "scalar");
      trios[simd] = RunNnAll(rel, opt, &pool);
      EmitTrioRow(&json, "fig5_kernels", simd == 1 ? "simd" : "scalar",
                  trios[simd]);
    }
    // Forward/backward strip-path speedup per strategy: the sum of the
    // two gemm-shaped phases under scalar over the same sum under simd.
    const auto phase_sum = [](const core::TrainReport& r) {
      double s = 0.0;
      for (const auto& p : r.phases) {
        if (p.name == "first_layer_fwd" || p.name == "w1_grad") {
          s += p.seconds;
        }
      }
      return s;
    };
    const core::TrainReport* scalar_reports[] = {&trios[0].m, &trios[0].s,
                                                 &trios[0].f};
    const core::TrainReport* simd_reports[] = {&trios[1].m, &trios[1].s,
                                               &trios[1].f};
    std::printf("\nfwd+bwd strip speedup (%s):", la::SimdBackendName());
    for (int i = 0; i < 3; ++i) {
      const double sc = phase_sum(*scalar_reports[i]);
      const double si = phase_sum(*simd_reports[i]);
      std::printf(" %s=%.2fx", scalar_reports[i]->algorithm.c_str(),
                  si > 0 ? sc / si : 0.0);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
