// Reproduces Figure 3 of the paper: GMM training time over a binary
// PK/FK join, comparing M-GMM / S-GMM / F-GMM while varying
//   (a) the tuple ratio rr = nS / nR   (--part=rr)
//   (b) the attribute-table width dR   (--part=dr)
//   (c) the number of components K     (--part=k)
// plus --part=kernels, the scalar-vs-simd kernel-plane sweep.
// Defaults are scaled down from the paper's nS = 10^6 / nR = 1000 so the
// full sweep runs in minutes; pass --scale_rows to change. The shape of
// the comparison (who wins and how the gap grows) is scale-invariant.

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
  spec.name = "fig3_" + std::to_string(n_s) + "_" + std::to_string(d_r);
  spec.s_rows = n_s;
  spec.s_feats = d_s;
  spec.attrs = {data::AttributeSpec{n_r, d_r}};
  spec.seed = 42;
  auto rel = data::GenerateSynthetic(spec, pool);
  if (!rel.ok()) Die(rel.status());
  return std::move(rel).value();
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args, "fig3_gmm_binary");
  JsonReport json("fig3_gmm_binary", args);
  const std::string part = args.GetString("part", "all");
  const int64_t n_r = args.GetInt("nr", 200);
  const size_t d_s = static_cast<size_t>(args.GetPositiveInt("ds", 5));
  const int iters = args.GetIterations("iters", 2);
  const double row_scale = args.GetDouble("scale_rows", 1.0);

  BenchDir dir;
  storage::BufferPool pool(4096);
  gmm::GmmOptions opt;
  opt.max_iters = iters;
  opt.temp_dir = dir.str();

  std::printf("== Figure 3: GMM over a binary join (nR=%lld, dS=%zu, "
              "iters=%d) ==\n",
              static_cast<long long>(n_r), d_s, iters);

  if (part == "rr" || part == "all") {
    for (const size_t d_r : {size_t{5}, size_t{15}}) {
      std::printf("\n-- Fig 3(a): varying rr (dR=%zu, K=5) --\n", d_r);
      PrintTrioHeader("rr");
      for (const int64_t rr : args.GetIntList("rr", {20, 50, 100, 200})) {
        const int64_t n_s =
            static_cast<int64_t>(rr * n_r * row_scale);
        auto rel = Generate(dir.str(), n_s, n_r, d_s, d_r, &pool);
        opt.num_components = 5;
        EmitTrioRow(&json, "fig3a_rr_dr" + std::to_string(d_r),
                    std::to_string(rr), RunGmmAll(rel, opt, &pool));
      }
    }
  }

  if (part == "dr" || part == "all") {
    for (const int64_t rr : {int64_t{50}, int64_t{200}}) {
      std::printf("\n-- Fig 3(b): varying dR (rr=%lld, K=5) --\n",
                  static_cast<long long>(rr));
      PrintTrioHeader("dR");
      for (const int64_t d_r : args.GetIntList("dr", {5, 10, 15, 25, 40})) {
        const int64_t n_s = static_cast<int64_t>(rr * n_r * row_scale);
        auto rel = Generate(dir.str(), n_s, n_r, d_s,
                            static_cast<size_t>(d_r), &pool);
        opt.num_components = 5;
        EmitTrioRow(&json, "fig3b_dr_rr" + std::to_string(rr),
                    std::to_string(d_r), RunGmmAll(rel, opt, &pool));
      }
    }
  }

  if (part == "k" || part == "all") {
    std::printf("\n-- Fig 3(c): varying K (rr=100, dR=15) --\n");
    PrintTrioHeader("K");
    const int64_t n_s = static_cast<int64_t>(100 * n_r * row_scale);
    auto rel = Generate(dir.str(), n_s, n_r, d_s, 15, &pool);
    for (const int64_t k : args.GetIntList("k", {2, 4, 6, 8})) {
      opt.num_components = static_cast<size_t>(k);
      EmitTrioRow(&json, "fig3c_k", std::to_string(k),
                  RunGmmAll(rel, opt, &pool));
    }
  }

  if (part == "kernels") {
    // Scalar-vs-simd kernel-plane sweep (the BENCH_gmm_kernels.json CI
    // artifact): the same M/S/F runs under both --kernels backends, with
    // the per-phase wall timings in the JSON rows. The vector table's
    // speedup lives in e_step (quadform_strip, posterior_strip) and
    // m_step_cov (the weighted syrk_strip).
    std::printf("\n-- kernel plane: --kernels=scalar vs simd "
                "(rr=100, dR=15, K=5) --\n");
    const int64_t n_s = static_cast<int64_t>(100 * n_r * row_scale);
    auto rel = Generate(dir.str(), n_s, n_r, d_s, 15, &pool);
    opt.num_components = 5;
    Trio trios[2];
    for (int simd = 0; simd < 2; ++simd) {
      opt.kernels = simd == 1 ? la::KernelMode::kSimd
                              : la::KernelMode::kScalar;
      PrintTrioHeader(simd == 1 ? "simd" : "scalar");
      trios[simd] = RunGmmAll(rel, opt, &pool);
      EmitTrioRow(&json, "fig3_kernels", simd == 1 ? "simd" : "scalar",
                  trios[simd]);
    }
    // Per strategy: each kernel phase's scalar time over its simd time.
    const auto phase = [](const core::TrainReport& r, const char* name) {
      double s = 0.0;
      for (const auto& p : r.phases) {
        if (p.name == name) s += p.seconds;
      }
      return s;
    };
    const core::TrainReport* scalar_reports[] = {&trios[0].m, &trios[0].s,
                                                 &trios[0].f};
    const core::TrainReport* simd_reports[] = {&trios[1].m, &trios[1].s,
                                               &trios[1].f};
    for (const char* name : {"e_step", "m_step_cov"}) {
      std::printf("\n%s speedup (%s):", name, la::SimdBackendName());
      for (int i = 0; i < 3; ++i) {
        const double sc = phase(*scalar_reports[i], name);
        const double si = phase(*simd_reports[i], name);
        std::printf(" %s=%.2fx", scalar_reports[i]->algorithm.c_str(),
                    si > 0 ? sc / si : 0.0);
      }
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
