// Work-stealing on Zipf-skewed FK1 runs.
//
// The chunk plan pre-assigns each worker a contiguous block of chunks, but
// on skewed data a handful of giant runs make some blocks far heavier than
// others and the remaining workers go idle. With --steal=on idle workers
// drain the backlog of the loaded ones. Because every chunk owns its
// accumulator slot and the reduction merges in chunk order, a --threads=1
// reference run, steal-off and steal-on produce bit-identical objectives
// and op counts — this bench asserts that (exit 1 on any difference, so a
// --threads=N run fails on any thread dependence) while measuring what
// stealing buys: the per-worker busy-time spread (the load-balance
// evidence; wall-clock speedup additionally needs multi-core hardware).
//
//   bench_skew_stealing [--threads=4] [--s-rows=60000] [--r-rows=300]
//                       [--morsel-rows=1024] [--zipf10=0,10,16]
//                       [--iters=3] [--json=PATH]
// (--zipf10 lists Zipf exponents in tenths; 0 = the uniform baseline. A
// single-giant-run dataset is always appended as the worst case.)

#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"

namespace factorml::bench {
namespace {

struct BusySpread {
  double min_s = 0.0, max_s = 0.0, spread = 0.0;  // spread = 1 - min/max
};

BusySpread Spread(const core::TrainReport& r) {
  BusySpread s;
  std::tie(s.min_s, s.max_s) = r.BusyRange();
  s.spread = s.max_s > 0.0 ? 1.0 - s.min_s / s.max_s : 0.0;
  return s;
}

// This bench's --morsel-rows and --threads defaults (the engine's are
// 4,096 and 1). The run manifest records them when the flags are unset.
constexpr int64_t kMorselRows = 1024;
constexpr int kThreads = 4;

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args, "skew_stealing", kMorselRows, kThreads);
  const int threads = args.GetThreads(kThreads);
  const int64_t s_rows = args.GetInt("s-rows", 60000);
  const int64_t r_rows = args.GetInt("r-rows", 300);
  const int64_t morsel_rows = args.GetMorselRows(kMorselRows);
  const int iters = args.GetIterations("iters", 3);
  std::vector<int64_t> zipf_tenths = args.GetIntList("zipf10", {0, 10, 16});
  JsonReport json("skew_stealing", args, kMorselRows, kThreads);

  std::printf(
      "k-means (factorized) on %lld fact rows over %lld FK1 runs, "
      "threads=%d, morsel-rows=%lld\n",
      static_cast<long long>(s_rows), static_cast<long long>(r_rows), threads,
      static_cast<long long>(morsel_rows));
  std::printf("%-12s %-9s %10s %10s %10s %9s %8s\n", "runs", "steal",
              "wall(s)", "busy_min", "busy_max", "spread", "steals");

  // Zipf sweep plus the single-giant-run worst case.
  std::vector<std::pair<std::string, data::SyntheticSpec>> datasets;
  for (const int64_t z10 : zipf_tenths) {
    data::SyntheticSpec spec;
    spec.s_rows = s_rows;
    spec.s_feats = 4;
    spec.attrs = {data::AttributeSpec{r_rows, 4}};
    if (z10 == 0) {
      spec.run_dist = data::RunDist::kUniform;
      datasets.emplace_back("uniform", spec);
    } else {
      spec.run_dist = data::RunDist::kZipf;
      spec.zipf_s = static_cast<double>(z10) / 10.0;
      datasets.emplace_back("zipf_" + std::to_string(z10 / 10) + "." +
                                std::to_string(z10 % 10),
                            spec);
    }
  }
  {
    data::SyntheticSpec spec;
    spec.s_rows = s_rows;
    spec.s_feats = 4;
    spec.attrs = {data::AttributeSpec{r_rows, 4}};
    spec.run_dist = data::RunDist::kSingleGiant;
    datasets.emplace_back("single_giant", spec);
  }

  for (auto& [name, spec] : datasets) {
    BenchDir dir;
    spec.dir = dir.str();
    storage::BufferPool pool(4096);
    auto rel_or = data::GenerateSynthetic(spec, &pool);
    if (!rel_or.ok()) Die(rel_or.status());
    const auto rel = std::move(rel_or).value();

    kmeans::KmeansOptions opt;
    opt.num_clusters = 5;
    opt.max_iters = iters;
    opt.temp_dir = dir.str();
    opt.morsel_rows = morsel_rows;

    // Row 0 is the single-thread reference the threads=N runs must match.
    const struct {
      const char* label;
      const char* key;  // JSON row name
      int threads;
      bool steal;
    } runs[] = {{"t1_ref", "threads_1", 1, false},
                {"off", "steal_off", threads, false},
                {"on", "steal_on", threads, true}};
    core::TrainReport reports[3];
    for (int i = 0; i < 3; ++i) {
      opt.threads = runs[i].threads;
      opt.steal = runs[i].steal;
      pool.Clear();
      auto m = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                 &pool, &reports[i]);
      if (!m.ok()) Die(m.status());
      const core::TrainReport& r = reports[i];
      const BusySpread s = Spread(r);
      std::printf("%-12s %-9s %10.3f %10.4f %10.4f %8.1f%% %8llu\n",
                  name.c_str(), runs[i].label, r.wall_seconds, s.min_s,
                  s.max_s, 100.0 * s.spread,
                  static_cast<unsigned long long>(r.steals));
      json.Add(name, runs[i].key, r);
    }
    // The determinism contract, asserted where it matters most: heavy
    // skew, live stealing — identical bits or the bench fails.
    for (int i = 1; i < 3; ++i) {
      const core::TrainReport& a = reports[0];
      const core::TrainReport& b = reports[i];
      if (a.final_objective != b.final_objective ||
          a.ops.mults != b.ops.mults || a.ops.adds != b.ops.adds ||
          a.ops.subs != b.ops.subs || a.ops.exps != b.ops.exps) {
        std::fprintf(stderr,
                     "PARITY VIOLATION on %s: threads=%d steal=%s differs "
                     "from threads=1 (objective %a vs %a)\n",
                     name.c_str(), threads, runs[i].label,
                     b.final_objective, a.final_objective);
        return 1;
      }
    }
  }
  std::printf(
      "threads=1 == steal-off == steal-on verified bit-identical "
      "(objective + op counts) on every dataset\n");
  std::printf(
      "note: on a single hardware core the OS serializes workers, so busy "
      "spread reflects wake-up order (late workers find the queue already "
      "drained); balance and wall-clock gains need multi-core hardware\n");
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
