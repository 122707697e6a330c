// Rid-range shard scaling with the bit-identical shard-merge contract.
//
// The shard plane splits every full pass into contiguous chunk spans, runs
// one scan per shard (own IoStats window and busy time), round-trips each
// shard's accumulator slots through serialized ShardDelta bytes — the
// seam a distributed backend would put on the wire — and merges the
// deltas in shard-id order. Because slot = global chunk id and the merge
// replays the unsharded chunk-order reduction, objectives, params and op
// counts are bit-identical across shard counts, and with steal/prefetch
// off the in-process backend's time-shared worker pools make total page
// I/O identical too. This bench sweeps the shard count, reports what each
// shard paid (scan wall time, physical reads, delta wire bytes are fixed
// by the model) and fails on any parity violation — the self-check the
// CI trajectory records as BENCH_shard_scaling.json.
//
//   bench_shard_scaling [--threads=4] [--s-rows=60000] [--r-rows=300]
//                       [--morsel-rows=1024] [--shards-list=1,2,4]
//                       [--iters=3] [--algo=m|f|all] [--json=PATH]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"

namespace factorml::bench {
namespace {

/// Bit-pattern equality: the contract is "identical bits", which a plain
/// != on doubles cannot check when a run legitimately diverges to NaN
/// (NaN != NaN would report a spurious violation on matching runs).
bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// This bench's --morsel-rows and --threads defaults (the engine's are
// 4,096 and 1). The run manifest records them when the flags are unset.
constexpr int64_t kMorselRows = 1024;
constexpr int kThreads = 4;

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args, "shard_scaling", kMorselRows, kThreads);
  const int threads = args.GetThreads(kThreads);
  const int64_t s_rows = args.GetInt("s-rows", 60000);
  const int64_t r_rows = args.GetInt("r-rows", 300);
  const int64_t morsel_rows = args.GetMorselRows(kMorselRows);
  const int iters = args.GetIterations("iters", 3);
  const std::vector<int64_t> shard_counts =
      args.GetIntList("shards-list", {1, 2, 4});
  JsonReport json("shard_scaling", args, kMorselRows, kThreads);

  BenchDir dir;
  data::SyntheticSpec spec;
  spec.dir = dir.str();
  spec.s_rows = s_rows;
  spec.s_feats = 4;
  spec.attrs = {data::AttributeSpec{r_rows, 4}};
  storage::BufferPool pool(4096);
  auto rel_or = data::GenerateSynthetic(spec, &pool);
  if (!rel_or.ok()) Die(rel_or.status());
  const auto rel = std::move(rel_or).value();

  std::vector<core::Algorithm> algos;
  const std::string algo_spec = args.GetString("algo", "all");
  if (algo_spec == "m" || algo_spec == "all") {
    algos.push_back(core::Algorithm::kMaterialized);
  }
  if (algo_spec == "f" || algo_spec == "all") {
    algos.push_back(core::Algorithm::kFactorized);
  }
  if (algos.empty()) {
    std::fprintf(stderr, "unknown --algo=%s (valid: m, f, all)\n",
                 algo_spec.c_str());
    return 2;
  }

  std::printf(
      "GMM on %lld fact rows over %lld FK1 runs, threads=%d, "
      "morsel-rows=%lld (steal/prefetch off: page I/O is part of the "
      "parity contract)\n",
      static_cast<long long>(s_rows), static_cast<long long>(r_rows), threads,
      static_cast<long long>(morsel_rows));
  std::printf("%-8s %-8s %10s %10s %12s %14s %14s\n", "algo", "shards",
              "wall(s)", "scan_max", "pages_read", "shard_reads",
              "scan_spread");

  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = iters;
  opt.temp_dir = dir.str();
  opt.threads = threads;
  opt.morsel_rows = morsel_rows;

  for (const auto algo : algos) {
    core::TrainReport base;
    for (const int64_t shards : shard_counts) {
      opt.shards = static_cast<int>(shards);
      pool.Clear();
      core::TrainReport r;
      auto params = core::TrainGmm(rel, opt, algo, &pool, &r);
      if (!params.ok()) Die(params.status());

      double scan_min = 0.0, scan_max = 0.0;
      std::string shard_reads = "-";
      if (!r.shard_stats.empty()) {
        scan_min = scan_max = r.shard_stats[0].scan_seconds;
        shard_reads.clear();
        for (size_t k = 0; k < r.shard_stats.size(); ++k) {
          const auto& stat = r.shard_stats[k];
          scan_min = std::min(scan_min, stat.scan_seconds);
          scan_max = std::max(scan_max, stat.scan_seconds);
          shard_reads += (k > 0 ? "/" : "") +
                         std::to_string(stat.io.pages_read);
        }
      }
      const double spread =
          scan_max > 0.0 ? 1.0 - scan_min / scan_max : 0.0;
      std::printf("%-8s %-8lld %10.3f %10.4f %12llu %14s %13.1f%%\n",
                  core::AlgorithmName(algo),
                  static_cast<long long>(shards), r.wall_seconds, scan_max,
                  static_cast<unsigned long long>(r.io.pages_read),
                  shard_reads.c_str(), 100.0 * spread);
      json.Add(core::AlgorithmName(algo),
               "shards_" + std::to_string(shards), r);

      // The contract, enforced where the trajectory is recorded: every
      // shard count reproduces the shards=1 run bit for bit — objective,
      // op counts, and (steal/prefetch off) the whole page-I/O split.
      if (shards == shard_counts.front()) {
        base = r;
        continue;
      }
      if (!BitEq(r.final_objective, base.final_objective) ||
          r.ops.mults != base.ops.mults || r.ops.adds != base.ops.adds ||
          r.ops.subs != base.ops.subs || r.ops.exps != base.ops.exps ||
          r.io.pages_read != base.io.pages_read ||
          r.io.pool_hits != base.io.pool_hits ||
          r.io.pool_misses != base.io.pool_misses) {
        std::fprintf(stderr,
                     "PARITY VIOLATION on %s: shards=%lld differs from "
                     "shards=%lld (objective %a vs %a, pages_read %llu vs "
                     "%llu)\n",
                     core::AlgorithmName(algo),
                     static_cast<long long>(shards),
                     static_cast<long long>(shard_counts.front()),
                     r.final_objective, base.final_objective,
                     static_cast<unsigned long long>(r.io.pages_read),
                     static_cast<unsigned long long>(base.io.pages_read));
        return 1;
      }
    }
  }
  std::printf(
      "shard sweep verified bit-identical (objective + op counts + page "
      "I/O) against shards=%lld on every algorithm\n",
      static_cast<long long>(shard_counts.front()));
  std::printf(
      "note: shards time-share the compute workers in-process, so the "
      "win here is per-shard accounting and the verified merge seam; "
      "wall-clock scale-out needs the RPC backend (one machine per "
      "shard)\n");
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
