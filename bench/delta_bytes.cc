// Accumulator-slot memory and ShardDelta wire bytes, measured.
//
// Two claims ride this bench. First, the rid-scoped slot fix: every
// chunk's table-0 accumulator slots are sized to the chunk's contiguous
// rid span, so total slot memory stays flat as the chunk count grows —
// the pre-fix sizing allocated the full attribute domain in every slot,
// O(chunk_count x k x n_R). The bench sweeps --morsel-rows, reads the
// measured `pipeline.slot_bytes` gauge, and prints next to it the cost
// the full-domain sizing would have paid (slot count x the measured
// bytes of one full-domain slot). Second, the zero-run-length ShardDelta
// frames: the sweep records `pipeline.delta_bytes` of a sharded run at
// the same chunk geometry. Every sharded configuration must reproduce its
// shards=1 objective and op counts bit for bit — the delta round trip and
// the rid-scoped merge are exactness-preserving, and the bench fails
// loudly if they are not.
//
//   bench_delta_bytes [--threads=2] [--s-rows=60000] [--r-rows=300]
//                     [--iters=3] [--shards=4]
//                     [--morsel-list=4096,1024,256] [--json=PATH]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"

namespace factorml::bench {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Named series out of the run's metrics delta; 0.0 when absent.
double Metric(const core::TrainReport& r, const std::string& name) {
  for (const auto& s : r.metrics) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args);
  const int threads = args.GetThreads(2);
  const int64_t s_rows = args.GetInt("s-rows", 60000);
  const int64_t r_rows = args.GetInt("r-rows", 300);
  const int iters = static_cast<int>(args.GetInt("iters", 3));
  const int shards = static_cast<int>(args.GetInt("shards", 4));
  const std::vector<int64_t> morsel_list =
      args.GetIntList("morsel-list", {4096, 1024, 256});
  JsonReport json("delta_bytes", args);

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

  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = iters;
  opt.temp_dir = dir.str();

  // One full-domain slot: serial, unchunked — its slot bytes are what
  // EVERY slot used to cost before the rid-scoped fix.
  opt.threads = 1;
  pool.Clear();
  core::TrainReport base;
  auto params =
      core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &base);
  if (!params.ok()) Die(params.status());
  const double full_domain_slot_bytes = Metric(base, "pipeline.slot_bytes");
  json.Add("f-gmm", "serial_baseline", base);
  std::printf(
      "F-GMM on %lld fact rows over %lld FK1 runs, iters=%d; one "
      "full-domain slot costs %.0f bytes\n",
      static_cast<long long>(s_rows), static_cast<long long>(r_rows), iters,
      full_domain_slot_bytes);

  std::printf("%-22s %8s %14s %16s %14s\n", "config", "chunks",
              "slot_bytes", "legacy_bytes", "delta_bytes");

  opt.threads = threads;
  for (const int64_t morsel_rows : morsel_list) {
    opt.morsel_rows = morsel_rows;
    opt.shards = 1;
    pool.Clear();
    core::TrainReport r;
    params = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &r);
    if (!params.ok()) Die(params.status());
    const int64_t chunks = (s_rows + morsel_rows - 1) / morsel_rows;
    std::printf("%-22s %8lld %14.0f %16.0f %14s\n",
                ("morsel=" + std::to_string(morsel_rows)).c_str(),
                static_cast<long long>(chunks),
                Metric(r, "pipeline.slot_bytes"),
                static_cast<double>(chunks) * full_domain_slot_bytes, "-");
    json.Add("f-gmm", "morsel_" + std::to_string(morsel_rows), r);

    // A sharded run at the same chunk geometry. Parity is per morsel
    // size — the chunk-ordered reduction is a function of the chunk
    // geometry, not of the shard count.
    opt.shards = shards;
    pool.Clear();
    core::TrainReport rs;
    params = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &rs);
    if (!params.ok()) Die(params.status());
    std::printf("%-22s %8lld %14.0f %16s %14.0f\n",
                ("  shards=" + std::to_string(shards)).c_str(),
                static_cast<long long>(chunks),
                Metric(rs, "pipeline.slot_bytes"), "-",
                Metric(rs, "pipeline.delta_bytes"));
    json.Add("f-gmm", "morsel_" + std::to_string(morsel_rows) + "_shards_" +
                          std::to_string(shards),
             rs);
    if (!BitEq(rs.final_objective, r.final_objective) ||
        rs.ops.mults != r.ops.mults || rs.ops.adds != r.ops.adds ||
        rs.ops.subs != r.ops.subs || rs.ops.exps != r.ops.exps) {
      std::fprintf(stderr,
                   "PARITY VIOLATION: shards=%d at morsel=%lld "
                   "(objective %a vs %a)\n",
                   shards, static_cast<long long>(morsel_rows),
                   rs.final_objective, r.final_objective);
      return 1;
    }
  }
  std::printf(
      "every sharded run bit-identical to its shards=1 baseline (objective "
      "+ op counts)\n");
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
