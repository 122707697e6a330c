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
// loudly if they are not. Both programs that ship per-rid mass in their
// slots run the sweep: F-GMM, then F-k-means; JSON rows name the family.
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

/// One family's F sweep through `train` (core::TrainGmm / TrainKmeans): a
/// serial full-domain baseline, then per morsel size an unsharded run and
/// a sharded run at the same chunk geometry. False on a parity violation.
template <typename Options, typename Train>
bool Sweep(const char* family, Train train, Options opt,
           const join::NormalizedRelations& rel, int threads, int shards,
           const std::vector<int64_t>& morsel_list, storage::BufferPool* pool,
           JsonReport* json) {
  const std::string section = std::string("f-") + family;
  json->SetFamily(family);
  const auto run = [&](core::TrainReport* r) {
    pool->Clear();
    const auto trained =
        train(rel, opt, core::Algorithm::kFactorized, pool, r);
    if (!trained.ok()) Die(trained.status());
  };
  // One full-domain slot: serial, one chunk spanning every row — its slot
  // bytes are what EVERY slot used to cost before the rid-scoped fix.
  opt.threads = 1;
  opt.morsel_rows = rel.s.num_rows();
  core::TrainReport base;
  run(&base);
  const double full_domain_slot_bytes = Metric(base, "pipeline.slot_bytes");
  json->Add(section, "serial_baseline", base);
  std::printf("\nF-%s: one full-domain slot costs %.0f bytes\n", family,
              full_domain_slot_bytes);
  std::printf("%-22s %8s %14s %17s %14s\n", "config", "chunks",
              "slot_bytes", "full_domain_bytes", "delta_bytes");

  opt.threads = threads;
  for (const int64_t morsel_rows : morsel_list) {
    opt.morsel_rows = morsel_rows;
    opt.shards = 1;
    core::TrainReport r;
    run(&r);
    const int64_t chunks = (rel.s.num_rows() + morsel_rows - 1) / morsel_rows;
    std::printf("%-22s %8lld %14.0f %17.0f %14s\n",
                ("morsel=" + std::to_string(morsel_rows)).c_str(),
                static_cast<long long>(chunks),
                Metric(r, "pipeline.slot_bytes"),
                static_cast<double>(chunks) * full_domain_slot_bytes, "-");
    json->Add(section, "morsel_" + std::to_string(morsel_rows), r);

    // A sharded run at the same chunk geometry. Parity is per morsel
    // size — the chunk-ordered reduction is a function of the chunk
    // geometry, not of the shard count.
    opt.shards = shards;
    core::TrainReport rs;
    run(&rs);
    std::printf("%-22s %8lld %14.0f %17s %14.0f\n",
                ("  shards=" + std::to_string(shards)).c_str(),
                static_cast<long long>(chunks),
                Metric(rs, "pipeline.slot_bytes"), "-",
                Metric(rs, "pipeline.delta_bytes"));
    json->Add(section, "morsel_" + std::to_string(morsel_rows) + "_shards_" +
                           std::to_string(shards),
              rs);
    if (!BitEq(rs.final_objective, r.final_objective) ||
        rs.ops.mults != r.ops.mults || rs.ops.adds != r.ops.adds ||
        rs.ops.subs != r.ops.subs || rs.ops.exps != r.ops.exps) {
      std::fprintf(stderr,
                   "PARITY VIOLATION: F-%s shards=%d at morsel=%lld "
                   "(objective %a vs %a)\n",
                   family, shards, static_cast<long long>(morsel_rows),
                   rs.final_objective, r.final_objective);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args);
  const int threads = args.GetThreads(2);
  const int64_t s_rows = args.GetInt("s-rows", 60000);
  const int64_t r_rows = args.GetInt("r-rows", 300);
  const int iters = args.GetIterations("iters", 3);
  const int shards = args.GetShards(4);
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
  std::printf("%lld fact rows over %lld FK1 runs, iters=%d\n",
              static_cast<long long>(s_rows), static_cast<long long>(r_rows),
              iters);

  // The two programs that ship per-rid mass in their slots.
  gmm::GmmOptions gmm_opt;
  gmm_opt.num_components = 3;
  gmm_opt.max_iters = iters;
  gmm_opt.temp_dir = dir.str();
  kmeans::KmeansOptions km_opt;
  km_opt.num_clusters = 3;
  km_opt.max_iters = iters;
  km_opt.temp_dir = dir.str();
  if (!Sweep("gmm", &core::TrainGmm, gmm_opt, rel, threads, shards,
             morsel_list, &pool, &json) ||
      !Sweep("kmeans", &core::TrainKmeans, km_opt, rel, threads, shards,
             morsel_list, &pool, &json)) {
    return 1;
  }
  std::printf(
      "every sharded run bit-identical to its shards=1 baseline (objective "
      "+ op counts)\n");
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
