// Ablation for the I/O analysis of Sec. V-A: when does recomputing the
// join on the fly (S-GMM / F-GMM) transfer fewer pages than materializing
// T (M-GMM)? Prints the analytical page counts as the join buffer
// (BlockSize) varies, the closed-form crossover, and a measured
// confirmation with the storage engine's physical page counters — once
// demand-only and once with the I/O cursor plane's async prefetch
// (--prefetch-depth=N, default 2), the regime the prefetcher targets:
// I/O-bound passes whose stall time it should convert into hits.
// `--json=PATH` records every measured TrainReport (both prefetch
// settings) for the CI perf trajectory.

#include <cstdio>

#include "bench_util.h"
#include "common/flags.h"
#include "core/factorml.h"

namespace factorml::bench {
namespace {

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args);
  JsonReport json("io_crossover", args);
  const int iters = args.GetIterations("iters", 10);

  // A representative shape: wide R relative to S's own columns, so T is
  // much bigger than S + R.
  const uint64_t r_pages = 100, s_pages = 2000, t_pages = 7000;

  std::printf("== Sec. V-A ablation: I/O of M-GMM vs S-GMM under block "
              "nested loops (|R|=%llu, |S|=%llu, |T|=%llu, iters=%d) ==\n\n",
              static_cast<unsigned long long>(r_pages),
              static_cast<unsigned long long>(s_pages),
              static_cast<unsigned long long>(t_pages), iters);
  std::printf("%-12s %14s %14s %8s\n", "BlockPages", "M-GMM pages",
              "S-GMM pages", "winner");
  for (const uint64_t block : {1ULL, 2ULL, 5ULL, 10ULL, 20ULL, 50ULL,
                               100ULL}) {
    const uint64_t m = costmodel::MGmmIoPages(r_pages, s_pages, t_pages,
                                              block, iters);
    const uint64_t s = costmodel::SGmmIoPages(r_pages, s_pages, block,
                                              iters);
    std::printf("%-12llu %14llu %14llu %8s\n",
                static_cast<unsigned long long>(block),
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(s), s < m ? "S" : "M");
  }
  const double crossover =
      costmodel::SGmmCrossoverBlockPages(r_pages, s_pages, t_pages, iters);
  std::printf("\nclosed-form crossover: S-GMM wins for BlockSize > %.2f "
              "pages\n\n",
              crossover);

  // Measured confirmation on the physical engine (which probes S through
  // the clustered FK index — the paper notes the proposals apply equally
  // to non-BNL join strategies): F never writes and re-reads the wide T.
  BenchDir dir;
  storage::BufferPool pool(512);
  data::SyntheticSpec spec;
  spec.dir = dir.str();
  spec.s_rows = 40000;
  spec.s_feats = 5;
  spec.attrs = {data::AttributeSpec{200, 15}};
  spec.seed = 1;
  auto rel_or = data::GenerateSynthetic(spec, &pool);
  if (!rel_or.ok()) Die(rel_or.status());
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 3;
  opt.temp_dir = dir.str();
  opt.prefetch_depth = args.GetPrefetchDepth(2);
  // Chunked morsels give the prefetcher a deterministic "next scheduled
  // chunk" to run ahead of; results are bit-identical to the demand-only
  // run either way (the Trio self-check would flag any drift).
  opt.morsel_rows = 2048;
  std::printf("measured physical pages (nS=40000, nR=200, dS=5, dR=15, "
              "3 iters, 512-page pool):\n");
  for (const bool prefetch : {false, true}) {
    opt.prefetch = prefetch;
    const Trio t = RunGmmAll(rel_or.value(), opt, &pool);
    const char* tag = prefetch ? "prefetch=on " : "prefetch=off";
    for (const auto* r : {&t.m, &t.s, &t.f}) {
      std::printf("  %s %-6s read=%-6llu written=%-5llu prefetched=%-5llu "
                  "hits=%-5llu stall=%.4fs\n",
                  tag, r->algorithm.c_str(),
                  static_cast<unsigned long long>(r->io.pages_read),
                  static_cast<unsigned long long>(r->io.pages_written),
                  static_cast<unsigned long long>(r->io.prefetch_reads),
                  static_cast<unsigned long long>(r->io.prefetch_hits),
                  static_cast<double>(r->io.stall_micros) * 1e-6);
    }
    json.Add("measured", prefetch ? "prefetch=on" : "prefetch=off", t);
    if (prefetch && t.m.io.prefetch_hits == 0 && t.s.io.prefetch_hits == 0 &&
        t.f.io.prefetch_hits == 0) {
      std::fprintf(stderr, "WARNING: prefetch=on produced no hits on the "
                           "I/O-crossover shape\n");
    }
  }
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
