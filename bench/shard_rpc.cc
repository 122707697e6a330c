// Process shard backend cost model: what the socket seam adds on top of
// the in-process shard plane.
//
// Three measurements per shard count, all on the same GMM training run:
//   1) frame codec microbench — EncodeFrame + byte-split FrameDecoder
//      reassembly latency at ShardDelta-sized payloads (the per-frame CPU
//      tax both ends pay);
//   2) the in-process backend (--shard-backend=inproc), the zero-copy
//      baseline;
//   3) the process backend — real factormld workers over Unix-domain
//      sockets — with its wire volume (net.bytes_sent/recv) and delta
//      frame count read from the obs registry.
// The run fails on any parity violation: the process backend must
// reproduce the inproc objective and op counts bit for bit, else the
// seam is broken and no timing matters. Recorded as BENCH_shard_rpc.json.
//
//   bench_shard_rpc [--threads=2] [--s-rows=20000] [--r-rows=300]
//                   [--morsel-rows=1024] [--shards-list=2,4] [--iters=2]
//                   [--json=PATH]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "net/frame.h"

namespace factorml::bench {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

uint64_t NetCounter(const char* name) {
  return obs::Registry::Instance().GetCounter(name)->Value();
}

/// Round-trips `frames` frames of `payload_bytes` through EncodeFrame and
/// a FrameDecoder fed in 4 KiB slices (the socket's eye view). Returns
/// microseconds per frame.
double FrameRoundTripMicros(size_t payload_bytes, int frames) {
  std::string payload(payload_bytes, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31);
  }
  Stopwatch watch;
  size_t decoded = 0;
  for (int i = 0; i < frames; ++i) {
    const std::string wire =
        net::EncodeFrame(static_cast<uint32_t>(i), payload);
    net::FrameDecoder dec;
    for (size_t off = 0; off < wire.size(); off += 4096) {
      dec.Feed(wire.data() + off, std::min<size_t>(4096, wire.size() - off));
    }
    net::Frame f;
    bool got = false;
    if (!dec.Next(&f, &got).ok() || !got) Die(Status::Internal("codec"));
    decoded += f.payload.size();
  }
  if (decoded != payload_bytes * static_cast<size_t>(frames)) {
    Die(Status::Internal("codec dropped bytes"));
  }
  return watch.ElapsedSeconds() * 1e6 / frames;
}

// This bench's --morsel-rows and --threads defaults (the engine's are
// 4,096 and 1). The run manifest records them when the flags are unset.
constexpr int64_t kMorselRows = 1024;
constexpr int kThreads = 2;

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  ApplyCommonBenchFlags(args, "shard_rpc", kMorselRows, kThreads);
  const int threads = args.GetThreads(kThreads);
  const int64_t s_rows = args.GetInt("s-rows", 20000);
  const int64_t r_rows = args.GetInt("r-rows", 300);
  const int64_t morsel_rows = args.GetMorselRows(kMorselRows);
  const int iters = args.GetIterations("iters", 2);
  const std::vector<int64_t> shard_counts =
      args.GetIntList("shards-list", {2, 4});
  JsonReport json("shard_rpc", args, kMorselRows, kThreads);

  std::printf("frame codec (encode + 4KiB-sliced decode):\n");
  std::printf("%-14s %14s\n", "payload", "us/frame");
  for (const size_t bytes : {size_t{1} << 10, size_t{64} << 10,
                             size_t{1} << 20, size_t{8} << 20}) {
    std::printf("%-14zu %14.2f\n", bytes,
                FrameRoundTripMicros(bytes, bytes >= (1u << 20) ? 32 : 256));
  }

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
  opt.threads = threads;
  opt.morsel_rows = morsel_rows;

  std::printf(
      "\nGMM factorized, %lld fact rows, threads=%d: inproc vs process "
      "workers over unix sockets\n",
      static_cast<long long>(s_rows), threads);
  std::printf("%-8s %12s %12s %10s %12s %12s\n", "shards", "inproc(s)",
              "process(s)", "overhead", "wire_MB", "delta_frames");

  for (const int64_t shards : shard_counts) {
    opt.shards = static_cast<int>(shards);
    opt.shard_backend = core::pipeline::ShardBackend::kInproc;
    pool.Clear();
    core::TrainReport in_r;
    auto in_params =
        core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &in_r);
    if (!in_params.ok()) Die(in_params.status());
    json.Add("inproc", "shards_" + std::to_string(shards), in_r);

    opt.shard_backend = core::pipeline::ShardBackend::kProcess;
    pool.Clear();
    const uint64_t sent0 = NetCounter("net.bytes_sent");
    const uint64_t recv0 = NetCounter("net.bytes_recv");
    const uint64_t deltas0 = NetCounter("pipeline.shard_deltas");
    core::TrainReport pr_r;
    auto pr_params =
        core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &pr_r);
    if (!pr_params.ok()) Die(pr_params.status());
    json.Add("process", "shards_" + std::to_string(shards), pr_r);
    const double wire_mb =
        static_cast<double>((NetCounter("net.bytes_sent") - sent0) +
                            (NetCounter("net.bytes_recv") - recv0)) /
        (1024.0 * 1024.0);
    const uint64_t delta_frames = NetCounter("pipeline.shard_deltas") - deltas0;

    if (!BitEq(pr_r.final_objective, in_r.final_objective) ||
        pr_r.ops.mults != in_r.ops.mults || pr_r.ops.adds != in_r.ops.adds ||
        pr_r.ops.subs != in_r.ops.subs || pr_r.ops.exps != in_r.ops.exps) {
      std::fprintf(stderr,
                   "PARITY VIOLATION at shards=%lld: process objective %a "
                   "vs inproc %a\n",
                   static_cast<long long>(shards), pr_r.final_objective,
                   in_r.final_objective);
      return 1;
    }

    const double overhead = in_r.wall_seconds > 0.0
                                ? pr_r.wall_seconds / in_r.wall_seconds
                                : 0.0;
    std::printf("%-8lld %12.3f %12.3f %9.2fx %12.2f %12llu\n",
                static_cast<long long>(shards), in_r.wall_seconds,
                pr_r.wall_seconds, overhead, wire_mb,
                static_cast<unsigned long long>(delta_frames));
  }
  std::printf(
      "process backend verified bit-identical to inproc at every shard "
      "count (objective + op counts)\n");
  return 0;
}

}  // namespace
}  // namespace factorml::bench

int main(int argc, char** argv) { return factorml::bench::Main(argc, argv); }
