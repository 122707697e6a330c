// Process shard backend tests.
//
// 1) ShardRpcParityTest — the backend's whole contract in one sentence:
//    --shard-backend=process is *bit-identical* to the in-process sharded
//    backend. Objectives (exact doubles), parameters, op counts and the
//    per-shard page-request totals all match across four model families,
//    shards {2,4} x threads {1,4}. Real factormld processes are spawned
//    over Unix-domain sockets for every case.
// 2) ShardRpcFaultTest — failure semantics under injected faults
//    (FACTORMLD_FAULT_KILL / _STALL env specs, honored by factormld): a
//    SIGKILLed or hung worker's spans are requeued (with a recovery
//    rescan when the death lands mid-iteration) or the attempt restarts
//    (non-recoverable GMM covariance pass) — and in every case the final
//    model is still bit-identical to the healthy baseline.
// 3) Wire-level units: ShardJobSpec round-trip and corruption, the
//    ShardDelta frame codec, and the restart sentinel.

#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <string>
#include <vector>

#include "core/factorml.h"
#include "core/pipeline/checkpoint.h"
#include "core/pipeline/shard_rpc.h"
#include "core/pipeline/sharded_driver.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace factorml {
namespace {

using core::pipeline::ShardBackend;
using data::GenerateSynthetic;
using factorml::testing::TempDir;
using storage::BufferPool;

data::SyntheticSpec Spec(const std::string& dir, bool target) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.s_rows = 3000;
  spec.s_feats = 3;
  spec.attrs = {data::AttributeSpec{40, 5}};
  spec.clusters = 3;
  spec.with_target = target;
  spec.seed = 33;
  return spec;
}

uint64_t Counter(const char* name) {
  return obs::Registry::Instance().GetCounter(name)->Value();
}

/// RAII env spec for the factormld fault hooks (inherited by the workers
/// the coordinator spawns; cleared on scope exit so later tests spawn
/// healthy workers).
class ScopedFaultEnv {
 public:
  ScopedFaultEnv(const char* name, const std::string& spec) : name_(name) {
    setenv(name_, spec.c_str(), 1);
  }
  ~ScopedFaultEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

/// Runs `train` once per backend at the given schedule and pins every
/// bitwise-parity promise the process backend makes.
template <typename Options, typename TrainFn, typename DiffFn>
void ExpectProcessParity(const join::NormalizedRelations& rel, Options opt,
                         core::Algorithm algo, BufferPool* pool,
                         TrainFn train, DiffFn max_abs_diff,
                         const char* family) {
  for (const int shards : {2, 4}) {
    for (const int threads : {1, 4}) {
      const std::string tag = std::string(family) +
                              " shards=" + std::to_string(shards) +
                              " threads=" + std::to_string(threads);
      opt.shards = shards;
      opt.threads = threads;
      opt.shard_backend = ShardBackend::kInproc;
      pool->Clear();
      core::TrainReport base_report;
      auto base = train(rel, opt, algo, pool, &base_report);
      ASSERT_TRUE(base.ok()) << tag << ": " << base.status().ToString();

      opt.shard_backend = ShardBackend::kProcess;
      pool->Clear();
      core::TrainReport report;
      auto proc = train(rel, opt, algo, pool, &report);
      ASSERT_TRUE(proc.ok()) << tag << ": " << proc.status().ToString();

      // The hard contract: same bits, not approximately-same numbers.
      EXPECT_EQ(report.final_objective, base_report.final_objective) << tag;
      EXPECT_EQ(max_abs_diff(base.value(), proc.value()), 0.0) << tag;
      EXPECT_EQ(report.iterations, base_report.iterations) << tag;
      EXPECT_EQ(report.ops.mults, base_report.ops.mults) << tag;
      EXPECT_EQ(report.ops.adds, base_report.ops.adds) << tag;
      EXPECT_EQ(report.ops.subs, base_report.ops.subs) << tag;
      EXPECT_EQ(report.ops.exps, base_report.ops.exps) << tag;

      // Shard accounting: same effective shard count, same chunk spans
      // covering the whole plan; and because every node runs the same
      // deterministic scans, each shard issues the same number of page
      // requests on its node's pool as the time-shared backend did.
      EXPECT_EQ(report.shards, base_report.shards) << tag;
      ASSERT_EQ(report.shard_stats.size(), base_report.shard_stats.size())
          << tag;
      for (size_t k = 0; k < report.shard_stats.size(); ++k) {
        EXPECT_EQ(report.shard_stats[k].chunk_begin,
                  base_report.shard_stats[k].chunk_begin)
            << tag << " shard " << k;
        EXPECT_EQ(report.shard_stats[k].chunk_end,
                  base_report.shard_stats[k].chunk_end)
            << tag << " shard " << k;
        EXPECT_EQ(report.shard_stats[k].io.pool_hits +
                      report.shard_stats[k].io.pool_misses,
                  base_report.shard_stats[k].io.pool_hits +
                      base_report.shard_stats[k].io.pool_misses)
            << tag << " shard " << k;
      }
      if (!report.shard_stats.empty()) {
        EXPECT_EQ(report.shard_stats.front().chunk_begin, 0) << tag;
        EXPECT_EQ(report.shard_stats.back().chunk_end, report.morsel_chunks)
            << tag;
      }
    }
  }
}

TEST(ShardRpcParityTest, GmmFactorizedProcessMatchesInproc) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  ExpectProcessParity(
      rel, opt, core::Algorithm::kFactorized, &pool,
      [](const join::NormalizedRelations& r, const gmm::GmmOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainGmm(r, o, a, p, rep);
      },
      &gmm::GmmParams::MaxAbsDiff, "gmm-F");
}

TEST(ShardRpcParityTest, LinregMaterializedProcessMatchesInproc) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  ExpectProcessParity(
      rel, opt, core::Algorithm::kMaterialized, &pool,
      [](const join::NormalizedRelations& r, const linreg::LinregOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainLinreg(r, o, a, p, rep);
      },
      &linreg::LinregModel::MaxAbsDiff, "linreg-M");
}

TEST(ShardRpcParityTest, KmeansStreamingProcessMatchesInproc) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  ExpectProcessParity(
      rel, opt, core::Algorithm::kStreaming, &pool,
      [](const join::NormalizedRelations& r, const kmeans::KmeansOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainKmeans(r, o, a, p, rep);
      },
      &kmeans::KmeansModel::MaxAbsDiff, "kmeans-S");
}

TEST(ShardRpcParityTest, LogregFactorizedProcessMatchesInproc) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  logreg::LogregOptions opt;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = dir.str();
  ExpectProcessParity(
      rel, opt, core::Algorithm::kFactorized, &pool,
      [](const join::NormalizedRelations& r, const logreg::LogregOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainLogreg(r, o, a, p, rep);
      },
      &logreg::LogregModel::MaxAbsDiff, "logreg-F");
}

TEST(ShardRpcParityTest, TcpFallbackProcessMatchesInproc) {
  // The coordinator listens on a Unix socket under temp_dir; a temp dir
  // too long for sun_path makes it fall back to TCP loopback, which must
  // be just as bit-identical.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  const std::string long_dir = dir.str() + "/" + std::string(120, 'x');
  ASSERT_EQ(mkdir(long_dir.c_str(), 0755), 0);
  struct sockaddr_un addr;
  ASSERT_GE(long_dir.size(), sizeof(addr.sun_path));
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;
  opt.temp_dir = long_dir;
  ExpectProcessParity(
      rel, opt, core::Algorithm::kFactorized, &pool,
      [](const join::NormalizedRelations& r, const kmeans::KmeansOptions& o,
         core::Algorithm a, BufferPool* p, core::TrainReport* rep) {
        return core::TrainKmeans(r, o, a, p, rep);
      },
      &kmeans::KmeansModel::MaxAbsDiff, "kmeans-F-tcp");
}

// ----------------------------------------------------- fault injection
//
// All fault cases: GMM factorized, threads=1, shards=2, 2 iterations.
// GMM's pass_seq timeline is three full passes per iteration —
// iteration 0 runs seq 0 (E), 1 (mean), 2 (cov); iteration 1 runs
// 3, 4, 5. The E and mean passes are recoverable
// (ShardRecoverableAtPass), the cov pass is not (EndPass(kMeanStep)
// rewrote mu mid-iteration), which picks the recovery path per case.

struct FaultFixture {
  TempDir dir;
  BufferPool pool{512};
  join::NormalizedRelations rel;
  gmm::GmmOptions opt;
  double base_objective = 0.0;
  gmm::GmmParams base_params;

  FaultFixture()
      : rel(std::move(GenerateSynthetic(Spec(dir.str(), false), &pool))
                .value()) {
    opt.num_components = 3;
    opt.max_iters = 2;
    opt.batch_rows = 256;
    opt.morsel_rows = 200;
    opt.temp_dir = dir.str();
    opt.threads = 1;
    opt.shards = 2;
    pool.Clear();
    core::TrainReport report;
    auto base =
        core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &report);
    FML_CHECK(base.ok()) << base.status().ToString();
    base_objective = report.final_objective;
    base_params = std::move(base).value();
    opt.shard_backend = ShardBackend::kProcess;
  }

  /// Runs the process backend under whatever fault env is in scope and
  /// checks bit-identity against the healthy inproc baseline.
  void RunAndExpectIdentical(const char* tag) {
    pool.Clear();
    core::TrainReport report;
    auto r =
        core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &report);
    ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
    EXPECT_EQ(report.final_objective, base_objective) << tag;
    EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base_params, r.value()), 0.0) << tag;
    EXPECT_EQ(report.iterations, 2) << tag;
  }
};

TEST(ShardRpcFaultTest, KilledWorkerOnEStepRequeuesBitIdentically) {
  FaultFixture fx;
  const uint64_t deaths = Counter("shard_rpc.worker_deaths");
  const uint64_t requeues = Counter("shard_rpc.requeues");
  const uint64_t restarts = Counter("shard_rpc.restarts");
  ScopedFaultEnv kill("FACTORMLD_FAULT_KILL", "0:0");  // worker 0, seq 0 (E)
  fx.RunAndExpectIdentical("kill@E");
  EXPECT_EQ(Counter("shard_rpc.worker_deaths"), deaths + 1);
  EXPECT_GE(Counter("shard_rpc.requeues"), requeues + 1);
  EXPECT_EQ(Counter("shard_rpc.restarts"), restarts);  // no restart needed
}

TEST(ShardRpcFaultTest, KilledWorkerMidIterationRecoversByRescan) {
  // Death on iteration 1's mean pass (seq 4, in-iteration pass index 1):
  // the surviving worker must rebuild per-row E-step state over the
  // acquired spans (recover_passes=1 prologue) before scanning the real
  // pass — the requeued delta is only bit-identical if it does.
  FaultFixture fx;
  const uint64_t deaths = Counter("shard_rpc.worker_deaths");
  const uint64_t restarts = Counter("shard_rpc.restarts");
  ScopedFaultEnv kill("FACTORMLD_FAULT_KILL", "0:4");
  fx.RunAndExpectIdentical("kill@mean");
  EXPECT_EQ(Counter("shard_rpc.worker_deaths"), deaths + 1);
  EXPECT_EQ(Counter("shard_rpc.restarts"), restarts);
}

TEST(ShardRpcFaultTest, KilledWorkerOnCovPassRestartsTraining) {
  // The covariance pass is non-recoverable: mu was rewritten at
  // EndPass(kMeanStep), so a mid-cov death cannot be replayed. The
  // coordinator must broadcast RESTART and rerun the whole training on
  // the survivor — still converging to the same bits.
  FaultFixture fx;
  const uint64_t deaths = Counter("shard_rpc.worker_deaths");
  const uint64_t restarts = Counter("shard_rpc.restarts");
  ScopedFaultEnv kill("FACTORMLD_FAULT_KILL", "0:2");
  fx.RunAndExpectIdentical("kill@cov");
  EXPECT_EQ(Counter("shard_rpc.worker_deaths"), deaths + 1);
  EXPECT_EQ(Counter("shard_rpc.restarts"), restarts + 1);
}

TEST(ShardRpcFaultTest, HungWorkerTimesOutAndIsRequeued) {
  // A stall, not a death: worker 0 sleeps through its E-step at seq 3.
  // Nothing arrives on its socket, so only --shard-timeout-ms can notice;
  // the coordinator SIGKILLs it and requeues exactly as for an EOF.
  FaultFixture fx;
  fx.opt.shard_timeout_ms = 2000;
  const uint64_t deaths = Counter("shard_rpc.worker_deaths");
  const uint64_t timeouts = Counter("shard_rpc.timeouts");
  ScopedFaultEnv stall("FACTORMLD_FAULT_STALL", "0:3:120000");
  fx.RunAndExpectIdentical("stall@E");
  EXPECT_EQ(Counter("shard_rpc.worker_deaths"), deaths + 1);
  EXPECT_EQ(Counter("shard_rpc.timeouts"), timeouts + 1);
}

// ------------------------------------------------------ wire-level units

/// A spec with every field off its default.
core::pipeline::ShardJobSpec FullSpec() {
  core::pipeline::ShardJobSpec spec;
  spec.s_path = "/data/s.fml";
  spec.attr_paths = {"/data/r1.fml", "/data/r2.fml"};
  spec.has_target = true;
  spec.pool_pages = 512;
  spec.algorithm = core::Algorithm::kFactorized;
  core::pipeline::StrategyOptions& o = spec.strategy;
  o.batch_rows = 256;
  o.threads = 4;
  o.morsel_rows = 200;
  o.steal = true;
  o.prefetch = true;
  o.prefetch_depth = 3;
  o.shards = 4;
  o.kernels = la::KernelMode::kSimd;
  o.temp_dir = "/tmp/w2";
  o.shard_backend = ShardBackend::kProcess;
  o.shard_timeout_ms = 1234;
  o.shard_worker_path = "/opt/bin/factormld";
  o.checkpoint_dir = "/tmp/ckpts";
  o.checkpoint_every = 3;
  spec.worker_id = 2;
  spec.family = "gmm";
  spec.family_blob = std::string("\x01\x00\x7f", 3);
  return spec;
}

TEST(ShardJobSpecTest, RoundTripsEveryField) {
  const core::pipeline::ShardJobSpec spec = FullSpec();
  const std::string blob = core::pipeline::EncodeShardJobSpec(spec);
  auto decoded = core::pipeline::DecodeShardJobSpec(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const core::pipeline::ShardJobSpec& d = decoded.value();
  EXPECT_EQ(d.s_path, spec.s_path);
  EXPECT_EQ(d.attr_paths, spec.attr_paths);
  EXPECT_EQ(d.has_target, spec.has_target);
  EXPECT_EQ(d.pool_pages, spec.pool_pages);
  EXPECT_EQ(d.algorithm, spec.algorithm);
  const core::pipeline::StrategyOptions& o = spec.strategy;
  EXPECT_EQ(d.strategy.batch_rows, o.batch_rows);
  EXPECT_EQ(d.strategy.threads, o.threads);
  EXPECT_EQ(d.strategy.morsel_rows, o.morsel_rows);
  EXPECT_EQ(d.strategy.steal, o.steal);
  EXPECT_EQ(d.strategy.prefetch, o.prefetch);
  EXPECT_EQ(d.strategy.prefetch_depth, o.prefetch_depth);
  EXPECT_EQ(d.strategy.shards, o.shards);
  EXPECT_EQ(d.strategy.kernels, o.kernels);
  EXPECT_EQ(d.strategy.temp_dir, o.temp_dir);
  EXPECT_EQ(d.strategy.shard_backend, o.shard_backend);
  EXPECT_EQ(d.strategy.shard_timeout_ms, o.shard_timeout_ms);
  EXPECT_EQ(d.strategy.shard_worker_path, o.shard_worker_path);
  EXPECT_EQ(d.strategy.checkpoint_dir, o.checkpoint_dir);
  EXPECT_EQ(d.strategy.checkpoint_every, o.checkpoint_every);
  EXPECT_EQ(d.strategy.shard_channel, nullptr);
  EXPECT_EQ(d.worker_id, spec.worker_id);
  EXPECT_EQ(d.family, spec.family);
  EXPECT_EQ(d.family_blob, spec.family_blob);
}

/// Byte offsets of FullSpec()'s encoded fields, per the encoder's layout:
/// version u32, s_path str, attr count u64, attr paths, has_target u8,
/// pool_pages u64, then the algorithm byte.
size_t StrBytes(const std::string& s) { return 8 + s.size(); }

size_t AttrCountOffset(const core::pipeline::ShardJobSpec& spec) {
  return 4 + StrBytes(spec.s_path);
}

size_t AlgorithmOffset(const core::pipeline::ShardJobSpec& spec) {
  size_t off = AttrCountOffset(spec) + 8;
  for (const auto& p : spec.attr_paths) off += StrBytes(p);
  return off + 1 + 8;
}

/// batch_rows, threads, morsel_rows (3 x 8), steal, prefetch (2 x 1),
/// prefetch_depth, shards (2 x 8) sit between the algorithm byte and the
/// kernels byte; temp_dir between the kernels and shard_backend bytes.
size_t KernelsOffset(const core::pipeline::ShardJobSpec& spec) {
  return AlgorithmOffset(spec) + 1 + 3 * 8 + 2 + 2 * 8;
}

size_t ShardBackendOffset(const core::pipeline::ShardJobSpec& spec) {
  return KernelsOffset(spec) + 1 + StrBytes(spec.strategy.temp_dir);
}

TEST(ShardJobSpecTest, HugeAttrCountRejectedBeforeAllocating) {
  const core::pipeline::ShardJobSpec spec = FullSpec();
  std::string blob = core::pipeline::EncodeShardJobSpec(spec);
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(&blob[AttrCountOffset(spec)], &huge, sizeof(huge));
  const auto decoded = core::pipeline::DecodeShardJobSpec(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("attr_paths count"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(ShardJobSpecTest, OutOfRangeEnumBytesRejectedNamingTheField) {
  const core::pipeline::ShardJobSpec spec = FullSpec();
  const std::string good = core::pipeline::EncodeShardJobSpec(spec);
  ASSERT_EQ(good[AlgorithmOffset(spec)], 'F');
  ASSERT_EQ(good[KernelsOffset(spec)], 1);
  ASSERT_EQ(good[ShardBackendOffset(spec)], 1);
  const struct {
    size_t offset;
    char value;
    const char* field;
  } cases[] = {
      {AlgorithmOffset(spec), 'x', "algorithm"},
      {KernelsOffset(spec), 2, "kernels"},
      {ShardBackendOffset(spec), 2, "shard_backend"},
  };
  for (const auto& c : cases) {
    std::string blob = good;
    blob[c.offset] = c.value;
    const auto decoded = core::pipeline::DecodeShardJobSpec(blob);
    ASSERT_FALSE(decoded.ok()) << c.field;
    EXPECT_NE(decoded.status().ToString().find(c.field), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(ShardJobSpecTest, UnresolvedKnobsRejectedNamingTheField) {
  // The coordinator ships resolved knobs, so a worker must reject an
  // "unset" morsel_rows and any int count outside [1, INT_MAX] rather
  // than cast it.
  const core::pipeline::ShardJobSpec spec = FullSpec();
  const std::string good = core::pipeline::EncodeShardJobSpec(spec);
  // batch_rows, threads, morsel_rows (3 x 8), steal, prefetch (2 x 1),
  // prefetch_depth, shards (2 x 8) follow the algorithm byte.
  const size_t knobs = AlgorithmOffset(spec) + 1;
  const size_t threads_at = knobs + 8, morsel_at = knobs + 16,
               depth_at = knobs + 26, shards_at = knobs + 34;
  const auto at = [&](size_t offset) {
    int64_t v = 0;
    std::memcpy(&v, &good[offset], sizeof(v));
    return v;
  };
  ASSERT_EQ(at(threads_at), spec.strategy.threads);
  ASSERT_EQ(at(morsel_at), spec.strategy.morsel_rows);
  ASSERT_EQ(at(depth_at), spec.strategy.prefetch_depth);
  ASSERT_EQ(at(shards_at), spec.strategy.shards);
  const int64_t too_big = int64_t{INT_MAX} + 1;
  const struct {
    size_t offset;
    int64_t value;
    const char* field;
  } cases[] = {
      {threads_at, 0, "threads"},
      {threads_at, too_big, "threads"},
      {morsel_at, 0, "morsel_rows"},
      {morsel_at, -1, "morsel_rows"},
      {depth_at, 0, "prefetch_depth"},
      {depth_at, too_big, "prefetch_depth"},
      {shards_at, -5, "shards"},
      {shards_at, too_big, "shards"},
  };
  for (const auto& c : cases) {
    std::string blob = good;
    std::memcpy(&blob[c.offset], &c.value, sizeof(c.value));
    const auto decoded = core::pipeline::DecodeShardJobSpec(blob);
    ASSERT_FALSE(decoded.ok()) << c.field << "=" << c.value;
    EXPECT_NE(decoded.status().ToString().find(c.field), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(ShardJobSpecTest, GmmBlobInitByteRejected) {
  gmm::GmmOptions opt;
  opt.init = gmm::GmmInit::kRandomRows;
  std::string blob = gmm::EncodeShardJob(opt);
  ASSERT_TRUE(gmm::DecodeShardJob(blob).ok());
  // num_components u64, max_iters i64, tol, init_spread, cov_reg f64s.
  const size_t init_offset = 5 * 8;
  ASSERT_EQ(blob[init_offset], 1);
  blob[init_offset] = 2;
  const auto decoded = gmm::DecodeShardJob(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("init"), std::string::npos)
      << decoded.status().ToString();
}

TEST(ShardJobSpecTest, GmmBlobNanCovRegFailsValidation) {
  // A NaN ridge is well-formed bytes, so the blob decodes; the worker's
  // ValidateOptions on the decoded options must then reject it by name.
  gmm::GmmOptions opt;
  opt.cov_reg = std::nan("");
  const auto decoded = gmm::DecodeShardJob(gmm::EncodeShardJob(opt));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(std::isnan(decoded->cov_reg));
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  const Status st =
      gmm::MakeShardProgram(decoded.value())->ValidateOptions(rel);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("cov_reg"), std::string::npos)
      << st.ToString();
}

/// Overwrites the i64 at `offset` of an encoded family blob.
std::string WithI64At(std::string blob, size_t offset, int64_t value) {
  std::memcpy(&blob[offset], &value, sizeof(value));
  return blob;
}

TEST(ShardJobSpecTest, FamilyBlobMaxItersOutOfIntRangeRejected) {
  // max_iters travels as an i64 but trains as an int: 2^32 + 3 must not
  // decode as 3. Offsets: gmm and kmeans after a u64 num_components /
  // num_clusters, logreg after its f64 l2 and intercept byte.
  const std::string gmm_blob = gmm::EncodeShardJob(gmm::GmmOptions{});
  const std::string km_blob = kmeans::EncodeShardJob(kmeans::KmeansOptions{});
  const std::string lr_blob = logreg::EncodeShardJob(logreg::LogregOptions{});
  ASSERT_TRUE(gmm::DecodeShardJob(WithI64At(gmm_blob, 8, INT_MAX)).ok());
  ASSERT_TRUE(kmeans::DecodeShardJob(WithI64At(km_blob, 8, 1)).ok());
  ASSERT_TRUE(logreg::DecodeShardJob(WithI64At(lr_blob, 9, INT_MAX)).ok());
  for (const int64_t bad : {(int64_t{1} << 32) + 3, int64_t{INT_MAX} + 1,
                            int64_t{0}, int64_t{-1}}) {
    const Status statuses[] = {
        gmm::DecodeShardJob(WithI64At(gmm_blob, 8, bad)).status(),
        kmeans::DecodeShardJob(WithI64At(km_blob, 8, bad)).status(),
        logreg::DecodeShardJob(WithI64At(lr_blob, 9, bad)).status(),
    };
    for (const Status& st : statuses) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(st.ToString().find("max_iters"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST(ShardJobSpecTest, RidgeBlobInterceptByteRejected) {
  // Both ridge families start with (l2 f64, intercept u8); the intercept
  // byte is a bool, so anything but 0 or 1 is a malformed frame.
  linreg::LinregOptions lin;
  lin.intercept = false;
  std::string lin_blob = linreg::EncodeShardJob(lin);
  std::string log_blob = logreg::EncodeShardJob(logreg::LogregOptions{});
  ASSERT_EQ(lin_blob[8], 0);
  ASSERT_EQ(log_blob[8], 1);
  auto lin_ok = linreg::DecodeShardJob(lin_blob);
  ASSERT_TRUE(lin_ok.ok()) << lin_ok.status().ToString();
  EXPECT_FALSE(lin_ok->intercept);
  auto log_ok = logreg::DecodeShardJob(log_blob);
  ASSERT_TRUE(log_ok.ok()) << log_ok.status().ToString();
  EXPECT_TRUE(log_ok->intercept);
  lin_blob[8] = 2;
  log_blob[8] = static_cast<char>(0xff);
  for (const Status& st : {linreg::DecodeShardJob(lin_blob).status(),
                           logreg::DecodeShardJob(log_blob).status()}) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.ToString().find("intercept"), std::string::npos)
        << st.ToString();
  }
}

TEST(ShardJobSpecTest, TrailingBytesRejected) {
  core::pipeline::ShardJobSpec spec;
  spec.s_path = "/data/s.fml";
  std::string blob = core::pipeline::EncodeShardJobSpec(spec);
  blob.push_back('\0');
  EXPECT_FALSE(core::pipeline::DecodeShardJobSpec(blob).ok());
}

// A minimal slot-holding program: one state vector per slot, visited
// whole and merging into one shared buffer at the slot's offset (0 unless
// given). Enough to exercise every ShardDelta wire path and MergeSlots
// without a training run behind it.
class SlotStateProgram : public core::pipeline::ModelProgram {
 public:
  explicit SlotStateProgram(std::vector<std::vector<double>> slots,
                            std::vector<size_t> offsets = {})
      : slots_(std::move(slots)), offsets_(std::move(offsets)) {
    offsets_.resize(slots_.size(), 0);
    size_t len = 0;
    for (size_t s = 0; s < slots_.size(); ++s) {
      len = std::max(len, offsets_[s] + slots_[s].size());
    }
    merged_.assign(len, 0.0);
  }
  const char* Name() const override { return "slot-fake"; }
  const char* TempStem() const override { return "slot_fake"; }
  uint32_t Capabilities() const override { return 0; }
  int MaxIterations() const override { return 1; }
  Status Init(const core::pipeline::PipelineContext&) override {
    return Status::OK();
  }
  Result<bool> EndIteration(const core::pipeline::PipelineContext&,
                            int) override {
    return true;
  }
  double Objective() const override { return 0.0; }
  void VisitSlotState(
      int, int slot,
      const std::function<void(double*, double*, size_t)>& visit) override {
    visited_.push_back(slot);
    auto& s = slots_[static_cast<size_t>(slot)];
    if (!s.empty()) {
      visit(s.data(), merged_.data() + offsets_[static_cast<size_t>(slot)],
            s.size());
    }
  }

  std::vector<std::vector<double>> slots_;
  std::vector<size_t> offsets_;
  std::vector<double> merged_;
  std::vector<int> visited_;  // slot ids in visit order
};

TEST(MergeSlotsTest, FoldsAscendingSlotsIntoOffsetDestinations) {
  // Slot 1 lands at offset 2 of the merged buffer, overlapping slots 0
  // and 2 at elements 2..3.
  SlotStateProgram model({{1.0, 2.0, 4.0}, {8.0, 16.0}, {0.0, 0.0, 32.0, 64.0}},
                         {0, 2, 0});
  core::pipeline::MergeSlots(&model, 0, exec::Range{0, 3});
  EXPECT_EQ(model.merged_, (std::vector<double>{1.0, 2.0, 44.0, 80.0}));
  EXPECT_EQ(model.visited_, (std::vector<int>{0, 1, 2}));
  // The range bounds the fold, and slots are only read.
  core::pipeline::MergeSlots(&model, 0, exec::Range{1, 3});
  EXPECT_EQ(model.merged_, (std::vector<double>{1.0, 2.0, 84.0, 160.0}));
  EXPECT_EQ(model.visited_, (std::vector<int>{0, 1, 2, 1, 2}));
  EXPECT_EQ(model.slots_[1], (std::vector<double>{8.0, 16.0}));
}

std::vector<std::vector<double>> WireSlots() {
  // Zero runs, a literal stretch with -0.0 and a denormal (bit-pattern
  // non-zero: they must ship literally), an all-zero slot, a zero tail.
  return {{0.0, 0.0, 0.0, 1.5, -0.0, 5e-324, 2.25},
          {0.0, 0.0, 0.0, 0.0},
          {7.0, 0.0}};
}

TEST(ShardDeltaWireTest, RoundTripsBitExactAndElidesZeroRuns) {
  const auto original = WireSlots();
  SlotStateProgram src(original);
  const auto delta =
      core::pipeline::ExtractShardDelta(&src, 0, 1, exec::Range{0, 3});
  // Extract zeroes the source slots: the bytes carry the whole state.
  for (const auto& s : src.slots_) {
    for (const double v : s) EXPECT_EQ(v, 0.0);
  }
  SlotStateProgram dst(
      {std::vector<double>(7, -1.0), std::vector<double>(4, -1.0),
       std::vector<double>(2, -1.0)});
  const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  size_t doubles = 0;
  for (size_t s = 0; s < original.size(); ++s) {
    doubles += original[s].size();
    for (size_t i = 0; i < original[s].size(); ++i) {
      EXPECT_EQ(std::memcmp(&dst.slots_[s][i], &original[s][i],
                            sizeof(double)),
                0)
          << "slot " << s << " double " << i;
    }
  }
  // 8 of the 13 doubles are +0.0 runs: the frame undercuts a verbatim
  // copy of the stream behind the same 48-byte header.
  EXPECT_LT(delta.wire_size(), 48 + doubles * sizeof(double));
}

TEST(ShardDeltaWireTest, TruncatedFramesRejectedNamingTheShard) {
  SlotStateProgram src(WireSlots());
  auto delta =
      core::pipeline::ExtractShardDelta(&src, 0, 3, exec::Range{0, 3});
  delta.bytes.resize(delta.bytes.size() - 5);
  SlotStateProgram dst(WireSlots());
  const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("shard 3"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("chunks [0, 3)"), std::string::npos)
      << st.ToString();
}

TEST(ShardDeltaWireTest, TrailingBytesRejected) {
  // A frame that decodes fine but carries extra bytes is a framing bug
  // upstream; silently ignoring the tail would mask it.
  SlotStateProgram src(WireSlots());
  auto delta =
      core::pipeline::ExtractShardDelta(&src, 0, 0, exec::Range{0, 3});
  delta.bytes.append(8, '\0');
  SlotStateProgram dst(WireSlots());
  const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("length mismatch"), std::string::npos)
      << st.ToString();
}

TEST(ShardDeltaWireTest, UnknownMagicRejected) {
  SlotStateProgram src(WireSlots());
  auto delta =
      core::pipeline::ExtractShardDelta(&src, 0, 0, exec::Range{0, 3});
  delta.bytes[7] = '1';  // "FMLSHRD2" -> "FMLSHRD1"
  SlotStateProgram dst(WireSlots());
  const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("bad magic"), std::string::npos)
      << st.ToString();
}

TEST(ShardDeltaWireTest, SpanMismatchRejectedWithBothSpans) {
  SlotStateProgram src(WireSlots());
  auto delta =
      core::pipeline::ExtractShardDelta(&src, 0, 2, exec::Range{1, 3});
  delta.chunk_begin = 0;  // merge-side bookkeeping disagrees with the wire
  SlotStateProgram dst(WireSlots());
  const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("chunks [0, 3)"), std::string::npos)
      << st.ToString();  // what the merge expected
  EXPECT_NE(st.ToString().find("chunks [1, 3)"), std::string::npos)
      << st.ToString();  // what the wire carried
}

TEST(ShardDeltaWireTest, ShapeDriftRejectedWithByteCounts) {
  SlotStateProgram src(WireSlots());
  const auto delta =
      core::pipeline::ExtractShardDelta(&src, 0, 0, exec::Range{0, 3});
  auto grown = WireSlots();
  grown[1].push_back(0.0);  // receiver's slot 1 is one double wider
  SlotStateProgram dst(std::move(grown));
  const Status st = core::pipeline::ApplyShardDelta(&dst, 0, delta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("shape drifted"), std::string::npos)
      << st.ToString();
}

// ----------------------------------------- checkpoint + coordinator kill

TEST(ShardRpcFaultTest, KilledCoordinatorResumesBitIdentically) {
  // The full crash story: a process-backend run with checkpointing is
  // SIGKILLed at the top of iteration 1 (pass seq 3 = iteration 1's
  // E-step; iteration 0's checkpoint is already on disk). A rerun with
  // the same flags restores coordinator AND workers from that checkpoint
  // and must finish bit-identical to the never-killed baseline — same
  // objective bits, same params, same op counters.
  FaultFixture fx;
  TempDir ckpt;
  fx.opt.checkpoint_dir = ckpt.str();

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The doomed attempt. The env spec only matches the coordinator-side
    // hook ("coord:<seq>"); worker processes ignore it.
    setenv("FACTORMLD_FAULT_KILL", "coord:3", 1);
    core::TrainReport report;
    auto r = core::TrainGmm(fx.rel, fx.opt, core::Algorithm::kFactorized,
                            &fx.pool, &report);
    // Reaching here means the kill hook never fired.
    _exit(r.ok() ? 7 : 8);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "coordinator was not killed (exit status " << wstatus << ")";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The checkpoint the killed run left behind covers iteration 0 only.
  auto left = core::pipeline::ReadCheckpoint(ckpt.str(), "F-GMM");
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(left.value().completed_iterations, 1);

  // Rerun with the same flags, no fault env: restores and finishes.
  fx.RunAndExpectIdentical("resume-after-coordinator-kill");
}

TEST(ShardRestartTest, SentinelRoundTrips) {
  const Status restart = core::pipeline::ShardRestartStatus(2);
  EXPECT_FALSE(restart.ok());
  EXPECT_TRUE(core::pipeline::IsShardRestart(restart));
  EXPECT_FALSE(core::pipeline::IsShardRestart(Status::OK()));
  EXPECT_FALSE(core::pipeline::IsShardRestart(
      Status::FailedPrecondition("recv timeout")));
  EXPECT_FALSE(
      core::pipeline::IsShardRestart(Status::Internal("shard-restart: ")));
}

}  // namespace
}  // namespace factorml
