// Randomized parity harness — the standing safety net for the
// work-stealing morsel scheduler and the M/S/F strategy planes.
//
// Each seeded case draws a random schema and dataset (random S/R sizes
// and dims, FK1 run lengths uniform, Zipf-skewed or single-giant-run),
// picks one model family (GMM, NN, linreg, k-means — cycling by seed over
// seeds 0-59; logreg on seeds 60-74),
// and asserts the two properties no hand-picked golden can cover:
//
//  1. Schedule invariance (bit-exact): with the chunk-ordered scheduler
//     active, the final objective, every op count, and every model
//     parameter are IDENTICAL — EXPECT_EQ on doubles — across
//     threads x {1,2,4}, steal x {off,on}, prefetch x {off,on} and
//     rid-range shards x {1,2,3,4}. The chunk set is a data invariant,
//     the reduction merges in chunk order, and the shard plane's
//     ShardDelta round-trip is a pure serialization boundary, so who
//     executes a chunk — or which shard ships it — can never leak into
//     the result.
//  2. Strategy agreement (tolerance): M, S and F train the same model on
//     the same data up to floating-point reassociation of the factorized
//     accumulation.
//
// The suite carries the ctest label `stress` (CI runs it, `ctest -L
// tier1` skips it); a subset runs under TSan to certify the lock-free
// queue.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/factorml.h"
#include "gtest/gtest.h"
#include "la/kernels.h"
#include "test_util.h"

namespace factorml {
namespace {

using data::GenerateSynthetic;
using data::RunDist;
using factorml::testing::TempDir;
using storage::BufferPool;

constexpr core::Algorithm kAlgos[] = {core::Algorithm::kMaterialized,
                                      core::Algorithm::kStreaming,
                                      core::Algorithm::kFactorized};

struct SchedConfig {
  int threads;
  bool steal;
  bool prefetch = false;
  int shards = 1;
  bool simd = false;  // --kernels=simd (batched strip kernels)
};
// Config 0 is the baseline every other schedule must reproduce bit-exactly.
// The prefetch configs assert the I/O plane's extended contract: async
// page prefetch changes residency only, so a prefetched run is as
// bit-exact as any other schedule. The shard configs assert the shard
// plane's contract on top: rid-range shards scanned separately, slots
// round-tripped through serialized ShardDeltas, merged in shard-id order
// — still the same bits, composed with every thread count, stealing and
// prefetch (full-pass families only; the NN branch below asserts the
// mini-batch plane rejects sharding instead).
constexpr SchedConfig kConfigs[] = {
    {1, false},       {2, false},       {4, false},
    {1, true},        {2, true},        {4, true},
    {2, false, true}, {4, true, true},
    {1, false, false, 2}, {2, false, false, 3}, {4, true, false, 2},
    {2, false, true, 4},  {1, true, false, 3}};

std::string CfgName(const SchedConfig& c) {
  return "threads=" + std::to_string(c.threads) +
         (c.steal ? " steal=on" : " steal=off") +
         (c.prefetch ? " prefetch=on" : "") +
         (c.shards > 1 ? " shards=" + std::to_string(c.shards) : "") +
         (c.simd ? " kernels=simd" : "");
}

// The simd plane's extended contract: op counts (charged per batch with
// the scalar formulas) and — at steal/prefetch-free schedules — demand
// page I/O stay EXPECT_EQ-identical to the scalar baseline; objectives
// and parameters agree to a per-family tolerance (the batched kernels
// reassociate strip summation).
constexpr SchedConfig kSimdConfigs[] = {
    {1, false, false, 1, true},
    {4, false, false, 1, true},
    {2, false, false, 3, true},
    {4, true, true, 1, true}};

/// Trains one (family, algorithm) under every scheduler config and
/// asserts bit-identical objectives, op counts and parameters against the
/// threads=1 steal=off baseline. `train(threads, steal, report)` runs one
/// training; `diff` is the family's MaxAbsDiff. Returns the baseline
/// objective for the cross-strategy check.
template <typename Train, typename Diff>
double ExpectScheduleInvariance(Train train, Diff diff,
                                const std::string& label,
                                double simd_obj_tol, double simd_param_tol) {
  core::TrainReport base_report;
  auto base = train(kConfigs[0], &base_report);
  EXPECT_TRUE(base.ok()) << label << ": " << base.status().ToString();
  if (!base.ok()) return 0.0;
  EXPECT_GT(base_report.morsel_chunks, 0) << label;
  EXPECT_EQ(base_report.io.prefetch_reads, 0u) << label;
  for (size_t i = 1; i < std::size(kConfigs); ++i) {
    const std::string tag = label + " [" + CfgName(kConfigs[i]) + "]";
    core::TrainReport report;
    auto model = train(kConfigs[i], &report);
    EXPECT_TRUE(model.ok()) << tag << ": " << model.status().ToString();
    if (!model.ok()) continue;
    EXPECT_EQ(report.final_objective, base_report.final_objective) << tag;
    EXPECT_EQ(report.iterations, base_report.iterations) << tag;
    EXPECT_EQ(report.ops.mults, base_report.ops.mults) << tag;
    EXPECT_EQ(report.ops.adds, base_report.ops.adds) << tag;
    EXPECT_EQ(report.ops.subs, base_report.ops.subs) << tag;
    EXPECT_EQ(report.ops.exps, base_report.ops.exps) << tag;
    EXPECT_EQ(diff(base.value(), model.value()), 0.0) << tag;
  }
  for (const SchedConfig& cfg : kSimdConfigs) {
    const std::string tag = label + " [" + CfgName(cfg) + "]";
    core::TrainReport report;
    auto model = train(cfg, &report);
    EXPECT_TRUE(model.ok()) << tag << ": " << model.status().ToString();
    if (!model.ok()) continue;
    EXPECT_EQ(report.iterations, base_report.iterations) << tag;
    EXPECT_EQ(report.ops.mults, base_report.ops.mults) << tag;
    EXPECT_EQ(report.ops.adds, base_report.ops.adds) << tag;
    EXPECT_EQ(report.ops.subs, base_report.ops.subs) << tag;
    EXPECT_EQ(report.ops.exps, base_report.ops.exps) << tag;
    // Page I/O is only comparable at the baseline's own schedule (extra
    // workers re-read chunk-boundary pages through their own cursors);
    // there the simd plane must not move a single page.
    if (!cfg.steal && !cfg.prefetch && cfg.threads == kConfigs[0].threads &&
        cfg.shards == kConfigs[0].shards) {
      EXPECT_EQ(report.io.pages_read, base_report.io.pages_read) << tag;
      EXPECT_EQ(report.io.pages_written, base_report.io.pages_written)
          << tag;
    }
    EXPECT_NEAR(report.final_objective, base_report.final_objective,
                simd_obj_tol * std::fabs(base_report.final_objective) +
                    1e-12)
        << tag;
    EXPECT_LT(diff(base.value(), model.value()), simd_param_tol) << tag;
  }
  return base_report.final_objective;
}

/// The strategies reorder factorized accumulation, so objectives agree to
/// a relative tolerance only.
void ExpectStrategiesAgree(const double obj[3], const std::string& label) {
  const double scale = std::fabs(obj[0]) + 1e-12;
  EXPECT_NEAR(obj[0], obj[1], 1e-9 * scale) << label << " M vs S";
  EXPECT_NEAR(obj[0], obj[2], 1e-5 * scale) << label << " M vs F";
}

class FuzzParityTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzParityTest, StealScheduleInvariance) {
  const int seed = GetParam();
  Rng rng(0x9E3779B97F4A7C15ull ^ (static_cast<uint64_t>(seed) * 2654435761ull));

  // ---- random schema / data ------------------------------------------
  // 0 gmm, 1 nn, 2 linreg, 3 kmeans, 4 logreg. Seeds 0-59 keep the
  // four-family cycle they were drawn with.
  const int family = seed < 60 ? seed % 4 : 4;
  const bool needs_target = family == 1 || family == 2 || family == 4;

  TempDir dir;
  data::SyntheticSpec spec;
  spec.dir = dir.str();
  spec.s_rows = 200 + static_cast<int64_t>(rng.NextBelow(500));
  spec.s_feats = 1 + static_cast<size_t>(rng.NextBelow(3));
  spec.attrs = {data::AttributeSpec{4 + static_cast<int64_t>(rng.NextBelow(40)),
                                    1 + static_cast<size_t>(rng.NextBelow(3))}};
  if (rng.NextBelow(3) == 0) {  // one case in three is a multi-way join
    spec.attrs.push_back(data::AttributeSpec{
        3 + static_cast<int64_t>(rng.NextBelow(12)),
        1 + static_cast<size_t>(rng.NextBelow(2))});
  }
  spec.clusters = 2 + static_cast<int>(rng.NextBelow(3));
  spec.with_target = needs_target;
  spec.seed = 1000 + static_cast<uint64_t>(seed);
  switch (rng.NextBelow(3)) {
    case 0:
      spec.run_dist = RunDist::kUniform;
      break;
    case 1:
      spec.run_dist = RunDist::kZipf;
      spec.zipf_s = 0.7 + rng.NextDouble();
      break;
    default:
      spec.run_dist = RunDist::kSingleGiant;  // runs far longer than a chunk
      break;
  }
  const auto morsel_rows = static_cast<int64_t>(16u << rng.NextBelow(4));
  const auto batch_rows = static_cast<size_t>(32u << rng.NextBelow(3));
  // Model hyperparameters are drawn ONCE, before the strategy loop — every
  // strategy must train the identical model for the agreement check to
  // mean anything.
  const size_t k = 2 + rng.NextBelow(2);        // GMM components / k-means k
  const size_t hidden = 4 + rng.NextBelow(8);   // NN hidden width
  const bool shuffle = rng.NextBelow(2) == 1;   // NN per-epoch permutation

  BufferPool pool(256);
  auto rel_or = GenerateSynthetic(spec, &pool);
  ASSERT_TRUE(rel_or.ok()) << rel_or.status().ToString();
  const auto rel = std::move(rel_or).value();

  const std::string label = "seed=" + std::to_string(seed) + " family=" +
                            std::to_string(family) + " morsel=" +
                            std::to_string(morsel_rows);

  // ---- one family x all strategies x all schedules -------------------
  double objectives[3] = {0.0, 0.0, 0.0};
  for (int a = 0; a < 3; ++a) {
    const core::Algorithm algo = kAlgos[a];
    const std::string alabel = label + " " + core::AlgorithmName(algo);
    switch (family) {
      case 0: {
        gmm::GmmOptions opt;
        opt.num_components = k;
        opt.max_iters = 2;
        opt.cov_reg = 1e-4;  // random tiny datasets need a sturdier ridge
        opt.batch_rows = batch_rows;
        opt.morsel_rows = morsel_rows;
        opt.temp_dir = dir.str();
        objectives[a] = ExpectScheduleInvariance(
            [&](const SchedConfig& cfg, core::TrainReport* report) {
              auto o = opt;
              o.threads = cfg.threads;
              o.steal = cfg.steal;
              o.prefetch = cfg.prefetch;
              o.shards = cfg.shards;
              o.kernels = cfg.simd ? la::KernelMode::kSimd
                                   : la::KernelMode::kScalar;
              pool.Clear();
              return core::TrainGmm(rel, o, algo, &pool, report);
            },
            &gmm::GmmParams::MaxAbsDiff, alabel, 1e-9, 1e-6);
        break;
      }
      case 1: {
        nn::NnOptions opt;
        opt.hidden = {hidden};
        opt.epochs = 2;
        opt.shuffle = shuffle;
        opt.batch_rows = batch_rows;
        opt.morsel_rows = morsel_rows;
        opt.temp_dir = dir.str();
        // The mini-batch plane has no full-pass morsels; the scheduler
        // flags must be accepted and ignored, and the thread count must
        // not leak into the SGD trajectory (row/column morsels decompose
        // without reordering any accumulation) — though parallel workers
        // may redo per-group shared work, so op counts are only asserted
        // between steal settings at the SAME thread count (kConfigs pairs
        // i and i+3 share a thread count).
        nn::Mlp base;
        core::TrainReport reports[std::size(kConfigs)];
        bool rejected_shards = false;
        for (size_t i = 0; i < std::size(kConfigs); ++i) {
          auto o = opt;
          o.threads = kConfigs[i].threads;
          o.steal = kConfigs[i].steal;
          o.prefetch = kConfigs[i].prefetch;
          if (kConfigs[i].shards > 1) {
            // The mini-batch plane rejects sharding: assert the clean
            // error once, then skip the config (its report stays empty
            // and the op-count pairing below skips it too).
            if (!rejected_shards) {
              o.shards = kConfigs[i].shards;
              pool.Clear();
              auto bad = core::TrainNn(rel, o, algo, &pool, nullptr);
              EXPECT_FALSE(bad.ok()) << alabel << ": shards must be rejected";
              EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
                  << alabel;
              rejected_shards = true;
            }
            continue;
          }
          pool.Clear();
          auto mlp = core::TrainNn(rel, o, algo, &pool, &reports[i]);
          ASSERT_TRUE(mlp.ok())
              << alabel << ": " << mlp.status().ToString();
          if (i == 0) {
            base = std::move(mlp).value();
            objectives[a] = reports[0].final_objective;
            continue;
          }
          const std::string tag = alabel + " [" + CfgName(kConfigs[i]) + "]";
          EXPECT_EQ(reports[i].final_objective, reports[0].final_objective)
              << tag;
          EXPECT_EQ(nn::Mlp::MaxAbsDiffParams(base, mlp.value()), 0.0) << tag;
        }
        // Op counts compare only at equal thread counts (parallel workers
        // redo per-group shared work): pair every config with the first
        // earlier config sharing its thread count.
        for (size_t i = 1; i < std::size(kConfigs); ++i) {
          if (kConfigs[i].shards > 1) continue;
          for (size_t j = 0; j < i; ++j) {
            if (kConfigs[j].shards > 1 ||
                kConfigs[j].threads != kConfigs[i].threads) {
              continue;
            }
            const std::string tag =
                alabel + " [" + CfgName(kConfigs[i]) + " vs " +
                CfgName(kConfigs[j]) + "]";
            EXPECT_EQ(reports[i].ops.mults, reports[j].ops.mults) << tag;
            EXPECT_EQ(reports[i].ops.adds, reports[j].ops.adds) << tag;
            break;
          }
        }
        // --kernels=simd feeds the epoch plane strip-packed batches and
        // runs forward/backward as gemm_strip products: identical op
        // counts and page I/O at the same thread count, the same SGD
        // trajectory to tolerance — and since the strip partitions
        // (rows for the forward, columns for the W1 gradient) decompose
        // without reordering any accumulation, the simd plane itself is
        // thread-invariant bit-for-bit.
        {
          nn::Mlp simd_base;
          core::TrainReport simd_reports[2];
          const int simd_threads[2] = {kConfigs[0].threads, 4};
          for (int t = 0; t < 2; ++t) {
            auto o = opt;
            o.threads = simd_threads[t];
            o.kernels = la::KernelMode::kSimd;
            pool.Clear();
            auto mlp = core::TrainNn(rel, o, algo, &pool, &simd_reports[t]);
            ASSERT_TRUE(mlp.ok())
                << alabel << ": " << mlp.status().ToString();
            const std::string tag = alabel + " [kernels=simd threads=" +
                                    std::to_string(o.threads) + "]";
            if (t == 0) {
              EXPECT_EQ(simd_reports[0].ops.mults, reports[0].ops.mults)
                  << tag;
              EXPECT_EQ(simd_reports[0].ops.adds, reports[0].ops.adds)
                  << tag;
              EXPECT_EQ(simd_reports[0].io.pages_read,
                        reports[0].io.pages_read)
                  << tag;
              EXPECT_EQ(simd_reports[0].io.pages_written,
                        reports[0].io.pages_written)
                  << tag;
              EXPECT_NEAR(simd_reports[0].final_objective,
                          reports[0].final_objective,
                          1e-6 * std::fabs(reports[0].final_objective) +
                              1e-12)
                  << tag;
              EXPECT_LT(nn::Mlp::MaxAbsDiffParams(base, mlp.value()), 1e-4)
                  << tag;
              simd_base = std::move(mlp).value();
            } else {
              EXPECT_EQ(simd_reports[1].final_objective,
                        simd_reports[0].final_objective)
                  << tag;
              EXPECT_EQ(nn::Mlp::MaxAbsDiffParams(simd_base, mlp.value()),
                        0.0)
                  << tag;
            }
          }
        }
        break;
      }
      case 2: {
        linreg::LinregOptions opt;
        opt.batch_rows = batch_rows;
        opt.morsel_rows = morsel_rows;
        opt.temp_dir = dir.str();
        objectives[a] = ExpectScheduleInvariance(
            [&](const SchedConfig& cfg, core::TrainReport* report) {
              auto o = opt;
              o.threads = cfg.threads;
              o.steal = cfg.steal;
              o.prefetch = cfg.prefetch;
              o.shards = cfg.shards;
              o.kernels = cfg.simd ? la::KernelMode::kSimd
                                   : la::KernelMode::kScalar;
              pool.Clear();
              return core::TrainLinreg(rel, o, algo, &pool, report);
            },
            &linreg::LinregModel::MaxAbsDiff, alabel, 1e-8, 1e-5);
        break;
      }
      case 4: {
        logreg::LogregOptions opt;
        opt.max_iters = 2;
        opt.batch_rows = batch_rows;
        opt.morsel_rows = morsel_rows;
        opt.temp_dir = dir.str();
        objectives[a] = ExpectScheduleInvariance(
            [&](const SchedConfig& cfg, core::TrainReport* report) {
              auto o = opt;
              o.threads = cfg.threads;
              o.steal = cfg.steal;
              o.prefetch = cfg.prefetch;
              o.shards = cfg.shards;
              o.kernels = cfg.simd ? la::KernelMode::kSimd
                                   : la::KernelMode::kScalar;
              pool.Clear();
              return core::TrainLogreg(rel, o, algo, &pool, report);
            },
            &logreg::LogregModel::MaxAbsDiff, alabel, 1e-8, 1e-5);
        break;
      }
      default: {
        kmeans::KmeansOptions opt;
        opt.num_clusters = k;
        opt.max_iters = 2;
        opt.batch_rows = batch_rows;
        opt.morsel_rows = morsel_rows;
        opt.temp_dir = dir.str();
        objectives[a] = ExpectScheduleInvariance(
            [&](const SchedConfig& cfg, core::TrainReport* report) {
              auto o = opt;
              o.threads = cfg.threads;
              o.steal = cfg.steal;
              o.prefetch = cfg.prefetch;
              o.shards = cfg.shards;
              o.kernels = cfg.simd ? la::KernelMode::kSimd
                                   : la::KernelMode::kScalar;
              pool.Clear();
              return core::TrainKmeans(rel, o, algo, &pool, report);
            },
            &kmeans::KmeansModel::MaxAbsDiff, alabel, 1e-9, 1e-6);
        break;
      }
    }
  }
  if (!::testing::Test::HasFailure()) ExpectStrategiesAgree(objectives, label);
}

// 75 seeded cases = 15 per model family; the acceptance bar is 50+.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParityTest, ::testing::Range(0, 75));

}  // namespace
}  // namespace factorml
