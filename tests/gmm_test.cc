#include <cmath>
#include <tuple>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "gmm/gmm_model.h"
#include "gmm/trainers.h"
#include "gtest/gtest.h"
#include "la/ops.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace factorml::gmm {
namespace {

using data::GenerateSynthetic;
using factorml::testing::TempDir;
using storage::BufferPool;

data::SyntheticSpec SmallSpec(const std::string& dir, int64_t n_s = 600,
                              int64_t n_r = 30, size_t d_s = 3,
                              size_t d_r = 4) {
  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.s_rows = n_s;
  spec.s_feats = d_s;
  spec.attrs = {data::AttributeSpec{n_r, d_r}};
  spec.clusters = 3;
  spec.seed = 21;
  return spec;
}

GmmOptions SmallOptions(const std::string& dir) {
  GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 4;
  opt.batch_rows = 64;
  opt.temp_dir = dir;
  return opt;
}

// ------------------------------------------------------------- GmmModel

TEST(GmmModelTest, InitShapes) {
  la::Matrix seeds(3, 5);
  seeds(1, 2) = 7.0;
  GmmParams p = GmmParams::Init(seeds, 2.0);
  EXPECT_EQ(p.num_components(), 3u);
  EXPECT_EQ(p.dims(), 5u);
  EXPECT_DOUBLE_EQ(p.pi[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.mu(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(p.sigma[0](2, 2), 2.0);
  EXPECT_DOUBLE_EQ(p.sigma[0](0, 2), 0.0);
}

TEST(GmmModelTest, LogSumExpStableForExtremeValues) {
  const double v1[] = {-1000.0, -1000.0};
  EXPECT_NEAR(LogSumExp(v1, 2), -1000.0 + std::log(2.0), 1e-9);
  const double v2[] = {700.0, 0.0};
  EXPECT_NEAR(LogSumExp(v2, 2), 700.0, 1e-9);
  const double v3[] = {1.0, 2.0, 3.0};
  EXPECT_NEAR(LogSumExp(v3, 3),
              std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0)), 1e-9);
}

TEST(GmmModelTest, DensityPrecisionInvertsSigma) {
  la::Matrix seeds(2, 2);
  GmmParams p = GmmParams::Init(seeds, 4.0);  // Sigma = 4I
  auto density = std::move(GmmDensity::From(p)).value();
  EXPECT_NEAR(density.precision[0](0, 0), 0.25, 1e-10);
  EXPECT_NEAR(density.precision[0](0, 1), 0.0, 1e-10);
  // log_coeff = log(pi) - 0.5 (d log 2pi + log|Sigma|), |Sigma| = 16.
  const double expect =
      std::log(0.5) - 0.5 * (2.0 * std::log(2.0 * M_PI) + std::log(16.0));
  EXPECT_NEAR(density.log_coeff[0], expect, 1e-9);
}

TEST(GmmModelTest, MaxAbsDiffDetectsChanges) {
  la::Matrix seeds(2, 2);
  GmmParams a = GmmParams::Init(seeds, 1.0);
  GmmParams b = a;
  EXPECT_DOUBLE_EQ(GmmParams::MaxAbsDiff(a, b), 0.0);
  b.mu(1, 1) += 0.25;
  EXPECT_DOUBLE_EQ(GmmParams::MaxAbsDiff(a, b), 0.25);
}

// --------------------------------------------- Exactness: M == S == F

// The paper's central correctness claim (Sec. V-B): the factorized
// decomposition is exact, so all three algorithms deliver identical
// parameters. We assert equality to floating-point-reordering tolerance.
class GmmExactnessTest
    : public ::testing::TestWithParam<std::tuple<int64_t, size_t, size_t>> {};

TEST_P(GmmExactnessTest, AllAlgorithmsAgree) {
  const auto [n_r, d_s, d_r] = GetParam();
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(
                           SmallSpec(dir.str(), 40 * n_r, n_r, d_s, d_r),
                           &pool))
                 .value();
  const GmmOptions opt = SmallOptions(dir.str());

  core::TrainReport rm, rs, rf;
  auto m = std::move(core::TrainGmm(rel, opt, core::Algorithm::kMaterialized,
                                    &pool, &rm)).value();
  auto s = std::move(core::TrainGmm(rel, opt, core::Algorithm::kStreaming,
                                    &pool, &rs)).value();
  auto f = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                    &pool, &rf)).value();

  EXPECT_LT(GmmParams::MaxAbsDiff(m, s), 1e-8);
  EXPECT_LT(GmmParams::MaxAbsDiff(m, f), 1e-6);
  EXPECT_NEAR(rm.final_objective, rf.final_objective,
              1e-6 * std::fabs(rm.final_objective));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GmmExactnessTest,
    ::testing::Values(std::make_tuple(20, 3, 4),
                      std::make_tuple(10, 1, 8),
                      std::make_tuple(30, 5, 2),
                      std::make_tuple(5, 2, 2)));

TEST(GmmExactnessTest, MultiwayAllAlgorithmsAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = SmallSpec(dir.str(), 500, 20, 2, 3);
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  const GmmOptions opt = SmallOptions(dir.str());

  auto m = std::move(core::TrainGmm(rel, opt, core::Algorithm::kMaterialized,
                                    &pool, nullptr)).value();
  auto s = std::move(core::TrainGmm(rel, opt, core::Algorithm::kStreaming,
                                    &pool, nullptr)).value();
  auto f = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                    &pool, nullptr)).value();
  EXPECT_LT(GmmParams::MaxAbsDiff(m, s), 1e-8);
  EXPECT_LT(GmmParams::MaxAbsDiff(m, f), 1e-6);
}

TEST(GmmExactnessTest, SymmetryModesAgree) {
  // F-GMM with the symmetric cross-block refinement must equal the
  // paper-literal variant (LL = UR^T is exact, not approximate) while
  // doing measurably fewer multiplications.
  TempDir dir;
  BufferPool pool(512);
  auto spec = SmallSpec(dir.str(), 800, 20, 3, 6);
  spec.attrs.push_back(data::AttributeSpec{10, 4});  // multiway stresses it
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());
  core::TrainReport sym_report, lit_report;
  auto sym = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                      &pool, &sym_report)).value();
  opt.exploit_symmetry = false;
  auto literal = std::move(core::TrainGmm(rel, opt,
                                          core::Algorithm::kFactorized, &pool,
                                          &lit_report)).value();
  EXPECT_LT(GmmParams::MaxAbsDiff(sym, literal), 1e-7);
  EXPECT_LT(sym_report.ops.mults, lit_report.ops.mults);
}

TEST(GmmExactnessTest, RandomInitStillAgreesAcrossAlgorithms) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());
  opt.init = GmmInit::kRandomRows;
  opt.seed = 77;
  auto m = std::move(core::TrainGmm(rel, opt, core::Algorithm::kMaterialized,
                                    &pool, nullptr)).value();
  auto f = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                    &pool, nullptr)).value();
  EXPECT_LT(GmmParams::MaxAbsDiff(m, f), 1e-6);
}

TEST(GmmTrainingTest, InitMethodsProduceDifferentStarts) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());
  opt.max_iters = 1;
  auto spread = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                         &pool, nullptr)).value();
  opt.init = GmmInit::kRandomRows;
  opt.seed = 123;
  auto random = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                         &pool, nullptr)).value();
  EXPECT_GT(GmmParams::MaxAbsDiff(spread, random), 1e-6);
}

TEST(GmmExactnessTest, UnmatchedAttributeTuplesHandled) {
  // More attribute tuples than fact tuples: many rids have no matching
  // fact row; their cached blocks must contribute nothing.
  TempDir dir;
  BufferPool pool(512);
  auto spec = SmallSpec(dir.str(), 12, 30, 2, 3);
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());
  opt.num_components = 2;
  auto m = std::move(core::TrainGmm(rel, opt, core::Algorithm::kMaterialized,
                                    &pool, nullptr)).value();
  core::TrainReport report;
  auto f = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                    &pool, &report)).value();
  EXPECT_LT(GmmParams::MaxAbsDiff(m, f), 1e-6);
  // The deferred mean and covariance updates charge one Axpy / AddOuter
  // per attribute tuple, zero-mass rids included: pin F's counts so a
  // change to that charge rule shows (captured at threads=1, scalar).
  EXPECT_EQ(report.ops.mults, 11256u);
  EXPECT_EQ(report.ops.adds, 9896u);
}

TEST(GmmExactnessTest, BatchSizeDoesNotChangeResult) {
  // EM accumulates over full passes, so the streamed batch granularity is
  // irrelevant to the trained parameters.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());
  opt.batch_rows = 7;
  auto fine = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                       &pool, nullptr)).value();
  opt.batch_rows = 100000;
  auto coarse = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                         &pool, nullptr)).value();
  EXPECT_LT(GmmParams::MaxAbsDiff(fine, coarse), 1e-9);
}

TEST(GmmTrainingTest, CovRegAppearsOnDiagonal) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());
  opt.max_iters = 1;
  opt.cov_reg = 0.0;
  auto plain = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                        &pool, nullptr)).value();
  opt.cov_reg = 0.5;
  auto ridged = std::move(core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                         &pool, nullptr)).value();
  for (size_t c = 0; c < plain.num_components(); ++c) {
    for (size_t j = 0; j < plain.dims(); ++j) {
      EXPECT_NEAR(ridged.sigma[c](j, j) - plain.sigma[c](j, j), 0.5, 1e-9);
    }
  }
}

// ------------------------------------------------------- EM properties

TEST(GmmTrainingTest, LogLikelihoodIsFiniteAndImproves) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());

  opt.max_iters = 1;
  core::TrainReport r1;
  ASSERT_TRUE(core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                             &r1).ok());
  opt.max_iters = 6;
  core::TrainReport r6;
  ASSERT_TRUE(core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                             &r6).ok());
  EXPECT_TRUE(std::isfinite(r1.final_objective));
  EXPECT_TRUE(std::isfinite(r6.final_objective));
  // EM is monotone in the log-likelihood.
  EXPECT_GE(r6.final_objective, r1.final_objective - 1e-9);
}

TEST(GmmTrainingTest, MixingWeightsFormDistribution) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  auto p = std::move(core::TrainGmm(rel, SmallOptions(dir.str()),
                                    core::Algorithm::kFactorized, &pool,
                                    nullptr)).value();
  double sum = 0.0;
  for (const double pi : p.pi) {
    EXPECT_GE(pi, 0.0);
    EXPECT_LE(pi, 1.0);
    sum += pi;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GmmTrainingTest, CovariancesStaySymmetric) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  auto p = std::move(core::TrainGmm(rel, SmallOptions(dir.str()),
                                    core::Algorithm::kFactorized, &pool,
                                    nullptr)).value();
  for (const auto& sigma : p.sigma) {
    for (size_t i = 0; i < sigma.rows(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        EXPECT_NEAR(sigma(i, j), sigma(j, i), 1e-8);
      }
    }
  }
}

TEST(GmmTrainingTest, ConvergenceToleranceStopsEarly) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());
  opt.max_iters = 50;
  opt.tol = 1e-3;  // loose: should stop well before 50 iterations
  core::TrainReport report;
  ASSERT_TRUE(core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                             &report).ok());
  EXPECT_LT(report.iterations, 50);
  EXPECT_GE(report.iterations, 2);
}

// --------------------------------------------------- Cost accounting

TEST(GmmCostTest, FactorizedDoesFewerMultiplications) {
  TempDir dir;
  BufferPool pool(1024);
  // High redundancy: rr = 100, wide R side.
  auto rel = std::move(GenerateSynthetic(
                           SmallSpec(dir.str(), 4000, 40, 2, 10), &pool))
                 .value();
  const GmmOptions opt = SmallOptions(dir.str());
  core::TrainReport rs, rf;
  ASSERT_TRUE(core::TrainGmm(rel, opt, core::Algorithm::kStreaming, &pool,
                             &rs).ok());
  ASSERT_TRUE(core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                             &rf).ok());
  EXPECT_LT(rf.ops.mults, rs.ops.mults);
  // With dR >> dS and rr = 100 the savings must be substantial (> 1.5x).
  EXPECT_GT(static_cast<double>(rs.ops.mults),
            1.5 * static_cast<double>(rf.ops.mults));
}

TEST(GmmCostTest, MaterializedWritesAndRereadsT) {
  TempDir dir;
  BufferPool pool(64);  // small pool so re-reads hit disk
  auto rel = std::move(GenerateSynthetic(
                           SmallSpec(dir.str(), 4000, 40, 3, 4), &pool))
                 .value();
  const GmmOptions opt = SmallOptions(dir.str());
  core::TrainReport rm, rf;
  ASSERT_TRUE(core::TrainGmm(rel, opt, core::Algorithm::kMaterialized, &pool,
                             &rm).ok());
  ASSERT_TRUE(core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                             &rf).ok());
  EXPECT_GT(rm.io.pages_written, 0u);   // T was materialized
  EXPECT_EQ(rf.io.pages_written, 0u);   // F never writes
  EXPECT_GT(rm.io.pages_read, rf.io.pages_read);
  EXPECT_GT(rm.materialize_seconds, 0.0);
}

TEST(GmmCostTest, ReportFieldsPopulated) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(SmallSpec(dir.str()), &pool)).value();
  core::TrainReport report;
  ASSERT_TRUE(core::TrainGmm(rel, SmallOptions(dir.str()),
                             core::Algorithm::kStreaming, &pool, &report).ok());
  EXPECT_EQ(report.algorithm, "S-GMM");
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_EQ(report.iterations, 4);
  EXPECT_GT(report.ops.mults, 0u);
  EXPECT_FALSE(report.ToString().empty());
}

// ------------------------------------------------------------ Errors

TEST(GmmTrainingTest, MoreComponentsThanPointsFails) {
  TempDir dir;
  BufferPool pool(64);
  auto spec = SmallSpec(dir.str(), 4, 2, 2, 2);
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  GmmOptions opt = SmallOptions(dir.str());
  opt.num_components = 100;
  EXPECT_FALSE(core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                              nullptr).ok());
}

}  // namespace
}  // namespace factorml::gmm
