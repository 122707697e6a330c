// Parallel exactness: every trainer run on the exec/ morsel-driven
// runtime must deliver the parameters of the serial run. The NN path
// decomposes into row morsels (forward) and column morsels (W1 gradient),
// both bit-identical; the full-pass families (GMM, linreg) accumulate one
// slot per chunk of a thread-independent chunk plan and merge the slots in
// chunk order, so they are bit-identical too.

#include <cmath>
#include <tuple>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "gmm/gmm_model.h"
#include "gmm/trainers.h"
#include "gtest/gtest.h"
#include "linreg/linreg.h"
#include "nn/mlp.h"
#include "nn/trainers.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace factorml {
namespace {

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

/// Larger than one default (4,096-row) chunk: the default plan has 5
/// chunks, so a thread count that leaked into the merge would show.
data::SyntheticSpec MultiChunkSpec(const std::string& dir, bool target) {
  data::SyntheticSpec spec = Spec(dir, target);
  spec.s_rows = 20000;
  return spec;
}

void ExpectSameRun(const core::TrainReport& a, const core::TrainReport& b) {
  EXPECT_EQ(a.final_objective, b.final_objective);
  EXPECT_EQ(a.morsel_chunks, b.morsel_chunks);
  EXPECT_EQ(a.ops.mults, b.ops.mults);
  EXPECT_EQ(a.ops.adds, b.ops.adds);
  EXPECT_EQ(a.ops.subs, b.ops.subs);
  EXPECT_EQ(a.ops.exps, b.ops.exps);
}

gmm::GmmOptions GmmOpt(const std::string& dir, int threads) {
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir;
  opt.threads = threads;
  return opt;
}

nn::NnOptions NnOpt(const std::string& dir, int threads) {
  nn::NnOptions opt;
  opt.hidden = {16};
  opt.epochs = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir;
  opt.threads = threads;
  return opt;
}

// ------------------------------------------------------------------ GMM

class GmmParallelExactnessTest
    : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(GmmParallelExactnessTest, FourThreadsMatchOneThread) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(MultiChunkSpec(dir.str(), false),
                                         &pool))
                 .value();

  core::TrainReport r1, r4;
  pool.Clear();
  auto serial = std::move(core::TrainGmm(rel, GmmOpt(dir.str(), 1),
                                         GetParam(), &pool, &r1))
                    .value();
  pool.Clear();
  auto parallel = std::move(core::TrainGmm(rel, GmmOpt(dir.str(), 4),
                                           GetParam(), &pool, &r4))
                      .value();

  // morsel_rows is unset: the default chunk plan splits the pass into the
  // same chunks at any thread count and merges them in chunk order, so the
  // parallel run reproduces the serial bits and op stream exactly.
  EXPECT_GT(r1.morsel_chunks, 1);
  EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(serial, parallel), 0.0);
  ExpectSameRun(r1, r4);
  EXPECT_EQ(r1.threads, 1);
  EXPECT_EQ(r4.threads, 4);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, GmmParallelExactnessTest,
                         ::testing::Values(core::Algorithm::kMaterialized,
                                           core::Algorithm::kStreaming,
                                           core::Algorithm::kFactorized));

TEST(GmmParallelExactnessTest, MultiwayFactorizedMatches) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), false);
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();

  auto serial = std::move(core::TrainGmm(rel, GmmOpt(dir.str(), 1),
                                         core::Algorithm::kFactorized, &pool,
                                         nullptr)).value();
  auto parallel = std::move(core::TrainGmm(rel, GmmOpt(dir.str(), 3),
                                           core::Algorithm::kFactorized, &pool,
                                           nullptr)).value();
  EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(serial, parallel), 0.0);
}

TEST(GmmParallelExactnessTest, MoreThreadsThanRidsStillWorks) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), false);
  spec.attrs[0].rows = 3;  // fewer FK1 runs than workers
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  auto serial = std::move(core::TrainGmm(rel, GmmOpt(dir.str(), 1),
                                         core::Algorithm::kFactorized, &pool,
                                         nullptr)).value();
  auto parallel = std::move(core::TrainGmm(rel, GmmOpt(dir.str(), 8),
                                           core::Algorithm::kFactorized, &pool,
                                           nullptr)).value();
  EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(serial, parallel), 0.0);
}

// --------------------------------------------------------------- linreg

class LinregParallelExactnessTest
    : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(LinregParallelExactnessTest, FourThreadsMatchOneThread) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = std::move(GenerateSynthetic(MultiChunkSpec(dir.str(), true),
                                         &pool))
                 .value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();

  core::TrainReport r1, r4;
  opt.threads = 1;
  pool.Clear();
  auto serial =
      std::move(core::TrainLinreg(rel, opt, GetParam(), &pool, &r1)).value();
  opt.threads = 4;
  pool.Clear();
  auto parallel =
      std::move(core::TrainLinreg(rel, opt, GetParam(), &pool, &r4)).value();

  // Same contract as GMM: the Gram/cofactor partials are summed per chunk
  // and merged in chunk order, whoever computed each chunk.
  EXPECT_GT(r1.morsel_chunks, 1);
  EXPECT_EQ(linreg::LinregModel::MaxAbsDiff(serial, parallel), 0.0);
  ExpectSameRun(r1, r4);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, LinregParallelExactnessTest,
                         ::testing::Values(core::Algorithm::kMaterialized,
                                           core::Algorithm::kStreaming,
                                           core::Algorithm::kFactorized));

// ------------------------------------------------------------------- NN

class NnParallelExactnessTest
    : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(NnParallelExactnessTest, FourThreadsMatchOneThread) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();

  core::TrainReport r1, r4;
  pool.Clear();
  auto serial = std::move(core::TrainNn(rel, NnOpt(dir.str(), 1), GetParam(),
                                        &pool, &r1))
                    .value();
  pool.Clear();
  auto parallel = std::move(core::TrainNn(rel, NnOpt(dir.str(), 4),
                                          GetParam(), &pool, &r4))
                      .value();

  // Row morsels (forward) and column morsels (gradient) decompose the
  // arithmetic without reordering any accumulation, so the SGD trajectory
  // is reproduced exactly.
  EXPECT_LT(nn::Mlp::MaxAbsDiffParams(serial, parallel), 1e-12);
  EXPECT_NEAR(r1.final_objective, r4.final_objective,
              1e-12 * std::fabs(r1.final_objective) + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, NnParallelExactnessTest,
                         ::testing::Values(core::Algorithm::kMaterialized,
                                           core::Algorithm::kStreaming,
                                           core::Algorithm::kFactorized));

TEST(NnParallelExactnessTest, ShuffledGroupedBackwardMatches) {
  // The hardest F-NN configuration: per-epoch rid permutation plus the
  // grouped backward extension, threads=1 vs threads=4.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();

  auto opt1 = NnOpt(dir.str(), 1);
  opt1.shuffle = true;
  opt1.grouped_backward = true;
  auto opt4 = opt1;
  opt4.threads = 4;

  auto serial = std::move(core::TrainNn(rel, opt1, core::Algorithm::kFactorized,
                                        &pool, nullptr)).value();
  auto parallel = std::move(core::TrainNn(rel, opt4,
                                          core::Algorithm::kFactorized, &pool,
                                          nullptr)).value();
  EXPECT_LT(nn::Mlp::MaxAbsDiffParams(serial, parallel), 1e-12);
}

TEST(NnParallelExactnessTest, DropoutMomentumMatches) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();

  auto opt1 = NnOpt(dir.str(), 1);
  opt1.hidden_dropout = 0.3;
  opt1.momentum = 0.9;
  opt1.weight_decay = 1e-4;
  auto opt4 = opt1;
  opt4.threads = 4;

  auto serial = std::move(core::TrainNn(rel, opt1, core::Algorithm::kStreaming,
                                        &pool, nullptr)).value();
  auto parallel = std::move(core::TrainNn(rel, opt4,
                                          core::Algorithm::kStreaming, &pool,
                                          nullptr)).value();
  EXPECT_LT(nn::Mlp::MaxAbsDiffParams(serial, parallel), 1e-12);
}

}  // namespace
}  // namespace factorml
