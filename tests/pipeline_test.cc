// core/pipeline tests.
//
// 1) Seed-regression: the six GMM/NN trainers, now thin ModelProgram
//    bindings on the pipeline, must reproduce the pre-refactor outputs
//    *bit-identically* at --threads=1 — objectives (exact doubles), op
//    counts and page I/O. The golden values below were captured from the
//    hand-written trainers before the pipeline refactor; the linreg and
//    logreg goldens from their separate programs, before both moved onto
//    the shared GramCofactor pass; the k-means goldens and GMM's two-join
//    F case from the GMM and k-means programs before their per-rid mass
//    moved into one shared class.
// 2) Parity: the two model families added on top of the pipeline (ridge
//    linear regression, k-means) must produce matching parameters and
//    objectives under all three strategies at threads 1 and 4.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/opcount.h"
#include "core/factorml.h"
#include "core/pipeline/checkpoint.h"
#include "gtest/gtest.h"
#include "join/assemble.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "linreg/gram_cofactor.h"
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

constexpr core::Algorithm kAll[] = {core::Algorithm::kMaterialized,
                                    core::Algorithm::kStreaming,
                                    core::Algorithm::kFactorized};

// ------------------------------------------------- seed bit-exactness

struct Golden {
  double objective;
  uint64_t mults, adds, subs, exps;
  uint64_t pages_read, pages_written;
};

void ExpectGolden(const core::TrainReport& r, const Golden& g) {
  // Op counts and page I/O are integers and must match exactly — they
  // prove the refactored pipeline replays the seed trainers' work
  // stream. The objective goes through libm (exp), which is not
  // correctly rounded across libc versions/platforms, so it gets a
  // last-ulps relative tolerance instead of bitwise equality.
  EXPECT_NEAR(r.final_objective, g.objective,
              1e-12 * std::fabs(g.objective))
      << r.algorithm;
  EXPECT_EQ(r.ops.mults, g.mults) << r.algorithm;
  EXPECT_EQ(r.ops.adds, g.adds) << r.algorithm;
  EXPECT_EQ(r.ops.subs, g.subs) << r.algorithm;
  EXPECT_EQ(r.ops.exps, g.exps) << r.algorithm;
  EXPECT_EQ(r.io.pages_read, g.pages_read) << r.algorithm;
  EXPECT_EQ(r.io.pages_written, g.pages_written) << r.algorithm;
}

TEST(PipelineSeedRegressionTest, GmmTrainersReproduceSeedOutputs) {
  // Captured from the pre-pipeline trainers at --threads=1 (gcc, x86-64).
  const Golden golden[3] = {
      {-0x1.3685da0d6379dp+15, 4111173, 3920373, 459000, 63072, 49, 32},
      {-0x1.3685da0d6379dp+15, 4111173, 3920373, 459000, 63072, 19, 0},
      {-0x1.3685da0d63798p+15, 1758573, 1700973, 192600, 63072, 19, 0},
  };
  TempDir dir;
  BufferPool pool(512);
  // Same dataset as the NN golden run (target carried; GMM skips it).
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    core::TrainReport report;
    auto params = core::TrainGmm(rel, opt, kAll[a], &pool, &report);
    ASSERT_TRUE(params.ok()) << params.status().ToString();
    ExpectGolden(report, golden[a]);
    EXPECT_EQ(report.iterations, 3);
  }
  // F over two joins: table 1's full-domain responsibility mass, its
  // deferred covariance block and the attr-attr cross blocks.
  const Golden two_joins_f = {-0x1.8f5b778401203p+15, 3116574, 2949714,
                              193140, 63090, 23, 0};
  auto spec = Spec(dir.str(), true);
  spec.name = "two_joins";
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel2 = std::move(GenerateSynthetic(spec, &pool)).value();
  pool.Clear();
  core::TrainReport report;
  auto params = core::TrainGmm(rel2, opt, core::Algorithm::kFactorized, &pool,
                               &report);
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  ExpectGolden(report, two_joins_f);
}

TEST(PipelineSeedRegressionTest, NnTrainersReproduceSeedOutputs) {
  const Golden golden[3] = {
      {0x1.61d149e909b2ep-4, 3046830, 3051000, 157830, 144000, 49, 32},
      {0x1.61d149e909b2ep-4, 3046830, 3051000, 157830, 144000, 19, 0},
      {0x1.61d149e909b2ep-4, 2480430, 2342520, 157830, 144000, 19, 0},
  };
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  nn::NnOptions opt;
  opt.hidden = {16};
  opt.epochs = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    core::TrainReport report;
    auto mlp = core::TrainNn(rel, opt, kAll[a], &pool, &report);
    ASSERT_TRUE(mlp.ok()) << mlp.status().ToString();
    ExpectGolden(report, golden[a]);
  }
}

// Every shape the NN upper-layer step takes, pinned per strategy at
// threads=1 under scalar kernels: the other activations, hidden dropout,
// momentum with weight decay, two hidden layers, and F over two joins with
// the grouped backward. Captured from the row-major step before the upper
// layers moved to the transposed (units x batch) layout.
TEST(PipelineSeedRegressionTest, NnStepShapesReproduceRowMajorOutputs) {
  struct Shape {
    const char* name;
    void (*apply)(nn::NnOptions*);
    Golden golden[3];
  };
  const Shape shapes[] = {
      {"tanh",
       [](nn::NnOptions* o) { o->activation = nn::Activation::kTanh; },
       {{0x1.693153ba0eb41p-4, 3046830, 3051000, 157830, 144000, 49, 32},
        {0x1.693153ba0eb41p-4, 3046830, 3051000, 157830, 144000, 19, 0},
        {0x1.693153ba0eb42p-4, 2480430, 2342520, 157830, 144000, 19, 0}}},
      {"relu",
       [](nn::NnOptions* o) { o->activation = nn::Activation::kRelu; },
       {{0x1.727cf0ed3c5dbp-3, 2902830, 3051000, 13830, 0, 49, 32},
        {0x1.727cf0ed3c5dbp-3, 2902830, 3051000, 13830, 0, 19, 0},
        {0x1.727cf0ed3c5dbp-3, 2336430, 2342520, 13830, 0, 19, 0}}},
      // A linear net diverges at the default rate; 0.01 keeps it finite.
      {"identity",
       [](nn::NnOptions* o) {
         o->activation = nn::Activation::kIdentity;
         o->learning_rate = 0.01;
       },
       {{0x1.52724ad8ce264p-3, 2902830, 3051000, 13830, 0, 49, 32},
        {0x1.52724ad8ce264p-3, 2902830, 3051000, 13830, 0, 19, 0},
        {0x1.52724ad8ce263p-3, 2336430, 2342520, 13830, 0, 19, 0}}},
      {"dropout",
       [](nn::NnOptions* o) { o->hidden_dropout = 0.2; },
       {{0x1.24d96386a1bc3p-3, 3334830, 3051000, 157830, 144000, 49, 32},
        {0x1.24d96386a1bc3p-3, 3334830, 3051000, 157830, 144000, 19, 0},
        {0x1.24d96386a1bc2p-3, 2768430, 2342520, 157830, 144000, 19, 0}}},
      {"momentum",
       [](nn::NnOptions* o) {
         o->momentum = 0.9;
         o->weight_decay = 1e-3;
       },
       {{0x1.23dc60453ad39p-4, 3055470, 3063960, 153510, 144000, 49, 32},
        {0x1.23dc60453ad39p-4, 3055470, 3063960, 153510, 144000, 19, 0},
        {0x1.23dc60453ad39p-4, 2489070, 2355480, 153510, 144000, 19, 0}}},
      {"hidden 16x8",
       [](nn::NnOptions* o) { o->hidden = {16, 8}; },
       {{0x1.434928c5ffa5ep-2, 6434670, 6435000, 233670, 216000, 49, 32},
        {0x1.434928c5ffa5ep-2, 6434670, 6435000, 233670, 216000, 19, 0},
        {0x1.434928c5ffa5fp-2, 5868270, 5726520, 233670, 216000, 19, 0}}},
  };
  const Golden two_joins_grouped_f = {0x1.05ab45eaa8e33p-1, 2219310, 2222520,
                                      158790, 144000, 23, 0};
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  nn::NnOptions base;
  base.hidden = {16};
  base.epochs = 3;
  base.batch_rows = 256;
  base.temp_dir = dir.str();
  base.threads = 1;
  base.kernels = la::KernelMode::kScalar;
  for (const Shape& shape : shapes) {
    nn::NnOptions opt = base;
    shape.apply(&opt);
    for (int a = 0; a < 3; ++a) {
      SCOPED_TRACE(shape.name);
      pool.Clear();
      core::TrainReport report;
      auto mlp = core::TrainNn(rel, opt, kAll[a], &pool, &report);
      ASSERT_TRUE(mlp.ok()) << mlp.status().ToString();
      ExpectGolden(report, shape.golden[a]);
    }
  }
  auto spec = Spec(dir.str(), true);
  spec.name = "two_joins";
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel2 = std::move(GenerateSynthetic(spec, &pool)).value();
  nn::NnOptions opt = base;
  opt.grouped_backward = true;
  pool.Clear();
  core::TrainReport report;
  auto mlp =
      core::TrainNn(rel2, opt, core::Algorithm::kFactorized, &pool, &report);
  ASSERT_TRUE(mlp.ok()) << mlp.status().ToString();
  ExpectGolden(report, two_joins_grouped_f);
}

// Linreg and logreg share one weighted Gram/cofactor pass. These goldens
// pin that pass's work stream per family and strategy (threads=1, scalar
// kernels): intercept on and off for linreg, three IRLS iterations for
// logreg, and F over two joins, which adds the attr-attr cross blocks.
TEST(PipelineSeedRegressionTest, LinregTrainersReproduceSeedOutputs) {
  const Golden intercept[3] = {
      {0x1.7eb3d6525658cp-7, 243401, 249301, 2, 0, 49, 32},
      {0x1.7eb3d6525658cp-7, 243401, 249301, 2, 0, 19, 0},
      {0x1.7eb3d65257852p-7, 59721, 56501, 2, 0, 19, 0},
  };
  const Golden no_intercept[3] = {
      {0x1.93c0cc251d92cp-7, 243310, 219229, 2, 0, 49, 32},
      {0x1.93c0cc251d92cp-7, 243310, 219229, 2, 0, 19, 0},
      {0x1.93c0cc251ea12p-7, 59430, 56029, 2, 0, 19, 0},
  };
  const Golden two_joins_f = {0x1.c708d7406d0dp-3, 114234, 101895, 2, 0, 23, 0};
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (const bool on : {true, false}) {
    opt.intercept = on;
    for (int a = 0; a < 3; ++a) {
      pool.Clear();
      core::TrainReport report;
      auto m = core::TrainLinreg(rel, opt, kAll[a], &pool, &report);
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      ExpectGolden(report, on ? intercept[a] : no_intercept[a]);
    }
  }
  auto spec = Spec(dir.str(), true);
  spec.name = "two_joins";
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel2 = std::move(GenerateSynthetic(spec, &pool)).value();
  opt.intercept = true;
  pool.Clear();
  core::TrainReport report;
  auto m = core::TrainLinreg(rel2, opt, core::Algorithm::kFactorized, &pool,
                             &report);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ExpectGolden(report, two_joins_f);
}

TEST(PipelineSeedRegressionTest, LogregTrainersReproduceSeedOutputs) {
  const Golden golden[3] = {
      {-0x1.7e927c623a7aap+2, 918903, 837606, 27027, 9000, 49, 32},
      {-0x1.7e927c623a7aap+2, 918903, 837606, 27027, 9000, 19, 0},
      {-0x1.7e927c623a721p+2, 242463, 223806, 27027, 9000, 19, 0},
  };
  const Golden two_joins_f = {-0x1.6f5645e1223b5p+4, 405960, 368946, 27033,
                              9000, 23, 0};
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  logreg::LogregOptions opt;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    core::TrainReport report;
    auto m = core::TrainLogreg(rel, opt, kAll[a], &pool, &report);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    ExpectGolden(report, golden[a]);
    EXPECT_EQ(report.iterations, 3);
  }
  auto spec = Spec(dir.str(), true);
  spec.name = "two_joins";
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel2 = std::move(GenerateSynthetic(spec, &pool)).value();
  pool.Clear();
  core::TrainReport report;
  auto m = core::TrainLogreg(rel2, opt, core::Algorithm::kFactorized, &pool,
                             &report);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ExpectGolden(report, two_joins_f);
}

// K-means' factorized centroid update shares F-GMM's per-rid mass. These
// goldens pin its work stream per strategy (threads=1, scalar kernels) and
// F over two joins, where table 1's mass is full-domain per slot.
TEST(PipelineSeedRegressionTest, KmeansTrainersReproduceSeedOutputs) {
  const Golden golden[3] = {
      {0x1.d22d9304ec5f9p+15, 384096, 408000, 288000, 0, 43, 29},
      {0x1.d22d9304ec5f9p+15, 384096, 408000, 288000, 0, 16, 0},
      {0x1.d22d9304ec601p+15, 147296, 219200, 110400, 0, 16, 0},
  };
  const Golden two_joins_f = {0x1.59b69228edb5ap+16, 148070, 267950, 110760,
                              0, 23, 0};
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 4;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    core::TrainReport report;
    auto m = core::TrainKmeans(rel, opt, kAll[a], &pool, &report);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    ExpectGolden(report, golden[a]);
    EXPECT_EQ(report.iterations, 4);
  }
  auto spec = Spec(dir.str(), true);
  spec.name = "two_joins";
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel2 = std::move(GenerateSynthetic(spec, &pool)).value();
  pool.Clear();
  core::TrainReport report;
  auto m = core::TrainKmeans(rel2, opt, core::Algorithm::kFactorized, &pool,
                             &report);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ExpectGolden(report, two_joins_f);
}

/// 64-bit FNV-1a over the bytes of a run's iteration state (the doubles
/// VisitIterationState hands the checkpoint) followed by its objective.
uint64_t StateFingerprint(const std::vector<double>& state, double objective) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](double v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  };
  for (const double v : state) mix(v);
  mix(objective);
  return h;
}

/// Trains `opt` under `kAll[a]` with a checkpoint after every iteration
/// and fingerprints the final checkpoint's state plus the objective.
template <typename Options, typename TrainFn>
uint64_t TrainFingerprint(const join::NormalizedRelations& rel, Options opt,
                          int a, const char* model, BufferPool* pool,
                          TrainFn train, core::TrainReport* out = nullptr) {
  TempDir ckpt;
  opt.checkpoint_dir = ckpt.str();
  opt.checkpoint_every = 1;
  pool->Clear();
  core::TrainReport local;
  core::TrainReport& report = out != nullptr ? *out : local;
  auto m = train(rel, opt, kAll[a], pool, &report);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  const std::string label = std::string(1, "MSF"[a]) + "-" + model;
  auto st = core::pipeline::ReadCheckpoint(ckpt.str(), label);
  EXPECT_TRUE(st.ok()) << label << ": " << st.status().ToString();
  if (!m.ok() || !st.ok()) return 0;
  return StateFingerprint(st.value().state, report.final_objective);
}

// Bitwise scalar fingerprints: every family x M/S/F x {1, 2 joins} at
// threads=1 under scalar kernels, over several chunks (morsel_rows 1001)
// of 256-row batches. The goldens above compare objectives to 1e-12; these
// pin every parameter double and the objective's last bit. Captured before
// the dense and factorized row bodies were replaced by the strip bodies,
// whose scalar kernels replay the rows' expressions in row order. F-GMM is
// not pinned: its strip path run-factors the table-0 terms (one outer
// product per R1 tuple of the weighted centred sum, Eq. 18), a different
// sum from the per-row one, so it moved in the last bits at that change;
// its 1e-12 goldens above still hold. The sixth family is NN with
// shuffle on: its batches gather many rid groups each, so M decodes many
// row ranges per batch; those cells were captured before the epoch
// drivers built their strips straight from pages and joins.
TEST(PipelineSeedRegressionTest, ScalarStateFingerprintsAreBitExact) {
#if defined(__FMA__)
  // Captured on the x86-64 baseline ISA: on an FMA target the compiler may
  // fuse `c + a * b` in the scalar loops, which moves last bits.
  GTEST_SKIP() << "FMA target: fingerprints are for builds without FMA";
#endif
  // [joins - 1][family][strategy]; family order GMM, KMEANS, LINREG,
  // LOGREG, NN, shuffled NN. 0 marks the unpinned F-GMM cells.
  constexpr uint64_t kFingerprints[2][6][3] = {
      {{0x8cc6090bca194b73ull, 0x247b638d86e55691ull, 0},
       {0xcbbc2c76d207836bull, 0xc727da9c288cbf88ull, 0xbcca9f334322c756ull},
       {0xedb47d1abe0e0452ull, 0x93ba5f3c127435aeull, 0xf7a8bc4ace7d13e2ull},
       {0x1de735b609d0fd42ull, 0xd90b5747630f0d3bull, 0xc8f7a2d95659121cull},
       {0x91d33eee000935f7ull, 0x91d33eee000935f7ull, 0x455cfc6f5389580cull},
       {0x68f9d08136e8fb6dull, 0x68f9d08136e8fb6dull, 0x1669dfb190422fc6ull}},
      {{0x1918492b9f5c6077ull, 0x9135c0ae60c84672ull, 0},
       {0x7fde1ca96fdd8c3eull, 0xb83d7bb0a12e0a75ull, 0x7e3e0ee4fc94f61bull},
       {0x36d687286510abafull, 0x72b0b09f8b2d8640ull, 0x01f42bb27ceb118full},
       {0xde974a1a3fbd1022ull, 0x346fb935c8d3b2f6ull, 0xaa4e96c231597d40ull},
       {0x12f491d6a4f73927ull, 0x12f491d6a4f73927ull, 0xdb2e3ea92653184cull},
       {0xf7cdf7d05e38ff32ull, 0xf7cdf7d05e38ff32ull, 0x38f9c82882777c69ull}},
  };
  TempDir dir;
  BufferPool pool(512);
  for (int joins = 1; joins <= 2; ++joins) {
    auto spec = Spec(dir.str(), true);
    if (joins == 2) {
      spec.name = "two_joins";
      spec.attrs.push_back(data::AttributeSpec{15, 2});
    }
    auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
    core::pipeline::StrategyOptions base;
    base.batch_rows = 256;
    base.morsel_rows = 1001;
    base.temp_dir = dir.str();
    base.threads = 1;
    gmm::GmmOptions gopt;
    static_cast<core::pipeline::StrategyOptions&>(gopt) = base;
    gopt.num_components = 3;
    gopt.max_iters = 3;
    kmeans::KmeansOptions kopt;
    static_cast<core::pipeline::StrategyOptions&>(kopt) = base;
    kopt.num_clusters = 3;
    kopt.max_iters = 3;
    linreg::LinregOptions lopt;
    static_cast<core::pipeline::StrategyOptions&>(lopt) = base;
    logreg::LogregOptions gropt;
    static_cast<core::pipeline::StrategyOptions&>(gropt) = base;
    gropt.max_iters = 3;
    nn::NnOptions nopt;
    static_cast<core::pipeline::StrategyOptions&>(nopt) = base;
    nopt.hidden = {16};
    nopt.epochs = 2;
    nn::NnOptions shuffled = nopt;
    shuffled.shuffle = true;
    for (int a = 0; a < 3; ++a) {
      const uint64_t got[6] = {
          a == 2 ? 0
                 : TrainFingerprint(rel, gopt, a, "GMM", &pool,
                                    core::TrainGmm),
          TrainFingerprint(rel, kopt, a, "KMEANS", &pool, core::TrainKmeans),
          TrainFingerprint(rel, lopt, a, "LINREG", &pool, core::TrainLinreg),
          TrainFingerprint(rel, gropt, a, "LOGREG", &pool, core::TrainLogreg),
          TrainFingerprint(rel, nopt, a, "NN", &pool, core::TrainNn),
          TrainFingerprint(rel, shuffled, a, "NN", &pool, core::TrainNn),
      };
      for (int f = 0; f < 6; ++f) {
        EXPECT_EQ(got[f], kFingerprints[joins - 1][f][a])
            << "joins=" << joins << " family=" << f << " strategy="
            << "MSF"[a];
      }
    }
  }
}

// The linear families over three joins: F's attr x attr cross blocks
// include one between tables 1 and 2, neither of them the FK1 table, so
// both its operands are gathered through foreign keys. Every cell pins the
// checkpointed state and objective bitwise plus the op counts, which must
// hold at every thread and shard count, and the single-thread page reads.
// Captured from the per-fact-tuple F feed, before F moved onto the S-slice
// strips. Batches of the default size span many 256-row strips, so FK1
// runs straddle strip boundaries.
TEST(PipelineSeedRegressionTest, ThreeJoinLinearFingerprintsAreBitExact) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA target: fingerprints are for builds without FMA";
#endif
  struct Pin {
    uint64_t state, mults, adds, pages_read;
  };
  // [family][strategy]; family order LINREG, LOGREG.
  constexpr Pin kPins[2][3] = {
      {{0x18e034c00ee4c2dcull, 589102, 594877, 72},
       {0x94a8051e219dfadaull, 589102, 594877, 27},
       {0xb88cd7f217e43340ull, 207977, 180503, 27}},
      {{0x1f8c6d68758ce64dull, 2045631, 1918959, 72},
       {0x696ed6796dfadf7aull, 2045631, 1918959, 27},
       {0x1c3b8b3b8fc05f2full, 687027, 613608, 27}},
  };
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), true);
  spec.name = "three_joins";
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  spec.attrs.push_back(data::AttributeSpec{9, 3});
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  for (const auto& [threads, shards] :
       {std::pair{1, 1}, std::pair{2, 1}, std::pair{1, 2}, std::pair{2, 2}}) {
    core::pipeline::StrategyOptions base;
    base.morsel_rows = 1001;
    base.temp_dir = dir.str();
    base.threads = threads;
    base.shards = shards;
    linreg::LinregOptions lopt;
    static_cast<core::pipeline::StrategyOptions&>(lopt) = base;
    logreg::LogregOptions gopt;
    static_cast<core::pipeline::StrategyOptions&>(gopt) = base;
    gopt.max_iters = 3;
    for (int a = 0; a < 3; ++a) {
      core::TrainReport reports[2];
      const uint64_t got[2] = {
          TrainFingerprint(rel, lopt, a, "LINREG", &pool, core::TrainLinreg,
                           &reports[0]),
          TrainFingerprint(rel, gopt, a, "LOGREG", &pool, core::TrainLogreg,
                           &reports[1]),
      };
      for (int f = 0; f < 2; ++f) {
        const std::string tag = std::string("family=") + "LG"[f] +
                                " strategy=" + "MSF"[a] +
                                " threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
        const Pin& pin = kPins[f][a];
        EXPECT_EQ(got[f], pin.state) << tag;
        EXPECT_EQ(reports[f].ops.mults, pin.mults) << tag;
        EXPECT_EQ(reports[f].ops.adds, pin.adds) << tag;
        if (threads == 1 && shards == 1) {
          EXPECT_EQ(reports[f].io.pages_read, pin.pages_read) << tag;
        }
      }
    }
  }
}

// ------------------------------------------------------- linreg parity

class LinregParityTest : public ::testing::TestWithParam<int> {};

TEST_P(LinregParityTest, StrategiesAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = GetParam();

  linreg::LinregModel models[3];
  core::TrainReport reports[3];
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    auto m = core::TrainLinreg(rel, opt, kAll[a], &pool, &reports[a]);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    models[a] = std::move(m).value();
    EXPECT_EQ(reports[a].threads, GetParam());
    EXPECT_EQ(reports[a].iterations, 1);
  }
  EXPECT_EQ(reports[0].algorithm, "M-LINREG");
  EXPECT_EQ(reports[1].algorithm, "S-LINREG");
  EXPECT_EQ(reports[2].algorithm, "F-LINREG");
  // All strategies accumulate the same Gram/cofactor statistics; the
  // factorized path reorders the additions, hence the tolerance.
  EXPECT_LT(linreg::LinregModel::MaxAbsDiff(models[0], models[1]), 1e-8);
  EXPECT_LT(linreg::LinregModel::MaxAbsDiff(models[0], models[2]), 1e-6);
  EXPECT_NEAR(reports[0].final_objective, reports[2].final_objective,
              1e-6 * std::fabs(reports[0].final_objective) + 1e-12);
  // The factorization must pay: fewer multiplies than the dense paths.
  EXPECT_LT(reports[2].ops.mults, reports[1].ops.mults);
}

INSTANTIATE_TEST_SUITE_P(Threads, LinregParityTest, ::testing::Values(1, 4));

// ------------------------------------------------ GramCofactor strip feed

/// The per-fact-tuple F update the strip feed replaced, as the reference:
/// the S-diagonal block's upper triangle, b's S slice, every table's
/// per-rid masses and the attr x attr cross blocks, one row at a time.
void AddFactReference(const join::NormalizedRelations& rel,
                      const std::vector<join::AttributeTableView>& views,
                      const double* xs, const int64_t* keys, double w,
                      double wz, linreg::GramCofactor::Slot* acc) {
  const size_t ds = rel.ds();
  const size_t lda = acc->gram.cols();
  for (size_t i = 0; i < ds; ++i) {
    const double ui = w * xs[i];
    double* row = acc->gram.data() + i * lda;
    for (size_t j = i; j < ds; ++j) row[j] += ui * xs[j];
  }
  CountMults(ds * ds + ds);
  CountAdds(ds * ds);
  la::Axpy(wz, xs, acc->cvec.data(), ds);
  for (size_t i = 0; i < views.size(); ++i) {
    const int64_t rid = keys[rel.FkKeyIndex(i)];
    const auto r = static_cast<size_t>(rid);
    la::Axpy(w, xs, acc->wxsum[i].Row(r).data(), ds);
    acc->wsum[i][r] += w;
    acc->wzsum[i][r] += wz;
    CountAdds(2);
    for (size_t j = i + 1; j < views.size(); ++j) {
      const auto xr_i = views[i].FeaturesOf(rid);
      const auto xr_j = views[j].FeaturesOf(keys[rel.FkKeyIndex(j)]);
      la::AddOuter(w, xr_i.data(), xr_i.size(), xr_j.data(), xr_j.size(),
                   &acc->gram, rel.FeatureOffset(i + 1),
                   rel.FeatureOffset(j + 1));
    }
  }
}

// Under scalar kernels the strip feed must leave every slot double
// bitwise equal to the per-row update, and charge the same op counts, over
// three joins, with and without weights. FK1 runs straddle the 256-row
// strip edges (one covers a whole strip), and one run is empty.
TEST(GramCofactorTest, StripFeedReplaysThePerRowUpdate) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA target: the reference loops may fuse differently";
#endif
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), true);
  spec.name = "three_joins";
  spec.attrs = {{40, 5}, {15, 2}, {9, 3}};
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  std::vector<join::AttributeTableView> views(rel.num_joins());
  for (size_t i = 0; i < views.size(); ++i) {
    FML_ASSERT_OK(views[i].Load(rel.attrs[i], &pool));
  }
  const size_t ds = rel.ds();
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  storage::RowBatch s_rows;
  std::vector<join::JoinGroup> groups;
  for (const size_t count : {200, 120, 1, 0, 600, 56, 30}) {
    groups.push_back({static_cast<int64_t>((groups.size() * 7) % 40),
                      s_rows.num_rows, count});
    s_rows.num_rows += count;
  }
  s_rows.num_keys = 1 + rel.num_joins();
  s_rows.keys.resize(s_rows.num_rows * s_rows.num_keys);
  s_rows.feats.Resize(s_rows.num_rows, 1 + ds);
  for (const auto& g : groups) {
    for (size_t r = g.offset; r < g.offset + g.count; ++r) {
      int64_t* keys = s_rows.keys.data() + r * s_rows.num_keys;
      keys[0] = static_cast<int64_t>(r);
      keys[rel.FkKeyIndex(0)] = g.rid;
      for (size_t i = 1; i < views.size(); ++i) {
        keys[rel.FkKeyIndex(i)] =
            static_cast<int64_t>(rng() % views[i].feats().rows());
      }
      for (size_t j = 0; j <= ds; ++j) s_rows.feats(r, j) = unit(rng);
    }
  }
  storage::ColumnStrips strips;
  join::AssembleJoinedStrips(rel, s_rows, /*views=*/{},
                             core::pipeline::kDefaultStripRows, &strips);
  ASSERT_EQ(strips.num_strips, 4u);
  const core::pipeline::Block block{0, s_rows.num_rows, &strips, &s_rows,
                                    groups};
  core::pipeline::PipelineContext ctx;
  ctx.rel = &rel;
  ctx.views = &views;
  ctx.slice_cols = ds;
  ctx.factored_tables = views.size();
  std::vector<double> w(s_rows.num_rows), wz(s_rows.num_rows);
  for (size_t r = 0; r < w.size(); ++r) {
    w[r] = 0.25 + 0.5 * (unit(rng) + 1.0);
    wz[r] = unit(rng);
  }
  la::SelectKernels(la::KernelMode::kScalar);
  for (const bool weighted : {false, true}) {
    linreg::GramCofactor normal(1e-3, /*intercept=*/true);
    normal.Init(ctx);
    normal.BeginPass(ctx, 2);
    const OpCounters before = GlobalOps();
    for (size_t s = 0; s < strips.num_strips; ++s) {
      const size_t r0 = strips.StripStart(s);
      normal.AddStrip(normal.slot(0), block, s,
                      weighted ? w.data() + r0 : nullptr, wz.data() + r0);
    }
    const OpCounters mid = GlobalOps();
    for (size_t r = 0; r < s_rows.num_rows; ++r) {
      AddFactReference(rel, views, s_rows.feats.Row(r).data() + 1,
                       s_rows.KeysOf(r), weighted ? w[r] : 1.0, wz[r],
                       &normal.slot(1));
    }
    const OpCounters feed = mid - before;
    const OpCounters rows = GlobalOps() - mid;
    EXPECT_EQ(feed.mults, rows.mults) << "weighted=" << weighted;
    EXPECT_EQ(feed.adds, rows.adds) << "weighted=" << weighted;
    std::vector<std::pair<const double*, size_t>> spans[2];
    for (int slot = 0; slot < 2; ++slot) {
      normal.VisitSlot(slot, [&](double* data, double*, size_t len) {
        spans[slot].emplace_back(data, len);
      });
    }
    ASSERT_EQ(spans[0].size(), spans[1].size());
    for (size_t k = 0; k < spans[0].size(); ++k) {
      ASSERT_EQ(spans[0][k].second, spans[1][k].second);
      EXPECT_EQ(std::memcmp(spans[0][k].first, spans[1][k].first,
                            spans[0][k].second * sizeof(double)),
                0)
          << "weighted=" << weighted << " span " << k;
    }
  }
}

TEST(LinregTest, RecoversPlantedSignalBetterThanMean) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  core::TrainReport report;
  auto m = core::TrainLinreg(rel, opt, core::Algorithm::kFactorized, &pool,
                             &report);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->dims(), rel.total_dims());
  // The synthetic target depends on the joined features; a fitted ridge
  // model must beat the best constant predictor, whose half-MSE is
  // Var(y)/2 (Y is S feature column 0).
  double sum = 0.0, sum_sq = 0.0;
  storage::TableScanner scan(&rel.s, &pool, 4096);
  storage::RowBatch batch;
  while (scan.Next(&batch)) {
    for (size_t r = 0; r < batch.num_rows; ++r) {
      const double y = batch.feats(r, 0);
      sum += y;
      sum_sq += y * y;
    }
  }
  ASSERT_TRUE(scan.status().ok());
  const double n = static_cast<double>(rel.s.num_rows());
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_GT(report.final_objective, 0.0);
  EXPECT_LT(report.final_objective, 0.9 * var / 2.0);
}

TEST(LinregTest, ParallelMatchesSerial) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  for (const auto algo : kAll) {
    opt.threads = 1;
    pool.Clear();
    auto serial = core::TrainLinreg(rel, opt, algo, &pool, nullptr);
    ASSERT_TRUE(serial.ok());
    opt.threads = 4;
    pool.Clear();
    auto parallel = core::TrainLinreg(rel, opt, algo, &pool, nullptr);
    ASSERT_TRUE(parallel.ok());
    EXPECT_LT(linreg::LinregModel::MaxAbsDiff(serial.value(),
                                              parallel.value()),
              1e-8)
        << core::AlgorithmName(algo);
  }
}

TEST(LinregTest, RequiresTarget) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  linreg::LinregOptions opt;
  opt.temp_dir = dir.str();
  auto m = core::TrainLinreg(rel, opt, core::Algorithm::kStreaming, &pool,
                             nullptr);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- kmeans parity

class KmeansParityTest : public ::testing::TestWithParam<int> {};

TEST_P(KmeansParityTest, StrategiesAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 5;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = GetParam();

  kmeans::KmeansModel models[3];
  core::TrainReport reports[3];
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    auto m = core::TrainKmeans(rel, opt, kAll[a], &pool, &reports[a]);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    models[a] = std::move(m).value();
    EXPECT_EQ(reports[a].iterations, 5);
  }
  EXPECT_EQ(reports[0].algorithm, "M-KMEANS");
  EXPECT_EQ(reports[2].algorithm, "F-KMEANS");
  EXPECT_LT(kmeans::KmeansModel::MaxAbsDiff(models[0], models[1]), 1e-9);
  EXPECT_LT(kmeans::KmeansModel::MaxAbsDiff(models[0], models[2]), 1e-7);
  EXPECT_NEAR(reports[0].final_objective, reports[2].final_objective,
              1e-7 * std::fabs(reports[0].final_objective));
  // Cluster sizes of the final assignment must agree exactly.
  for (int a = 1; a < 3; ++a) {
    ASSERT_EQ(models[a].counts.size(), models[0].counts.size());
    for (size_t c = 0; c < models[0].counts.size(); ++c) {
      EXPECT_EQ(models[a].counts[c], models[0].counts[c]);
    }
  }
  // The factorization must pay: fewer multiplies than the streamed path.
  EXPECT_LT(reports[2].ops.mults, reports[1].ops.mults);
}

INSTANTIATE_TEST_SUITE_P(Threads, KmeansParityTest, ::testing::Values(1, 4));

TEST(KmeansTest, InertiaDecreasesAcrossIterations) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  core::TrainReport r1, r5;
  opt.max_iters = 1;
  auto m1 = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized, &pool,
                              &r1);
  ASSERT_TRUE(m1.ok());
  opt.max_iters = 5;
  auto m5 = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized, &pool,
                              &r5);
  ASSERT_TRUE(m5.ok());
  EXPECT_LE(r5.final_objective, r1.final_objective);
  EXPECT_GT(r5.final_objective, 0.0);
}

TEST(KmeansTest, ToleranceStopsEarly) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 50;
  opt.tol = 1e-6;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  core::TrainReport report;
  auto m = core::TrainKmeans(rel, opt, core::Algorithm::kStreaming, &pool,
                             &report);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(report.iterations, 50);
}

TEST(KmeansTest, RejectsZeroClusters) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 0;
  opt.temp_dir = dir.str();
  for (const auto algo : kAll) {
    auto m = core::TrainKmeans(rel, opt, algo, &pool, nullptr);
    EXPECT_FALSE(m.ok()) << core::AlgorithmName(algo);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KmeansTest, MultiwayFactorizedMatches) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), false);
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 4;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  auto m = core::TrainKmeans(rel, opt, core::Algorithm::kMaterialized, &pool,
                             nullptr);
  auto f = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized, &pool,
                             nullptr);
  ASSERT_TRUE(m.ok() && f.ok());
  EXPECT_LT(kmeans::KmeansModel::MaxAbsDiff(m.value(), f.value()), 1e-7);
}

// -------------------------------------- chunk-ordered scheduler parity
//
// The chunk-ordered determinism contract: the full-pass plan is a fixed
// chunk list (a data invariant, sized by --morsel-rows), every chunk
// owns accumulator slot = its chunk id, and the reduction merges in chunk
// order — so the thread count and the steal schedule can change who
// computes a chunk but never what is merged. These runs must therefore be
// bit-identical, not merely close. (The randomized fuzz_parity_test
// stresses the same property across random schemas; these fixed cases run
// in tier1 and under TSan.)

template <typename Report>
void ExpectBitIdentical(const Report& a, const Report& b,
                        const char* what) {
  EXPECT_EQ(a.final_objective, b.final_objective) << what;
  EXPECT_EQ(a.ops.mults, b.ops.mults) << what;
  EXPECT_EQ(a.ops.adds, b.ops.adds) << what;
  EXPECT_EQ(a.ops.subs, b.ops.subs) << what;
  EXPECT_EQ(a.ops.exps, b.ops.exps) << what;
}

TEST(StealingParityTest, GmmChunkedScheduleInvariant) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.morsel_rows = 200;  // ~15 chunks over 3000 rows
  opt.temp_dir = dir.str();
  for (const auto algo : kAll) {
    opt.threads = 1;
    opt.steal = false;
    pool.Clear();
    core::TrainReport base_report;
    auto base = core::TrainGmm(rel, opt, algo, &pool, &base_report);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_GT(base_report.morsel_chunks, 1);
    for (const auto& [threads, steal] :
         {std::tuple{4, false}, std::tuple{1, true}, std::tuple{4, true}}) {
      opt.threads = threads;
      opt.steal = steal;
      pool.Clear();
      core::TrainReport report;
      auto params = core::TrainGmm(rel, opt, algo, &pool, &report);
      ASSERT_TRUE(params.ok()) << params.status().ToString();
      ExpectBitIdentical(report, base_report, core::AlgorithmName(algo));
      EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), params.value()),
                0.0)
          << core::AlgorithmName(algo) << " threads=" << threads
          << " steal=" << steal;
    }
  }
}

TEST(StealingParityTest, LinregKmeansChunkedScheduleInvariant) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  for (const auto algo : kAll) {
    linreg::LinregOptions lopt;
    lopt.batch_rows = 256;
    lopt.morsel_rows = 128;
    lopt.temp_dir = dir.str();
    lopt.threads = 1;
    pool.Clear();
    core::TrainReport lbase_report;
    auto lbase = core::TrainLinreg(rel, lopt, algo, &pool, &lbase_report);
    ASSERT_TRUE(lbase.ok());
    kmeans::KmeansOptions kopt;
    kopt.num_clusters = 3;
    kopt.max_iters = 3;
    kopt.batch_rows = 256;
    kopt.morsel_rows = 128;
    kopt.temp_dir = dir.str();
    kopt.threads = 1;
    pool.Clear();
    core::TrainReport kbase_report;
    auto kbase = core::TrainKmeans(rel, kopt, algo, &pool, &kbase_report);
    ASSERT_TRUE(kbase.ok());
    for (const bool steal : {false, true}) {
      lopt.threads = 4;
      lopt.steal = steal;
      pool.Clear();
      core::TrainReport lr;
      auto lm = core::TrainLinreg(rel, lopt, algo, &pool, &lr);
      ASSERT_TRUE(lm.ok());
      ExpectBitIdentical(lr, lbase_report, "linreg");
      EXPECT_EQ(linreg::LinregModel::MaxAbsDiff(lbase.value(), lm.value()),
                0.0);
      kopt.threads = 4;
      kopt.steal = steal;
      pool.Clear();
      core::TrainReport kr;
      auto km = core::TrainKmeans(rel, kopt, algo, &pool, &kr);
      ASSERT_TRUE(km.ok());
      ExpectBitIdentical(kr, kbase_report, "kmeans");
      EXPECT_EQ(kmeans::KmeansModel::MaxAbsDiff(kbase.value(), km.value()),
                0.0);
    }
  }
}

TEST(StealingParityTest, SingleGiantRunStillBalancesAndMatches) {
  // One run carries nearly every fact row: the worst case for static run
  // morsels ("runs longer than a chunk"). The giant run is atomic — it
  // becomes one chunk — and results stay schedule-invariant.
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), false);
  spec.run_dist = data::RunDist::kSingleGiant;
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.morsel_rows = 64;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  pool.Clear();
  core::TrainReport base_report;
  auto base = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                &pool, &base_report);
  ASSERT_TRUE(base.ok());
  opt.threads = 4;
  opt.steal = true;
  pool.Clear();
  core::TrainReport report;
  auto stolen = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                  &pool, &report);
  ASSERT_TRUE(stolen.ok());
  ExpectBitIdentical(report, base_report, "giant-run kmeans");
  EXPECT_EQ(kmeans::KmeansModel::MaxAbsDiff(base.value(), stolen.value()),
            0.0);
  EXPECT_EQ(report.morsel_chunks, base_report.morsel_chunks);
  EXPECT_EQ(report.worker_busy_seconds.size(), 4u);
}

TEST(StealingParityTest, UnsetMorselRowsRunsTheDefaultChunkPlan) {
  // Leaving morsel_rows unset — alone, with --steal=on or with --shards=2
  // — must run the same plan, and produce the same bits, as an explicit
  // 4,096-row chunk size. 20,000 fact rows make that plan 5 chunks.
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), true);
  spec.s_rows = 20000;
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  linreg::LinregOptions opt;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  opt.morsel_rows = 4096;
  core::TrainReport base_report;
  auto base = core::TrainLinreg(rel, opt, core::Algorithm::kStreaming, &pool,
                                &base_report);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base_report.morsel_chunks, 5);
  const struct {
    const char* name;
    bool steal;
    int shards;
  } cases[] = {{"plain", false, 1}, {"steal", true, 1}, {"shards=2", false, 2}};
  for (const auto& c : cases) {
    opt.morsel_rows = 0;
    opt.steal = c.steal;
    opt.shards = c.shards;
    core::TrainReport report;
    auto m = core::TrainLinreg(rel, opt, core::Algorithm::kStreaming, &pool,
                               &report);
    ASSERT_TRUE(m.ok()) << c.name;
    EXPECT_EQ(report.morsel_chunks, base_report.morsel_chunks) << c.name;
    EXPECT_EQ(report.shards, c.shards) << c.name;
    ExpectBitIdentical(report, base_report, c.name);
    EXPECT_EQ(linreg::LinregModel::MaxAbsDiff(base.value(), m.value()), 0.0)
        << c.name;
  }
}

// ------------------------------------------------------- logreg parity

class LogregParityTest : public ::testing::TestWithParam<int> {};

TEST_P(LogregParityTest, StrategiesAgree) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  logreg::LogregOptions opt;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = GetParam();

  logreg::LogregModel models[3];
  core::TrainReport reports[3];
  for (int a = 0; a < 3; ++a) {
    pool.Clear();
    auto m = core::TrainLogreg(rel, opt, kAll[a], &pool, &reports[a]);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    models[a] = std::move(m).value();
    EXPECT_EQ(reports[a].threads, GetParam());
    EXPECT_EQ(reports[a].iterations, 3);
  }
  EXPECT_EQ(reports[0].algorithm, "M-LOGREG");
  EXPECT_EQ(reports[1].algorithm, "S-LOGREG");
  EXPECT_EQ(reports[2].algorithm, "F-LOGREG");
  // All strategies run the identical IRLS recurrence; the factorized path
  // reorders the weighted accumulation, hence the tolerance.
  EXPECT_LT(logreg::LogregModel::MaxAbsDiff(models[0], models[1]), 1e-8);
  EXPECT_LT(logreg::LogregModel::MaxAbsDiff(models[0], models[2]), 1e-5);
  EXPECT_NEAR(reports[0].final_objective, reports[2].final_objective,
              1e-6 * std::fabs(reports[0].final_objective) + 1e-12);
  // The factorization must pay: fewer multiplies than the dense paths.
  EXPECT_LT(reports[2].ops.mults, reports[1].ops.mults);
}

INSTANTIATE_TEST_SUITE_P(Threads, LogregParityTest, ::testing::Values(1, 4));

TEST(LogregTest, SeparatesTargetByPredictedProbability) {
  // The synthetic target is continuous; a fitted soft-label logistic
  // model must still order the rows: the mean target of rows it scores
  // above its median probability has to exceed the mean below.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  logreg::LogregOptions opt;
  opt.max_iters = 4;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  core::TrainReport report;
  auto m = core::TrainLogreg(rel, opt, core::Algorithm::kFactorized, &pool,
                             &report);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->dims(), rel.total_dims());

  auto joined = core::pipeline::AssembleJoinedRows(
      rel, &pool, [&] {
        std::vector<int64_t> rows(static_cast<size_t>(rel.s.num_rows()));
        for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
        return rows;
      }());
  ASSERT_TRUE(joined.ok());
  storage::RowBatch batch;
  ASSERT_TRUE(
      rel.s.ReadRows(&pool, 0, static_cast<size_t>(rel.s.num_rows()), &batch)
          .ok());
  std::vector<double> probs(batch.num_rows);
  for (size_t r = 0; r < batch.num_rows; ++r) {
    probs[r] = m->PredictProb(joined->Row(r).data());
  }
  std::vector<double> sorted = probs;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  double hi_sum = 0.0, lo_sum = 0.0;
  int hi_n = 0, lo_n = 0;
  for (size_t r = 0; r < batch.num_rows; ++r) {
    const double y = batch.feats(r, 0);
    if (probs[r] > median) {
      hi_sum += y;
      ++hi_n;
    } else {
      lo_sum += y;
      ++lo_n;
    }
  }
  ASSERT_GT(hi_n, 0);
  ASSERT_GT(lo_n, 0);
  EXPECT_GT(hi_sum / hi_n, lo_sum / lo_n);
}

TEST(LogregTest, RequiresTargetAndValidOptions) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  logreg::LogregOptions opt;
  opt.temp_dir = dir.str();
  auto m = core::TrainLogreg(rel, opt, core::Algorithm::kStreaming, &pool,
                             nullptr);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);

  auto rel_t =
      std::move(GenerateSynthetic(
                    [&] {
                      auto s = Spec(dir.str(), true);
                      s.name = "t2";
                      return s;
                    }(),
                    &pool))
          .value();
  opt.max_iters = 0;
  auto bad = core::TrainLogreg(rel_t, opt, core::Algorithm::kStreaming, &pool,
                               nullptr);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------- prefetch residency-only
//
// The I/O cursor plane's extended determinism contract: prefetch changes
// page residency, never values, op counts, or merge order. A prefetched
// run must therefore be bit-identical to the demand-only baseline under
// every thread count and steal schedule, while the demand-only run keeps
// the exact page-I/O counts the seed goldens pin.

TEST(PrefetchParityTest, GmmPrefetchedRunsAreBitIdentical) {
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
  uint64_t prefetch_reads_total = 0;
  for (const auto algo : kAll) {
    opt.threads = 1;
    opt.steal = false;
    opt.prefetch = false;
    pool.Clear();
    core::TrainReport base_report;
    auto base = core::TrainGmm(rel, opt, algo, &pool, &base_report);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(base_report.io.prefetch_reads, 0u);
    EXPECT_EQ(base_report.io.prefetch_hits, 0u);
    opt.prefetch = true;
    for (const auto& [threads, steal] :
         {std::tuple{1, false}, std::tuple{2, true}, std::tuple{4, false},
          std::tuple{4, true}}) {
      opt.threads = threads;
      opt.steal = steal;
      pool.Clear();
      core::TrainReport report;
      auto params = core::TrainGmm(rel, opt, algo, &pool, &report);
      ASSERT_TRUE(params.ok()) << params.status().ToString();
      ExpectBitIdentical(report, base_report, core::AlgorithmName(algo));
      EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), params.value()),
                0.0)
          << core::AlgorithmName(algo) << " threads=" << threads
          << " steal=" << steal << " prefetch=on";
      prefetch_reads_total += report.io.prefetch_reads;
    }
  }
  // The plane must actually have engaged, or the parity above is vacuous.
  // Any single run may lose every crew-vs-demand race on a loaded box,
  // but across 12 prefetched runs the crew lands pages.
  EXPECT_GT(prefetch_reads_total, 0u)
      << "--prefetch=on never issued an async read: wiring regression?";
}

// --------------------------------------------------- shard-plane parity
//
// The sharded rid-range execution plane's determinism contract: shard =
// contiguous span of the fixed chunk plan, slot = global chunk id, each
// shard's slots round-trip through serialized ShardDelta bytes, and the
// deltas merge in shard-id (= global chunk) order. Objectives, params and
// op counts are therefore bit-identical to --shards=1 at the same morsel
// size under ANY threads x steal x prefetch schedule; and because the
// in-process backend time-shares the unsharded run's worker pools with
// global chunk ownership (exec::RunMorselSpan), total page I/O is ALSO
// bit-identical whenever the schedule itself is I/O-deterministic (steal
// and prefetch off — stealing re-homes chunks into thief pools and
// prefetch races the crew, so those counters are not schedule-stable even
// at shards=1). The randomized fuzz_parity_test stresses the same
// contract across random schemas; these fixed cases run in tier1 and
// under TSan.

TEST(ShardParityTest, GmmShardedBitIdenticalIncludingPageIo) {
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
  for (const auto algo : kAll) {
    for (const int threads : {1, 4}) {
      opt.threads = threads;
      opt.shards = 1;
      pool.Clear();
      core::TrainReport base_report;
      auto base = core::TrainGmm(rel, opt, algo, &pool, &base_report);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      EXPECT_EQ(base_report.shards, 1);
      EXPECT_TRUE(base_report.shard_stats.empty());
      for (const int shards : {2, 4}) {
        opt.shards = shards;
        pool.Clear();
        core::TrainReport report;
        auto params = core::TrainGmm(rel, opt, algo, &pool, &report);
        ASSERT_TRUE(params.ok()) << params.status().ToString();
        const std::string tag = std::string(core::AlgorithmName(algo)) +
                                " threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
        ExpectBitIdentical(report, base_report, tag.c_str());
        EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), params.value()),
                  0.0)
            << tag;
        // Deterministic schedule (steal/prefetch off): the time-shared
        // backend replays the unsharded per-pool page-request sequences,
        // so the whole I/O split matches bit for bit.
        EXPECT_EQ(report.io.pages_read, base_report.io.pages_read) << tag;
        EXPECT_EQ(report.io.pages_written, base_report.io.pages_written)
            << tag;
        EXPECT_EQ(report.io.pool_hits, base_report.io.pool_hits) << tag;
        EXPECT_EQ(report.io.pool_misses, base_report.io.pool_misses) << tag;
        // Effective shard count and spans are recorded and cover the plan.
        EXPECT_EQ(report.shards, shards);
        ASSERT_EQ(report.shard_stats.size(), static_cast<size_t>(shards));
        EXPECT_EQ(report.shard_stats.front().chunk_begin, 0);
        EXPECT_EQ(report.shard_stats.back().chunk_end, report.morsel_chunks);
      }
    }
  }
}

TEST(ShardParityTest, ShardedSchedulesStayBitIdentical) {
  // Sharding composed with stealing and prefetch: who executes a chunk
  // (and when its pages land) may change, what is merged never does.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  struct Sched {
    int shards, threads;
    bool steal, prefetch;
  };
  constexpr Sched kScheds[] = {{3, 4, true, false},
                               {2, 2, false, true},
                               {4, 1, true, false},
                               {2, 4, true, true}};
  for (const auto algo : kAll) {
    linreg::LinregOptions lopt;
    lopt.batch_rows = 256;
    lopt.morsel_rows = 128;
    lopt.temp_dir = dir.str();
    lopt.threads = 1;
    pool.Clear();
    core::TrainReport lbase_report;
    auto lbase = core::TrainLinreg(rel, lopt, algo, &pool, &lbase_report);
    ASSERT_TRUE(lbase.ok());
    logreg::LogregOptions gopt;
    gopt.max_iters = 2;
    gopt.batch_rows = 256;
    gopt.morsel_rows = 128;
    gopt.temp_dir = dir.str();
    gopt.threads = 1;
    pool.Clear();
    core::TrainReport gbase_report;
    auto gbase = core::TrainLogreg(rel, gopt, algo, &pool, &gbase_report);
    ASSERT_TRUE(gbase.ok());
    for (const Sched& sched : kScheds) {
      lopt.shards = sched.shards;
      lopt.threads = sched.threads;
      lopt.steal = sched.steal;
      lopt.prefetch = sched.prefetch;
      pool.Clear();
      core::TrainReport lr;
      auto lm = core::TrainLinreg(rel, lopt, algo, &pool, &lr);
      ASSERT_TRUE(lm.ok());
      ExpectBitIdentical(lr, lbase_report, "sharded linreg");
      EXPECT_EQ(linreg::LinregModel::MaxAbsDiff(lbase.value(), lm.value()),
                0.0)
          << core::AlgorithmName(algo) << " shards=" << sched.shards;
      gopt.shards = sched.shards;
      gopt.threads = sched.threads;
      gopt.steal = sched.steal;
      gopt.prefetch = sched.prefetch;
      pool.Clear();
      core::TrainReport gr;
      auto gm = core::TrainLogreg(rel, gopt, algo, &pool, &gr);
      ASSERT_TRUE(gm.ok());
      ExpectBitIdentical(gr, gbase_report, "sharded logreg");
      EXPECT_EQ(logreg::LogregModel::MaxAbsDiff(gbase.value(), gm.value()),
                0.0)
          << core::AlgorithmName(algo) << " shards=" << sched.shards;
    }
  }
}

TEST(ShardParityTest, ShardsExceedChunksAndGiantRunStayExact) {
  // "shards > rows" and the single-giant-FK1-run worst case: requesting
  // far more shards than the plan has chunks caps the effective count at
  // one chunk per shard (no empty shard ever scans), and the giant run —
  // atomic, one chunk — stays bit-exact through its own shard's delta.
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), false);
  spec.run_dist = data::RunDist::kSingleGiant;
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.max_iters = 3;
  opt.batch_rows = 256;
  opt.morsel_rows = 64;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  pool.Clear();
  core::TrainReport base_report;
  auto base = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                &pool, &base_report);
  ASSERT_TRUE(base.ok());
  ASSERT_GT(base_report.morsel_chunks, 1);
  opt.shards = 64;  // far beyond the chunk count
  opt.threads = 4;
  opt.steal = true;
  pool.Clear();
  core::TrainReport report;
  auto sharded = core::TrainKmeans(rel, opt, core::Algorithm::kFactorized,
                                   &pool, &report);
  ASSERT_TRUE(sharded.ok());
  ExpectBitIdentical(report, base_report, "over-sharded giant-run kmeans");
  EXPECT_EQ(kmeans::KmeansModel::MaxAbsDiff(base.value(), sharded.value()),
            0.0);
  EXPECT_EQ(report.shards, static_cast<int>(report.morsel_chunks));
  ASSERT_EQ(report.shard_stats.size(), static_cast<size_t>(report.shards));
  for (const auto& stat : report.shard_stats) {
    EXPECT_EQ(stat.chunk_end, stat.chunk_begin + 1);
  }
}

TEST(ShardParityTest, MiniBatchFamilyRejectsShards) {
  // The SGD plane's epochs are sequential: no order-free merge exists, so
  // sharding must be rejected up front with a clear error.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  nn::NnOptions opt;
  opt.hidden = {8};
  opt.epochs = 1;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  opt.shards = 2;
  auto mlp = core::TrainNn(rel, opt, core::Algorithm::kStreaming, &pool,
                           nullptr);
  EXPECT_FALSE(mlp.ok());
  EXPECT_EQ(mlp.status().code(), StatusCode::kInvalidArgument);
  opt.shards = 1;
  auto ok = core::TrainNn(rel, opt, core::Algorithm::kStreaming, &pool,
                          nullptr);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ------------------------------------------------------ kernels parity

// --kernels=simd may only change floating-point summation order inside a
// strip. Everything else the determinism contract pins — op counts
// (charged per batch with the scalar per-row formulas) and the page-I/O
// stream of all three access drivers — must match the scalar plane
// exactly under every schedule; objectives and parameters agree to
// tolerance.

template <typename Report>
void ExpectSameWorkStream(const Report& simd, const Report& scalar,
                          const std::string& what) {
  EXPECT_EQ(simd.ops.mults, scalar.ops.mults) << what;
  EXPECT_EQ(simd.ops.adds, scalar.ops.adds) << what;
  EXPECT_EQ(simd.ops.subs, scalar.ops.subs) << what;
  EXPECT_EQ(simd.ops.exps, scalar.ops.exps) << what;
  EXPECT_EQ(simd.io.pages_read, scalar.io.pages_read) << what;
  EXPECT_EQ(simd.io.pages_written, scalar.io.pages_written) << what;
  EXPECT_EQ(simd.io.pool_hits, scalar.io.pool_hits) << what;
  EXPECT_EQ(simd.io.pool_misses, scalar.io.pool_misses) << what;
}

class KernelsParityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// The test relation over `joins` attribute tables: Spec's, plus a second
/// table whose F cross block with the first runs the dot-form gemm_strip.
join::NormalizedRelations JoinsRelation(const std::string& dir, int joins,
                                        BufferPool* pool) {
  auto spec = Spec(dir, true);
  if (joins == 2) {
    spec.name = "two_joins";
    spec.attrs.push_back(data::AttributeSpec{15, 2});
  }
  return std::move(GenerateSynthetic(spec, pool)).value();
}

TEST_P(KernelsParityTest, LinregSimdMatchesScalarWorkStream) {
  const auto [threads, shards] = GetParam();
  TempDir dir;
  BufferPool pool(512);
  for (int joins = 1; joins <= 2; ++joins) {
    auto rel = JoinsRelation(dir.str(), joins, &pool);
    linreg::LinregOptions opt;
    opt.batch_rows = 256;
    opt.morsel_rows = 200;
    opt.temp_dir = dir.str();
    opt.threads = threads;
    opt.shards = shards;
    for (const auto algo : kAll) {
      opt.kernels = la::KernelMode::kScalar;
      pool.Clear();
      core::TrainReport scalar_report;
      auto scalar =
          core::TrainLinreg(rel, opt, algo, &pool, &scalar_report);
      ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
      opt.kernels = la::KernelMode::kSimd;
      pool.Clear();
      core::TrainReport simd_report;
      auto simd = core::TrainLinreg(rel, opt, algo, &pool, &simd_report);
      ASSERT_TRUE(simd.ok()) << simd.status().ToString();
      const std::string tag = std::string(core::AlgorithmName(algo)) +
                              " joins=" + std::to_string(joins) +
                              " threads=" + std::to_string(threads) +
                              " shards=" + std::to_string(shards);
      ExpectSameWorkStream(simd_report, scalar_report, tag);
      EXPECT_NEAR(simd_report.final_objective,
                  scalar_report.final_objective,
                  1e-9 * std::fabs(scalar_report.final_objective) + 1e-12)
          << tag;
      EXPECT_LT(
          linreg::LinregModel::MaxAbsDiff(scalar.value(), simd.value()),
          1e-8)
          << tag;
    }
  }
}

TEST_P(KernelsParityTest, GmmSimdMatchesScalarWorkStream) {
  const auto [threads, shards] = GetParam();
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
  opt.threads = threads;
  opt.shards = shards;
  for (const auto algo : kAll) {
    opt.kernels = la::KernelMode::kScalar;
    pool.Clear();
    core::TrainReport scalar_report;
    auto scalar = core::TrainGmm(rel, opt, algo, &pool, &scalar_report);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    opt.kernels = la::KernelMode::kSimd;
    pool.Clear();
    core::TrainReport simd_report;
    auto simd = core::TrainGmm(rel, opt, algo, &pool, &simd_report);
    ASSERT_TRUE(simd.ok()) << simd.status().ToString();
    const std::string tag = std::string(core::AlgorithmName(algo)) +
                            " threads=" + std::to_string(threads) +
                            " shards=" + std::to_string(shards);
    ExpectSameWorkStream(simd_report, scalar_report, tag);
    // The E-step posterior charges the per-row exp count on both planes
    // (scalar runs the seed's two exps per row and component, the vector
    // posterior_strip one in-lane exp), so even the exp count — the
    // costliest op — matches exactly (checked above); the log-likelihood
    // itself moves only by summation order and exp's last bits.
    EXPECT_NEAR(simd_report.final_objective, scalar_report.final_objective,
                1e-9 * std::fabs(scalar_report.final_objective) + 1e-12)
        << tag;
    EXPECT_LT(gmm::GmmParams::MaxAbsDiff(scalar.value(), simd.value()),
              1e-7)
        << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, KernelsParityTest,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(1, 2)));

TEST(KernelsModelParityTest, KmeansAndLogregSimdMatchScalar) {
  TempDir dir;
  BufferPool pool(512);
  auto rel = JoinsRelation(dir.str(), 1, &pool);
  auto rel2 = JoinsRelation(dir.str(), 2, &pool);
  for (const auto algo : kAll) {
    kmeans::KmeansOptions kopt;
    kopt.num_clusters = 3;
    kopt.max_iters = 2;
    kopt.batch_rows = 256;
    kopt.temp_dir = dir.str();
    kopt.threads = 4;
    kopt.kernels = la::KernelMode::kScalar;
    pool.Clear();
    core::TrainReport kscalar_report;
    auto kscalar = core::TrainKmeans(rel, kopt, algo, &pool, &kscalar_report);
    ASSERT_TRUE(kscalar.ok()) << kscalar.status().ToString();
    kopt.kernels = la::KernelMode::kSimd;
    pool.Clear();
    core::TrainReport ksimd_report;
    auto ksimd = core::TrainKmeans(rel, kopt, algo, &pool, &ksimd_report);
    ASSERT_TRUE(ksimd.ok()) << ksimd.status().ToString();
    ExpectSameWorkStream(ksimd_report, kscalar_report, "kmeans");
    EXPECT_NEAR(ksimd_report.final_objective, kscalar_report.final_objective,
                1e-9 * std::fabs(kscalar_report.final_objective) + 1e-12)
        << core::AlgorithmName(algo);
    EXPECT_LT(kmeans::KmeansModel::MaxAbsDiff(kscalar.value(),
                                              ksimd.value()),
              1e-8)
        << core::AlgorithmName(algo);

    // Logreg over one and two joins: the second adds F's attr x attr
    // cross block (the dot-form gemm_strip) and table 1's rid-dot adds.
    for (const join::NormalizedRelations* grel : {&rel, &rel2}) {
      const std::string tag = std::string("logreg ") +
                              core::AlgorithmName(algo) + " joins=" +
                              std::to_string(grel->num_joins());
      logreg::LogregOptions gopt;
      gopt.max_iters = 2;
      gopt.batch_rows = 256;
      gopt.temp_dir = dir.str();
      gopt.threads = 4;
      gopt.kernels = la::KernelMode::kScalar;
      pool.Clear();
      core::TrainReport gscalar_report;
      auto gscalar =
          core::TrainLogreg(*grel, gopt, algo, &pool, &gscalar_report);
      ASSERT_TRUE(gscalar.ok()) << gscalar.status().ToString();
      gopt.kernels = la::KernelMode::kSimd;
      pool.Clear();
      core::TrainReport gsimd_report;
      auto gsimd = core::TrainLogreg(*grel, gopt, algo, &pool, &gsimd_report);
      ASSERT_TRUE(gsimd.ok()) << gsimd.status().ToString();
      ExpectSameWorkStream(gsimd_report, gscalar_report, tag);
      EXPECT_NEAR(gsimd_report.final_objective,
                  gscalar_report.final_objective,
                  1e-9 * std::fabs(gscalar_report.final_objective) + 1e-12)
          << tag;
      EXPECT_LT(logreg::LogregModel::MaxAbsDiff(gscalar.value(),
                                                gsimd.value()),
                1e-8)
          << tag;
    }
  }
}

TEST(KernelsModelParityTest, NnSimdMatchesScalarWorkStream) {
  // The strip-fed NN epoch plane: mini-batch drivers pack each sampled
  // batch into column strips and the model runs forward/backward as
  // gemm_strip products. The work stream (op counts charged with the
  // scalar per-row formulas, page I/O of the same batch assembly) must
  // match the scalar plane exactly; the SGD trajectory agrees to
  // tolerance, and simd runs are bit-identical at every thread count.
  // batch_rows=100 forces every batch into one short partial strip
  // (< kDefaultStripRows), pinning the short-strip path; 600-row batches
  // span several strips, pinning their order. The 2-way join runs F's
  // gathered PG_R strips for every attribute table, and with
  // grouped_backward for the tables after the first. The named shapes
  // cover every upper-layer step body: the other activations, dropout,
  // momentum with weight decay, and two hidden layers.
  struct Case {
    bool two_way;
    bool grouped;
    size_t batch_rows;
    const char* shape = "";
    void (*apply)(nn::NnOptions*) = nullptr;
  };
  const Case cases[] = {
      {false, false, 256},
      {false, false, 100},
      {true, false, 600},
      {true, true, 600},
      {true, true, 100},
      {false, false, 600, "tanh",
       [](nn::NnOptions* o) { o->activation = nn::Activation::kTanh; }},
      {false, false, 600, "relu",
       [](nn::NnOptions* o) { o->activation = nn::Activation::kRelu; }},
      {false, false, 600, "dropout",
       [](nn::NnOptions* o) { o->hidden_dropout = 0.2; }},
      {false, false, 600, "momentum",
       [](nn::NnOptions* o) {
         o->momentum = 0.9;
         o->weight_decay = 1e-3;
       }},
      {false, false, 600, "hidden 8x4",
       [](nn::NnOptions* o) { o->hidden = {8, 4}; }},
      {true, true, 600, "hidden 8x4",
       [](nn::NnOptions* o) { o->hidden = {8, 4}; }},
  };
  for (const bool two_way : {false, true}) {
    TempDir dir;
    BufferPool pool(512);
    auto spec = Spec(dir.str(), true);
    if (two_way) spec.attrs.push_back(data::AttributeSpec{15, 2});
    auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
    for (const Case& c : cases) {
      if (c.two_way != two_way) continue;
      for (const auto algo : kAll) {
        // grouped_backward only changes F's backward.
        if (c.grouped && algo != core::Algorithm::kFactorized) continue;
        const std::string base = std::string(core::AlgorithmName(algo)) +
                                 (two_way ? " 2-way" : " binary") +
                                 (c.grouped ? " grouped" : "") +
                                 " batch=" + std::to_string(c.batch_rows) +
                                 " " + c.shape;
        std::vector<nn::Mlp> simd_models;
        std::vector<double> simd_objectives;
        for (const int threads : {1, 4}) {
          nn::NnOptions opt;
          opt.hidden = {8};
          opt.epochs = 2;
          opt.batch_rows = c.batch_rows;
          opt.grouped_backward = c.grouped;
          opt.temp_dir = dir.str();
          opt.threads = threads;
          if (c.apply != nullptr) c.apply(&opt);
          opt.kernels = la::KernelMode::kScalar;
          pool.Clear();
          core::TrainReport scalar_report;
          auto scalar = core::TrainNn(rel, opt, algo, &pool, &scalar_report);
          ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
          opt.kernels = la::KernelMode::kSimd;
          pool.Clear();
          core::TrainReport simd_report;
          auto simd = core::TrainNn(rel, opt, algo, &pool, &simd_report);
          ASSERT_TRUE(simd.ok()) << simd.status().ToString();
          const std::string tag =
              base + " threads=" + std::to_string(threads);
          ExpectSameWorkStream(simd_report, scalar_report, tag);
          EXPECT_EQ(simd_report.iterations, scalar_report.iterations) << tag;
          EXPECT_NEAR(
              simd_report.final_objective, scalar_report.final_objective,
              1e-7 * std::fabs(scalar_report.final_objective) + 1e-12)
              << tag;
          EXPECT_LT(nn::Mlp::MaxAbsDiffParams(scalar.value(), simd.value()),
                    1e-6)
              << tag;
          simd_objectives.push_back(simd_report.final_objective);
          simd_models.push_back(std::move(simd).value());
        }
        EXPECT_EQ(simd_objectives[0], simd_objectives[1]) << base;
        EXPECT_EQ(nn::Mlp::MaxAbsDiffParams(simd_models[0], simd_models[1]),
                  0.0)
            << base;
      }
    }
  }
}

// F-NN's first-layer gradient splits grad0's columns across workers; an
// attribute block split between morsels must still be charged once per
// row (AddOuter's nh scaling of delta included), so the counters read the
// same at every thread count, on both kernel planes.
TEST(NnOpCountTest, FactorizedCountsDoNotDependOnThreads) {
  for (const bool two_way : {false, true}) {
    TempDir dir;
    BufferPool pool(512);
    auto spec = Spec(dir.str(), true);
    if (two_way) spec.attrs.push_back(data::AttributeSpec{15, 2});
    auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
    for (const auto kernels :
         {la::KernelMode::kScalar, la::KernelMode::kSimd}) {
      for (const bool grouped : {false, true}) {
        core::TrainReport serial;
        for (const int threads : {1, 2, 4}) {
          nn::NnOptions opt;
          opt.hidden = {8};
          opt.epochs = 1;
          opt.batch_rows = 600;
          opt.grouped_backward = grouped;
          opt.temp_dir = dir.str();
          opt.threads = threads;
          opt.kernels = kernels;
          pool.Clear();
          core::TrainReport report;
          auto mlp = core::TrainNn(rel, opt, core::Algorithm::kFactorized,
                                   &pool, &report);
          ASSERT_TRUE(mlp.ok()) << mlp.status().ToString();
          const std::string tag =
              std::string(two_way ? "2-way" : "binary") + " " +
              la::KernelModeName(kernels) + (grouped ? " grouped" : "") +
              " threads=" + std::to_string(threads);
          if (threads == 1) {
            serial = report;
            continue;
          }
          EXPECT_EQ(report.ops.mults, serial.ops.mults) << tag;
          EXPECT_EQ(report.ops.adds, serial.ops.adds) << tag;
          EXPECT_EQ(report.ops.subs, serial.ops.subs) << tag;
          EXPECT_EQ(report.ops.exps, serial.ops.exps) << tag;
        }
      }
    }
  }
}

// Every strategy runs the same model body; only F factors tables, so only
// F may emit the factored-table phases (NN's partial_cache), and S alone
// adds its join assembly. Pinned per strategy in first-seen order.
TEST(PhaseNamesTest, EachStrategyEmitsExactlyItsPhases) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  const auto names = [](const core::TrainReport& r) {
    std::vector<std::string> out;
    for (const auto& p : r.phases) out.push_back(p.name);
    return out;
  };
  using Names = std::vector<std::string>;
  const Names nn_phases[3] = {
      {"first_layer_fwd", "upper_layers", "w1_grad"},
      {"assemble", "first_layer_fwd", "upper_layers", "w1_grad"},
      {"partial_cache", "first_layer_fwd", "upper_layers", "w1_grad"},
  };
  const Names gmm_phases = {"e_step", "m_step_mean", "finalize",
                            "m_step_cov"};
  for (int a = 0; a < 3; ++a) {
    nn::NnOptions nopt;
    nopt.hidden = {8};
    nopt.epochs = 1;
    nopt.batch_rows = 600;
    nopt.temp_dir = dir.str();
    core::TrainReport nr;
    ASSERT_TRUE(core::TrainNn(rel, nopt, kAll[a], &pool, &nr).ok());
    EXPECT_EQ(names(nr), nn_phases[a]) << nr.algorithm;

    gmm::GmmOptions gopt;
    gopt.num_components = 2;
    gopt.max_iters = 2;
    gopt.temp_dir = dir.str();
    core::TrainReport gr;
    ASSERT_TRUE(core::TrainGmm(rel, gopt, kAll[a], &pool, &gr).ok());
    EXPECT_EQ(names(gr), gmm_phases) << gr.algorithm;
  }
}

// ----------------------------------------------- multiway linreg parity

TEST(LinregTest, MultiwayFactorizedMatches) {
  TempDir dir;
  BufferPool pool(512);
  auto spec = Spec(dir.str(), true);
  spec.attrs.push_back(data::AttributeSpec{15, 2});
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  linreg::LinregOptions opt;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  auto m = core::TrainLinreg(rel, opt, core::Algorithm::kMaterialized, &pool,
                             nullptr);
  auto f = core::TrainLinreg(rel, opt, core::Algorithm::kFactorized, &pool,
                             nullptr);
  ASSERT_TRUE(m.ok() && f.ok());
  EXPECT_LT(linreg::LinregModel::MaxAbsDiff(m.value(), f.value()), 1e-6);
}

// ------------------------------------------------- checkpoint / restore

double MetricValue(const core::TrainReport& r, const std::string& name) {
  for (const auto& s : r.metrics) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

TEST(CheckpointTest, FileRoundTripsAndCorruptionIsNamed) {
  TempDir dir;
  core::pipeline::CheckpointState st;
  st.label = "F-GMM";
  st.fingerprint = 0xFEEDFACEu;
  st.completed_iterations = 7;
  st.converged = true;
  st.ops = OpCounters{11, 22, 33, 44};
  st.state = {1.5, -0.0, 0.0, 1e-300, 42.0};
  ASSERT_TRUE(core::pipeline::WriteCheckpoint(dir.str(), st).ok());

  auto back = core::pipeline::ReadCheckpoint(dir.str(), "F-GMM");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().label, st.label);
  EXPECT_EQ(back.value().fingerprint, st.fingerprint);
  EXPECT_EQ(back.value().completed_iterations, 7);
  EXPECT_TRUE(back.value().converged);
  EXPECT_EQ(back.value().ops.mults, 11u);
  EXPECT_EQ(back.value().ops.exps, 44u);
  ASSERT_EQ(back.value().state.size(), st.state.size());
  for (size_t i = 0; i < st.state.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back.value().state[i], &st.state[i],
                          sizeof(double)),
              0)
        << "double " << i;
  }

  // A missing label is NotFound (train fresh), a flipped state byte is
  // InvalidArgument naming the block and both CRCs (warn, train fresh).
  EXPECT_EQ(core::pipeline::ReadCheckpoint(dir.str(), "F-KMEANS")
                .status()
                .code(),
            StatusCode::kNotFound);
  const std::string path = core::pipeline::CheckpointPath(dir.str(), "F-GMM");
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -6, SEEK_END);  // inside the state block's doubles
    std::fputc(0x5A, f);
    std::fclose(f);
  }
  const Status corrupt =
      core::pipeline::ReadCheckpoint(dir.str(), "F-GMM").status();
  EXPECT_EQ(corrupt.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(corrupt.ToString().find("CRC mismatch"), std::string::npos)
      << corrupt.ToString();
}

/// Resume contract, per family: train the full budget uninterrupted,
/// then train half the budget into a checkpoint dir and rerun the full
/// budget from it — objective, op counts and iteration totals must all
/// match the uninterrupted run exactly (bitwise for the objective).
template <typename Options, typename TrainFn, typename DiffFn>
void ExpectResumeParity(const join::NormalizedRelations& rel, Options& opt,
                        int full_budget, core::Algorithm algo,
                        BufferPool* pool, TrainFn train, DiffFn max_abs_diff,
                        int* set_budget, const char* family) {
  TempDir ckpt;
  opt.checkpoint_dir.clear();
  *set_budget = full_budget;
  pool->Clear();
  core::TrainReport base_report;
  auto base = train(rel, opt, algo, pool, &base_report);
  ASSERT_TRUE(base.ok()) << family << ": " << base.status().ToString();

  *set_budget = full_budget / 2;
  opt.checkpoint_dir = ckpt.str();
  pool->Clear();
  core::TrainReport half_report;
  auto half = train(rel, opt, algo, pool, &half_report);
  ASSERT_TRUE(half.ok()) << family << ": " << half.status().ToString();
  ASSERT_EQ(half_report.iterations, full_budget / 2) << family;

  *set_budget = full_budget;
  pool->Clear();
  core::TrainReport resumed_report;
  auto resumed = train(rel, opt, algo, pool, &resumed_report);
  ASSERT_TRUE(resumed.ok()) << family << ": " << resumed.status().ToString();

  EXPECT_EQ(resumed_report.final_objective, base_report.final_objective)
      << family;
  EXPECT_EQ(max_abs_diff(base.value(), resumed.value()), 0.0) << family;
  EXPECT_EQ(resumed_report.iterations, base_report.iterations) << family;
  EXPECT_EQ(resumed_report.ops.mults, base_report.ops.mults) << family;
  EXPECT_EQ(resumed_report.ops.adds, base_report.ops.adds) << family;
  EXPECT_EQ(resumed_report.ops.subs, base_report.ops.subs) << family;
  EXPECT_EQ(resumed_report.ops.exps, base_report.ops.exps) << family;
}

TEST(CheckpointTest, GmmResumeIsBitIdenticalAcrossStrategies) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  for (const auto algo : kAll) {
    ExpectResumeParity(rel, opt, 4, algo, &pool, core::TrainGmm,
                       gmm::GmmParams::MaxAbsDiff, &opt.max_iters, "gmm");
  }
}

TEST(CheckpointTest, KmeansShardedResumeIsBitIdentical) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  kmeans::KmeansOptions opt;
  opt.num_clusters = 3;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  opt.shards = 2;
  opt.morsel_rows = 500;
  ExpectResumeParity(rel, opt, 4, core::Algorithm::kFactorized, &pool,
                     core::TrainKmeans, kmeans::KmeansModel::MaxAbsDiff,
                     &opt.max_iters, "kmeans");
}

TEST(CheckpointTest, NnEpochResumeIsBitIdentical) {
  // The mini-batch plane's seam carries the most state: every layer's
  // weights and biases, the momentum velocities and the dropout
  // generator cursor. Shuffle + dropout + momentum are all on so a
  // missed cursor anywhere breaks the bitwise comparison.
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), true), &pool)).value();
  nn::NnOptions opt;
  opt.hidden = {8};
  opt.batch_rows = 256;
  opt.learning_rate = 0.05;
  opt.shuffle = true;
  opt.hidden_dropout = 0.25;
  opt.momentum = 0.9;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  ExpectResumeParity(rel, opt, 4, core::Algorithm::kFactorized, &pool,
                     core::TrainNn, nn::Mlp::MaxAbsDiffParams, &opt.epochs,
                     "nn");
}

TEST(CheckpointTest, CorruptCheckpointIsSkippedWithFreshStart) {
  TempDir dir;
  TempDir ckpt;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;
  pool.Clear();
  core::TrainReport base_report;
  auto base =
      core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                     &base_report);
  ASSERT_TRUE(base.ok());

  // Garbage where the checkpoint should be: training must detect it via
  // the CRC, warn, and produce exactly the fresh-start result.
  const std::string path =
      core::pipeline::CheckpointPath(ckpt.str(), "F-GMM");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("FMLCKPT1 but then noise that no CRC will bless", f);
    std::fclose(f);
  }
  opt.checkpoint_dir = ckpt.str();
  pool.Clear();
  core::TrainReport report;
  auto r =
      core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(report.final_objective, base_report.final_objective);
  EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), r.value()), 0.0);
  EXPECT_EQ(report.iterations, 2);
}

TEST(CheckpointTest, OptionValidationRejectsBadCombos) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 1;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();

  opt.checkpoint_every = 2;  // without a checkpoint dir
  core::TrainReport report;
  auto r = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                          &report);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("--checkpoint-dir"), std::string::npos)
      << r.status().ToString();
  opt.checkpoint_every = 0;

  // Model-option bounds: a zero-component or zero-iteration GMM, a
  // zero-iteration k-means and a zero-epoch or zero-width NN are rejected
  // up front (GMM k=0 used to abort in GmmParams::Init; the others
  // "succeeded" with nothing trained).
  const auto expect_invalid = [](const Status& st, const std::string& what) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.ToString().find(what), std::string::npos) << st.ToString();
  };
  for (const auto& [k, iters, what] :
       {std::tuple{size_t{0}, 1, "num_components"},
        std::tuple{size_t{3}, 0, "max_iters"},
        std::tuple{size_t{3}, -1, "max_iters"}}) {
    gmm::GmmOptions g = opt;
    g.num_components = k;
    g.max_iters = iters;
    expect_invalid(
        core::TrainGmm(rel, g, core::Algorithm::kFactorized, &pool, nullptr)
            .status(),
        what);
  }
  // GMM's doubles are checked before use: a bad init_spread used to fail
  // later as an unnamed Cholesky error.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  using GmmDouble = double gmm::GmmOptions::*;
  const GmmDouble cov_reg = &gmm::GmmOptions::cov_reg;
  const GmmDouble init_spread = &gmm::GmmOptions::init_spread;
  const GmmDouble tol = &gmm::GmmOptions::tol;
  for (const auto& [field, value, name] :
       {std::tuple{cov_reg, -1.0, "cov_reg"},
        std::tuple{cov_reg, nan, "cov_reg"},
        std::tuple{cov_reg, inf, "cov_reg"},
        std::tuple{init_spread, 0.0, "init_spread"},
        std::tuple{init_spread, -2.0, "init_spread"},
        std::tuple{init_spread, nan, "init_spread"},
        std::tuple{tol, nan, "tol"}, std::tuple{tol, inf, "tol"}}) {
    gmm::GmmOptions g = opt;
    g.*field = value;
    expect_invalid(
        core::TrainGmm(rel, g, core::Algorithm::kFactorized, &pool, nullptr)
            .status(),
        std::string("gmm: ") + name);
  }
  gmm::GmmOptions too_many = opt;
  too_many.num_components = static_cast<size_t>(rel.s.num_rows()) + 1;
  expect_invalid(core::TrainGmm(rel, too_many, core::Algorithm::kStreaming,
                                &pool, nullptr)
                     .status(),
                 "gmm: num_components");
  kmeans::KmeansOptions km;
  km.num_clusters = 3;
  km.max_iters = -1;
  km.temp_dir = dir.str();
  expect_invalid(
      core::TrainKmeans(rel, km, core::Algorithm::kStreaming, &pool, nullptr)
          .status(),
      "max_iters");
  km.max_iters = 1;
  km.tol = nan;
  expect_invalid(
      core::TrainKmeans(rel, km, core::Algorithm::kStreaming, &pool, nullptr)
          .status(),
      "kmeans: tol");
  auto rel_t = std::move(GenerateSynthetic(
                             [&] {
                               auto s = Spec(dir.str(), true);
                               s.name = "t2";
                               return s;
                             }(),
                             &pool))
                   .value();
  for (const auto& [hidden, epochs, what] :
       {std::tuple{std::vector<size_t>{4}, -2, "epochs"},
        std::tuple{std::vector<size_t>{0}, 1, "hidden width"},
        std::tuple{std::vector<size_t>{4, 0}, 1, "hidden width"}}) {
    nn::NnOptions nn;
    nn.hidden = hidden;
    nn.epochs = epochs;
    nn.temp_dir = dir.str();
    expect_invalid(
        core::TrainNn(rel_t, nn, core::Algorithm::kStreaming, &pool, nullptr)
            .status(),
        what);
  }
  // The ridge penalty of both Gram/cofactor families must be finite and
  // >= 0 (linreg used to train with any l2; logreg let NaN through to a
  // Cholesky failure).
  for (const double l2 : {-1.0, std::nan("")}) {
    linreg::LinregOptions lin;
    lin.l2 = l2;
    lin.temp_dir = dir.str();
    expect_invalid(core::TrainLinreg(rel_t, lin, core::Algorithm::kStreaming,
                                     &pool, nullptr)
                       .status(),
                   "l2");
  }
  logreg::LogregOptions lg;
  lg.l2 = std::nan("");
  lg.temp_dir = dir.str();
  expect_invalid(
      core::TrainLogreg(rel_t, lg, core::Algorithm::kStreaming, &pool, nullptr)
          .status(),
      "l2");
}

// -------------------------------------- slot memory + ShardDelta frames

TEST(ShardParityTest, ShardDeltaFramesBitIdenticalToUnsharded) {
  TempDir dir;
  BufferPool pool(512);
  auto rel =
      std::move(GenerateSynthetic(Spec(dir.str(), false), &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 2;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 2;
  opt.morsel_rows = 400;

  opt.shards = 1;
  pool.Clear();
  core::TrainReport base_report;
  auto base = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                             &base_report);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  // Every slot of every pass crosses a zero-run-length frame and back.
  opt.shards = 3;
  pool.Clear();
  core::TrainReport report;
  auto sharded = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                                &report);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  EXPECT_EQ(report.final_objective, base_report.final_objective);
  EXPECT_EQ(gmm::GmmParams::MaxAbsDiff(base.value(), sharded.value()), 0.0);
  EXPECT_EQ(report.ops.mults, base_report.ops.mults);
  EXPECT_EQ(report.ops.adds, base_report.ops.adds);
  EXPECT_EQ(MetricValue(base_report, "pipeline.delta_bytes"), 0.0);
  EXPECT_GT(MetricValue(report, "pipeline.delta_bytes"), 0.0);
}

TEST(SlotMemoryTest, RidScopedSlotsStayFarBelowFullDomainSizing) {
  // The bug this PR fixes: per-chunk slots used to allocate the full
  // table-0 domain each, O(chunk_count x k x n_R) total. Rid-scoped
  // slots partition the domain instead, so the measured bytes must sit
  // well under chunk_count x (one full-domain slot) once the chunk count
  // is large — and the chunked result stays bit-identical to itself
  // across thread counts (the existing parity suites pin that).
  //
  // A wide attribute table makes the k x n_R term the dominant slot
  // cost; with the shared 40-rid spec the fixed per-slot state drowns
  // out the rid-scoped savings and the ratio below is meaningless.
  TempDir dir;
  BufferPool pool(512);
  data::SyntheticSpec spec = Spec(dir.str(), false);
  spec.attrs = {data::AttributeSpec{600, 5}};
  auto rel = std::move(GenerateSynthetic(spec, &pool)).value();
  gmm::GmmOptions opt;
  opt.num_components = 3;
  opt.max_iters = 1;
  opt.batch_rows = 256;
  opt.temp_dir = dir.str();
  opt.threads = 1;

  pool.Clear();
  core::TrainReport serial_report;
  auto serial = core::TrainGmm(rel, opt, core::Algorithm::kFactorized, &pool,
                               &serial_report);
  ASSERT_TRUE(serial.ok());
  const double one_slot = MetricValue(serial_report, "pipeline.slot_bytes");
  ASSERT_GT(one_slot, 0.0);

  opt.morsel_rows = 100;  // 3000 rows -> 30 chunks
  pool.Clear();
  core::TrainReport chunked_report;
  auto chunked = core::TrainGmm(rel, opt, core::Algorithm::kFactorized,
                                &pool, &chunked_report);
  ASSERT_TRUE(chunked.ok());
  const double chunked_bytes =
      MetricValue(chunked_report, "pipeline.slot_bytes");
  ASSERT_GT(chunked_bytes, 0.0);
  const double full_domain_cost = 30.0 * one_slot;
  EXPECT_LT(chunked_bytes, 0.25 * full_domain_cost)
      << "slot memory grew like the pre-fix full-domain sizing "
      << "(chunked " << chunked_bytes << " vs full-domain "
      << full_domain_cost << ")";
}

}  // namespace
}  // namespace factorml
