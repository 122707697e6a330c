// google-benchmark microbenchmarks for the substrate kernels: dense
// linear algebra, Cholesky, storage scans and the streamed join. These
// are the building blocks whose relative costs determine where the
// M/S/F trade-offs land on a given machine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/opcount.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/factorml.h"
#include "join/join_cursor.h"
#include "la/cholesky.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "nn/backprop.h"

namespace factorml {
namespace {

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

void BM_GemmNT(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  la::Matrix x = RandomMatrix(256, n, 1);
  la::Matrix w = RandomMatrix(64, n, 2);
  la::Matrix c;
  for (auto _ : state) {
    la::GemmNT(x, w, &c, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 64 * n);
}
BENCHMARK(BM_GemmNT)->Arg(8)->Arg(32)->Arg(128);

void BM_QuadForm(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  la::Matrix a = RandomMatrix(d, d, 3);
  la::Matrix x = RandomMatrix(1, d, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::QuadForm(a, x.Row(0).data(), d));
  }
}
BENCHMARK(BM_QuadForm)->Arg(8)->Arg(32)->Arg(128);

void BM_BlockQuadFormSplit(benchmark::State& state) {
  // The factorized E-step's cost shape: UL + UR + LL on a dS/dR split,
  // with the LR block assumed cached.
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t ds = d / 4;
  const size_t dr = d - ds;
  la::Matrix a = RandomMatrix(d, d, 5);
  la::Matrix x = RandomMatrix(1, d, 6);
  const double* xs = x.Row(0).data();
  const double* xr = xs + ds;
  for (auto _ : state) {
    double q = la::Bilinear(a, 0, 0, xs, ds, xs, ds);
    q += la::Bilinear(a, 0, ds, xs, ds, xr, dr);
    q += la::Bilinear(a, ds, 0, xr, dr, xs, ds);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BlockQuadFormSplit)->Arg(8)->Arg(32)->Arg(128);

void BM_Cholesky(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  la::Matrix b = RandomMatrix(d, d, 7);
  la::Matrix a(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < d; ++p) s += b(i, p) * b(j, p);
      a(i, j) = s;
    }
    a(i, i) += d;
  }
  la::Cholesky chol;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chol.Factor(a).ok());
  }
}
BENCHMARK(BM_Cholesky)->Arg(8)->Arg(32)->Arg(128);

class StorageFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (rel) return;
    dir = std::make_unique<bench::BenchDir>();
    pool = std::make_unique<storage::BufferPool>(4096);
    data::SyntheticSpec spec;
    spec.dir = dir->str();
    spec.s_rows = 50000;
    spec.s_feats = 5;
    spec.attrs = {data::AttributeSpec{500, 10}};
    spec.seed = 9;
    auto r = data::GenerateSynthetic(spec, pool.get());
    if (!r.ok()) bench::Die(r.status());
    rel = std::make_unique<join::NormalizedRelations>(std::move(r).value());
  }

  static std::unique_ptr<bench::BenchDir> dir;
  static std::unique_ptr<storage::BufferPool> pool;
  static std::unique_ptr<join::NormalizedRelations> rel;
};
std::unique_ptr<bench::BenchDir> StorageFixture::dir;
std::unique_ptr<storage::BufferPool> StorageFixture::pool;
std::unique_ptr<join::NormalizedRelations> StorageFixture::rel;

BENCHMARK_F(StorageFixture, BM_TableScan)(benchmark::State& state) {
  storage::RowBatch batch;
  for (auto _ : state) {
    storage::TableScanner scanner(&rel->s, pool.get(), 4096);
    int64_t rows = 0;
    while (scanner.Next(&batch)) rows += batch.num_rows;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rel->s.num_rows());
}

BENCHMARK_F(StorageFixture, BM_JoinCursorStream)(benchmark::State& state) {
  join::JoinBatch batch;
  for (auto _ : state) {
    join::JoinCursor cursor(rel.get(), pool.get(), 4096);
    int64_t rows = 0;
    while (cursor.Next(&batch)) rows += batch.s_rows.num_rows;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rel->s.num_rows());
}

BENCHMARK_F(StorageFixture, BM_MaterializeJoin)(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    auto t = join::MaterializeJoin(
        *rel, pool.get(), dir->str() + "/bm_t" + std::to_string(i++ % 4) +
                              ".fml");
    if (!t.ok()) bench::Die(t.status());
    benchmark::DoNotOptimize(t.value().num_rows());
  }
}

// ---------------------------------------------------------------------
// Thread scaling of the factorized trainers over the fig3 binary-join
// workload (nS = rr * nR, dS = 5, dR = 15). One row per thread count —
// the exec/ runtime's speedup report; --threads=1 is the serial baseline.

class Fig3ScalingFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (rel) return;
    dir = std::make_unique<bench::BenchDir>();
    pool = std::make_unique<storage::BufferPool>(4096);
    data::SyntheticSpec spec;
    spec.dir = dir->str();
    spec.name = "fig3_scaling";
    spec.s_rows = 40000;
    spec.s_feats = 5;
    spec.attrs = {data::AttributeSpec{200, 15}};
    spec.with_target = true;  // shared by the GMM and NN scaling runs
    spec.seed = 11;
    auto r = data::GenerateSynthetic(spec, pool.get());
    if (!r.ok()) bench::Die(r.status());
    rel = std::make_unique<join::NormalizedRelations>(std::move(r).value());
  }

  static std::unique_ptr<bench::BenchDir> dir;
  static std::unique_ptr<storage::BufferPool> pool;
  static std::unique_ptr<join::NormalizedRelations> rel;
};
std::unique_ptr<bench::BenchDir> Fig3ScalingFixture::dir;
std::unique_ptr<storage::BufferPool> Fig3ScalingFixture::pool;
std::unique_ptr<join::NormalizedRelations> Fig3ScalingFixture::rel;

BENCHMARK_DEFINE_F(Fig3ScalingFixture, BM_FGmmThreads)
(benchmark::State& state) {
  gmm::GmmOptions opt;
  opt.num_components = 5;
  opt.max_iters = 2;
  opt.temp_dir = dir->str();
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pool->Clear();
    auto p = core::TrainGmm(*rel, opt, core::Algorithm::kFactorized, pool.get(),
                            nullptr);
    if (!p.ok()) bench::Die(p.status());
    benchmark::DoNotOptimize(p.value().pi.data());
  }
  state.SetItemsProcessed(state.iterations() * rel->s.num_rows());
}
BENCHMARK_REGISTER_F(Fig3ScalingFixture, BM_FGmmThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(Fig3ScalingFixture, BM_FNnThreads)
(benchmark::State& state) {
  nn::NnOptions opt;
  opt.hidden = {50};
  opt.epochs = 2;
  opt.temp_dir = dir->str();
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pool->Clear();
    auto m = core::TrainNn(*rel, opt, core::Algorithm::kFactorized, pool.get(),
                           nullptr);
    if (!m.ok()) bench::Die(m.status());
    benchmark::DoNotOptimize(m.value().w[0].data());
  }
  state.SetItemsProcessed(state.iterations() * rel->s.num_rows());
}
BENCHMARK_REGISTER_F(Fig3ScalingFixture, BM_FNnThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Kernel plane: the strip batch kernels under the scalar table vs the
// vector table this CPU resolves to (portable or avx2). Arg pair =
// (d, backend) with backend 0 = scalar, 1 = simd; the label names the
// resolved table. These are the per-strip inner loops whose scalar/simd
// ratio bounds what --kernels=simd can buy a whole training run.

constexpr size_t kStripRows = 256;  // storage::kDefaultStripRows
constexpr size_t kNh = 16;          // NN hidden width for the gemm shapes
constexpr size_t kNnEpochsNh = 50;  // the nn-epochs benchmark's width
constexpr size_t kNnEpochsBatch = 1024;  // and its mini-batch rows
constexpr size_t kGatherRows = 64;  // attribute-table height for gathers

/// One page-aligned block that hands out a benchmark's operands at fixed
/// offsets (each a whole number of cache lines past the last). Heap
/// addresses — and so which operands share L1 sets — move with whatever a
/// binary allocated before: rows of unchanged kernels moved by up to 60%
/// between two builds that differed only in an early allocation. Arena
/// offsets depend only on the operand shapes, so the same row in two
/// binaries sees the same layout.
class Arena {
 public:
  static constexpr size_t kPage = 4096;
  static constexpr size_t kBytes = 4 << 20;  // untouched pages cost nothing

  Arena() : base_(static_cast<char*>(std::aligned_alloc(kPage, kBytes))) {
    if (base_ == nullptr) std::abort();
  }
  ~Arena() { std::free(base_); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// n zero-filled Ts at the next 64-byte offset.
  template <typename T>
  std::span<T> Take(size_t n) {
    const size_t bytes = (n * sizeof(T) + 63) / 64 * 64;
    if (used_ + bytes > kBytes) std::abort();
    T* p = reinterpret_cast<T*>(base_ + used_);
    std::memset(p, 0, n * sizeof(T));
    used_ += bytes;
    return {p, n};
  }

 private:
  char* base_;
  size_t used_ = 0;
};

/// One decoded strip's worth of random columns plus the small operands
/// the strip kernels take, including the gemm/gather operands of the NN
/// epoch plane (W1 slice, transposed activation block, partial-cache
/// rows and a rid column). The gemm operands fit either hidden width.
struct StripData {
  StripData(size_t d, size_t rows, uint64_t seed)
      : data(arena.Take<double>(d * rows)), w(arena.Take<double>(rows)),
        v(arena.Take<double>(d)), center(arena.Take<double>(d)),
        out(arena.Take<double>(rows)), cols(arena.Take<const double*>(d)),
        w1(arena.Take<double>(kNnEpochsNh * d)),
        ct(arena.Take<double>(kNnEpochsNh * rows)),
        grad(arena.Take<double>(kNnEpochsNh * d)),
        base(arena.Take<double>(kGatherRows * kNh)),
        gout(arena.Take<double>(rows * kNh)),
        idx(arena.Take<int64_t>(rows)) {
    Rng rng(seed);
    for (double& x : data) x = rng.NextGaussian();
    for (double& x : w) x = rng.NextUniform(0.25, 1.25);
    for (double& x : v) x = rng.NextGaussian();
    for (double& x : center) x = rng.NextGaussian();
    for (double& x : w1) x = rng.NextGaussian();
    for (double& x : base) x = rng.NextGaussian();
    for (size_t j = 0; j < d; ++j) cols[j] = data.data() + j * rows;
    // FK1-run-shaped rid column: short contiguous runs, like the group
    // batches join::ChunkFk1Runs delivers.
    for (size_t r = 0; r < rows; ++r) {
      idx[r] = static_cast<int64_t>((r / 4) % kGatherRows);
    }
  }
  Arena arena;  // first: the spans below point into it
  std::span<double> data, w, v, center, out;
  std::span<const double*> cols;
  std::span<double> w1, ct, grad, base, gout;
  std::span<int64_t> idx;
};

la::KernelMode ModeOf(const benchmark::State& state) {
  return state.range(1) == 1 ? la::KernelMode::kSimd
                             : la::KernelMode::kScalar;
}

void LabelBackend(benchmark::State& state) {
  state.SetLabel(state.range(1) == 1 ? la::SimdBackendName() : "scalar");
}

void BM_SyrkStrip(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 21);
  std::vector<double> gram(d * d, 0.0);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.syrk_strip(s.cols.data(), d, kStripRows, s.w.data(), gram.data(), d,
                 /*upper=*/false);
    benchmark::DoNotOptimize(gram.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d * d);
  LabelBackend(state);
}
BENCHMARK(BM_SyrkStrip)->ArgsProduct({{8, 20, 32}, {0, 1}});

void BM_GramSyrkStrip(benchmark::State& state) {
  // The linreg/logreg Gram feed's call: unit weights, upper triangle, at
  // the linreg-spill benchmark's joined width d = 30.
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 29);
  std::vector<double> gram(d * d, 0.0);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.syrk_strip(s.cols.data(), d, kStripRows, /*w=*/nullptr, gram.data(), d,
                 /*upper=*/true);
    benchmark::DoNotOptimize(gram.data());
    benchmark::ClobberMemory();
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d * (d + 1) / 2);
  LabelBackend(state);
}
BENCHMARK(BM_GramSyrkStrip)->ArgsProduct({{30}, {0, 1}});

void BM_ColDotStrip(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 22);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.col_dot_strip(s.cols.data(), d, kStripRows, s.v.data(),
                    s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d);
  LabelBackend(state);
}
BENCHMARK(BM_ColDotStrip)->ArgsProduct({{8, 32}, {0, 1}});

void BM_DistStrip(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 23);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.dist_strip(s.cols.data(), d, kStripRows, s.center.data(),
                 s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d);
  LabelBackend(state);
}
BENCHMARK(BM_DistStrip)->ArgsProduct({{8, 32}, {0, 1}});

void BM_QuadFormStrip(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 24);
  la::Matrix a = RandomMatrix(d, d, 25);
  // diff is d x rows row-major, like the GMM E-step's centered strip. A
  // is not symmetric: the vector backends fold its two triangles, which
  // costs what the GMM precision's (exactly symmetric) fold costs.
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.quadform_strip(s.data.data(), d, kStripRows, a.data(), d,
                     s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * d * d);
  LabelBackend(state);
}
BENCHMARK(BM_QuadFormStrip)->ArgsProduct({{8, 20, 32}, {0, 1}});

/// The GMM E-step posterior's operands for k components over `rows`
/// points: chi-square(20) quadratic forms (gmm-fit's joined width) and
/// log coefficients a few nats apart, so every component keeps mass.
struct PosteriorData {
  PosteriorData(size_t k, size_t rows, uint64_t seed)
      : q(arena.Take<double>(k * rows)), log_coeff(arena.Take<double>(k)),
        gamma(arena.Take<double>(k * rows)), lse(arena.Take<double>(rows)) {
    Rng rng(seed);
    for (double& x : q) {
      x = 0.0;
      for (int j = 0; j < 20; ++j) {
        const double g = rng.NextGaussian();
        x += g * g;
      }
    }
    for (size_t c = 0; c < k; ++c) {
      log_coeff[c] = -30.0 - static_cast<double>(c);
    }
  }
  Arena arena;
  std::span<double> q, log_coeff, gamma, lse;
};

void BM_PosteriorStrip(benchmark::State& state) {
  // k x rows quadratic forms to responsibilities plus one log-sum-exp per
  // row, at gmm-fit's k = 5.
  const size_t k = static_cast<size_t>(state.range(0));
  PosteriorData p(k, kStripRows, 33);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& kern = la::Active();
  for (auto _ : state) {
    kern.posterior_strip(p.q.data(), kStripRows, k, kStripRows,
                         p.log_coeff.data(), p.gamma.data(), kStripRows,
                         p.lse.data());
    benchmark::DoNotOptimize(p.gamma.data());
    benchmark::DoNotOptimize(p.lse.data());
    benchmark::ClobberMemory();
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * k);
  LabelBackend(state);
}
BENCHMARK(BM_PosteriorStrip)->ArgsProduct({{5}, {0, 1}});

void BM_GemmStrip(benchmark::State& state) {
  // The NN first-layer forward shape: C(nh x rows) = W1(nh x d) * strip.
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 26);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.gemm_strip(s.w1.data(), d, s.data.data(), kStripRows, kNh, kStripRows,
                 d, s.ct.data(), kStripRows, /*trans_b=*/false,
                 /*accumulate=*/false);
    benchmark::DoNotOptimize(s.ct.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * kNh * d);
  LabelBackend(state);
}
BENCHMARK(BM_GemmStrip)->ArgsProduct({{8, 32}, {0, 1}});

void BM_GemmStripBatch(benchmark::State& state) {
  // The NN first-layer forward at the nn-epochs shape: C(50 x 1,024) =
  // W1(50 x k) * a k x 1,024 batch block, C's row stride 1,024 — k = 5
  // (F's S slice), 15 (its R slice) and 20 (the joined width).
  constexpr size_t kBatch = kNnEpochsBatch;
  const size_t k = static_cast<size_t>(state.range(0));
  Arena arena;
  const std::span<double> a = arena.Take<double>(kNnEpochsNh * k);
  const std::span<double> b = arena.Take<double>(k * kBatch);
  const std::span<double> c = arena.Take<double>(kNnEpochsNh * kBatch);
  Rng rng(34);
  for (double& x : a) x = rng.NextGaussian();
  for (double& x : b) x = rng.NextGaussian();
  la::SelectKernels(ModeOf(state));
  const la::Kernels& kern = la::Active();
  for (auto _ : state) {
    kern.gemm_strip(a.data(), k, b.data(), kBatch, kNnEpochsNh, kBatch, k,
                    c.data(), kBatch, /*trans_b=*/false, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kBatch * kNnEpochsNh * k);
  LabelBackend(state);
}
BENCHMARK(BM_GemmStripBatch)->ArgsProduct({{5, 15, 20}, {0, 1}});

void BM_GemmStripT(benchmark::State& state) {
  // The NN backward shape: G(nh x d) += delta^T(nh x rows) * strip^T.
  const size_t d = static_cast<size_t>(state.range(0));
  StripData s(d, kStripRows, 27);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.gemm_strip(s.ct.data(), kStripRows, s.data.data(), kStripRows, kNh, d,
                 kStripRows, s.grad.data(), d, /*trans_b=*/true,
                 /*accumulate=*/true);
    benchmark::DoNotOptimize(s.grad.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * kNh * d);
  LabelBackend(state);
}
BENCHMARK(BM_GemmStripT)->ArgsProduct({{8, 32}, {0, 1}});

void BM_GatherAddRowsStrip(benchmark::State& state) {
  // The factorized NN partial-cache gather over an FK1 rid column.
  StripData s(8, kStripRows, 28);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.gather_add_rows_strip(s.base.data(), kNh, s.idx.data(), kStripRows,
                            kNh, s.gout.data(), kNh);
    benchmark::DoNotOptimize(s.gout.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * kNh);
  LabelBackend(state);
}
BENCHMARK(BM_GatherAddRowsStrip)->ArgsProduct({{8}, {0, 1}});

/// The operands of one sigmoid backward step through the nn-epochs output
/// unit: its weight row w (nh), its delta row d (batch) and the hidden
/// layer's nh x batch sigmoid output h, into delta.
struct SigmoidBackwardData {
  SigmoidBackwardData(size_t nh, size_t batch, uint64_t seed)
      : w(arena.Take<double>(nh)), d(arena.Take<double>(batch)),
        h(arena.Take<double>(nh * batch)),
        delta(arena.Take<double>(nh * batch)) {
    Rng rng(seed);
    for (double& x : w) x = rng.NextGaussian();
    for (double& x : d) x = rng.NextGaussian() * 1e-3;
    for (double& x : h) x = rng.NextUniform(0.0, 1.0);
  }
  Arena arena;
  std::span<double> w, d, h, delta;
};

void BM_SigmoidStrip(benchmark::State& state) {
  // The NN hidden activation over one strip of nh x rows pre-activations
  // (the upper-layers phase of every strategy).
  StripData s(8, kStripRows, 30);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.sigmoid(s.ct.data(), kNh * kStripRows, s.gout.data());
    benchmark::DoNotOptimize(s.gout.data());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kStripRows * kNh);
  LabelBackend(state);
}
BENCHMARK(BM_SigmoidStrip)->ArgsProduct({{8}, {0, 1}});

void BM_SigmoidBackwardStrip(benchmark::State& state) {
  // The nn-epochs output unit's backward step: delta(nh x 1,024) =
  // w^T d scaled by the hidden sigmoid's h(1 - h), in one sweep.
  const size_t nh = static_cast<size_t>(state.range(0));
  SigmoidBackwardData s(nh, kNnEpochsBatch, 37);
  la::SelectKernels(ModeOf(state));
  const la::Kernels& k = la::Active();
  for (auto _ : state) {
    k.sigmoid_backward(s.w.data(), nh, s.d.data(), kNnEpochsBatch,
                       s.h.data(), kNnEpochsBatch, s.delta.data());
    benchmark::DoNotOptimize(s.delta.data());
    benchmark::ClobberMemory();
  }
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * kNnEpochsBatch * nh);
  LabelBackend(state);
}
BENCHMARK(BM_SigmoidBackwardStrip)->ArgsProduct({{50}, {0, 1}});

/// One NN upper-layer step at the nn-epochs shape: a 1,024-row batch, one
/// sigmoid hidden layer of 50 units, from a random transposed first-layer
/// block. This is the `upper_layers` phase every strategy pays in full.
/// The targets come from the arena; the model, a1t and the engine's own
/// buffers are la::Matrix storage, still on the heap.
struct UpperLayersStep {
  static constexpr size_t kBatch = kNnEpochsBatch;
  static constexpr size_t kD = 20;
  UpperLayersStep()
      : mlp(nn::Mlp::Init(kD, {kNnEpochsNh}, nn::Activation::kSigmoid, 40)),
        engine(&mlp, 1e-6),
        a1t(RandomMatrix(kNnEpochsNh, kBatch, 41)),
        y(arena.Take<double>(kBatch)) {
    Rng rng(42);
    for (double& v : y) v = rng.NextGaussian();
  }
  double Run() { return engine.Step(a1t, y.data()); }
  // The ops one step charges to the counters (every mult, add, sub and
  // exp of the cost model).
  uint64_t CountedOps() {
    const OpCounters before = GlobalOps();
    Run();
    return (GlobalOps() - before).Total();
  }

  Arena arena;
  nn::Mlp mlp;
  nn::internal::BackpropEngine engine;
  la::Matrix a1t;
  std::span<double> y;
};

void BM_UpperLayersStep(benchmark::State& state) {
  UpperLayersStep step;
  la::SelectKernels(ModeOf(state));
  for (auto _ : state) benchmark::DoNotOptimize(step.Run());
  la::SelectKernels(la::KernelMode::kScalar);
  state.SetItemsProcessed(state.iterations() * UpperLayersStep::kBatch);
  LabelBackend(state);
}
BENCHMARK(BM_UpperLayersStep)->ArgsProduct({{50}, {0, 1}});

}  // namespace

// ---------------------------------------------------------------------
// --json=PATH roofline sweep (the BENCH_kernels.json CI artifact): times
// every kernel of both tables on one strip at d in {5, 8, 20, 32}, and
// records achieved GFLOP/s and effective GB/s next to the resolved backend
// and CPU features — enough to place each kernel against the machine's
// compute/bandwidth ceilings and track the scalar/simd ratio over time.
// d = 20 is the joined width of the gmm-fit, kmeans-shards and nn-epochs
// benchmark workloads, d = 5 their S slice (the factorized strategy's
// strip width). The NN kernels record their hidden width `nh` (null for
// the others); the two gemm shapes also run at nn-epochs' nh = 50.
// posterior_strip runs once per table at gmm-fit's k = 5 components,
// recorded as its `d` (the height of its k x rows input).

void WriteKernelRoofline(const std::string& path) {
  constexpr size_t kRows = kStripRows;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --json=%s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  bool first = true;
  for (const size_t d : {size_t{5}, size_t{8}, size_t{20}, size_t{32}}) {
    StripData s(d, kRows, 31);
    std::vector<double> gram(d * d, 0.0);
    la::Matrix a = RandomMatrix(d, d, 32);
    std::vector<double> y(d, 0.0);
    struct Cell {
      const char* kernel;
      size_t nh;              // NN hidden width; 0 = not an NN kernel
      uint64_t flops, bytes;  // per call
      void (*run)(const la::Kernels&, StripData&, std::vector<double>&,
                  const la::Matrix&, std::vector<double>&, size_t d,
                  size_t nh);
    };
    // The NN forward C(nh x rows) = W1(nh x d) * strip and backward
    // G(nh x d) += delta^T(nh x rows) * strip^T.
    const auto gemm = [d](size_t nh) {
      return Cell{"gemm_strip", nh, 2 * kRows * nh * d,
                  (d * kRows + nh * d + nh * kRows) * 8,
                  [](const la::Kernels& k, StripData& s, std::vector<double>&,
                     const la::Matrix&, std::vector<double>&, size_t d,
                     size_t nh) {
                    k.gemm_strip(s.w1.data(), d, s.data.data(), kRows, nh,
                                 kRows, d, s.ct.data(), kRows,
                                 /*trans_b=*/false, /*accumulate=*/false);
                  }};
    };
    const auto gemm_t = [d](size_t nh) {
      return Cell{"gemm_strip_t", nh, 2 * kRows * nh * d,
                  (d * kRows + nh * kRows + 2 * nh * d) * 8,
                  [](const la::Kernels& k, StripData& s, std::vector<double>&,
                     const la::Matrix&, std::vector<double>&, size_t d,
                     size_t nh) {
                    k.gemm_strip(s.ct.data(), kRows, s.data.data(), kRows, nh,
                                 d, kRows, s.grad.data(), d, /*trans_b=*/true,
                                 /*accumulate=*/true);
                  }};
    };
    const Cell cells[] = {
        {"syrk_strip", 0, 2 * kRows * d * d + 2 * kRows * d,
         (d * kRows + kRows + 2 * d * d) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>& gram,
            const la::Matrix&, std::vector<double>&, size_t d, size_t) {
           k.syrk_strip(s.cols.data(), d, kRows, s.w.data(), gram.data(),
                        d, /*upper=*/false);
         }},
        {"col_dot_strip", 0, 2 * kRows * d, (d * kRows + d + kRows) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t d, size_t) {
           k.col_dot_strip(s.cols.data(), d, kRows, s.v.data(),
                           s.out.data());
         }},
        {"colsum_strip", 0, 2 * kRows * d, (d * kRows + kRows + 2 * d) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>& acc, size_t d,
            size_t) {
           k.colsum_strip(s.cols.data(), d, kRows, s.w.data(), acc.data());
         }},
        {"dist_strip", 0, 3 * kRows * d, (d * kRows + d + kRows) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t d, size_t) {
           k.dist_strip(s.cols.data(), d, kRows, s.center.data(),
                        s.out.data());
         }},
        {"quadform_strip", 0, 2 * kRows * (d * d + d),
         (d * kRows + d * d * 8 + kRows) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix& a, std::vector<double>&, size_t d, size_t) {
           k.quadform_strip(s.data.data(), d, kRows, a.data(), d,
                            s.out.data());
         }},
        gemm(kNh),
        gemm_t(kNh),
        gemm(kNnEpochsNh),
        gemm_t(kNnEpochsNh),
        {"gather_add_rows_strip", kNh, kRows * kNh,
         (2 * kRows * kNh * 8 + kRows * kNh * 8 + kRows * 8),
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t, size_t) {
           k.gather_add_rows_strip(s.base.data(), kNh, s.idx.data(), kRows,
                                   kNh, s.gout.data(), kNh);
         }},
        // One op per element: the exp the counters charge.
        {"sigmoid", kNh, kRows * kNh, 2 * kRows * kNh * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t, size_t) {
           k.sigmoid(s.ct.data(), kRows * kNh, s.gout.data());
         }},
        // The output unit's backward through the nh x rows sigmoid block:
        // the 5 ops per element the counters charge (the k = 1 product's
        // mult and add, f'(h)'s mult and sub, the scaling mult).
        {"sigmoid_backward", kNh, 5 * kRows * kNh,
         (2 * kRows * kNh + kRows + kNh) * 8,
         [](const la::Kernels& k, StripData& s, std::vector<double>&,
            const la::Matrix&, std::vector<double>&, size_t, size_t) {
           k.sigmoid_backward(s.w1.data(), kNh, s.w.data(), kRows,
                              s.gout.data(), kRows, s.ct.data());
         }},
    };
    for (const auto mode : {la::KernelMode::kScalar, la::KernelMode::kSimd}) {
      la::SelectKernels(mode);
      const la::Kernels& k = la::Active();
      for (const Cell& cell : cells) {
        // Reps sized so every cell runs ~2*10^8 inner-loop flops.
        const int reps = static_cast<int>(
            std::max<uint64_t>(100, 200'000'000 / cell.flops));
        cell.run(k, s, gram, a, y, d, cell.nh);  // warm-up (and page-in)
        Stopwatch sw;
        for (int i = 0; i < reps; ++i) {
          cell.run(k, s, gram, a, y, d, cell.nh);
        }
        const double secs = sw.ElapsedSeconds();
        const double gflops =
            static_cast<double>(cell.flops) * reps / secs * 1e-9;
        const double gbps =
            static_cast<double>(cell.bytes) * reps / secs * 1e-9;
        const std::string nh =
            cell.nh == 0 ? "null" : std::to_string(cell.nh);
        std::fprintf(
            f,
            "%s  {\"bench\": \"micro_kernels\", \"section\": \"roofline\","
            " \"kernel\": \"%s\", \"backend\": \"%s\", \"d\": %zu,"
            " \"nh\": %s, \"rows\": %zu, \"reps\": %d, \"seconds\": %.6f,"
            " \"gflops\": %.3f, \"gbytes_per_sec\": %.3f,"
            " \"cpu_features\": \"%s\", \"git_describe\": \"%s\"}",
            first ? "" : ",\n", cell.kernel, k.name, d, nh.c_str(), kRows,
            reps, secs, gflops, gbps, la::CpuFeatures().c_str(),
            obs::GitDescribe());
        first = false;
      }
    }
    la::SelectKernels(la::KernelMode::kScalar);
  }
  // The GMM E-step posterior: its "gflops" count the ops the counters
  // charge per row (2k + 1 exps, k adds, k subs) — the costliest being
  // the exps, one in-lane per (row, component) on the vector backends.
  constexpr size_t kComponents = 5;
  PosteriorData post(kComponents, kRows, 36);
  for (const auto mode : {la::KernelMode::kScalar, la::KernelMode::kSimd}) {
    la::SelectKernels(mode);
    const la::Kernels& k = la::Active();
    const auto run = [&] {
      k.posterior_strip(post.q.data(), kRows, kComponents, kRows,
                        post.log_coeff.data(), post.gamma.data(), kRows,
                        post.lse.data());
    };
    constexpr int kReps = 20000;
    run();  // warm-up
    Stopwatch sw;
    for (int i = 0; i < kReps; ++i) run();
    const double secs = sw.ElapsedSeconds();
    const uint64_t ops = kRows * (4 * kComponents + 1);
    const uint64_t bytes = (2 * kComponents * kRows + kRows) * 8;
    std::fprintf(
        f,
        ",\n  {\"bench\": \"micro_kernels\", \"section\": \"roofline\","
        " \"kernel\": \"posterior_strip\", \"backend\": \"%s\","
        " \"d\": %zu, \"nh\": null, \"rows\": %zu, \"reps\": %d,"
        " \"seconds\": %.6f, \"gflops\": %.3f, \"gbytes_per_sec\": %.3f,"
        " \"cpu_features\": \"%s\", \"git_describe\": \"%s\"}",
        k.name, kComponents, kRows, kReps, secs,
        static_cast<double>(ops) * kReps / secs * 1e-9,
        static_cast<double>(bytes) * kReps / secs * 1e-9,
        la::CpuFeatures().c_str(), obs::GitDescribe());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  // The whole NN upper-layer step (nn-epochs shape) as one more row per
  // table: the gemm_strip calls, the sigmoid and the elementwise passes
  // that make up the upper_layers phase. Its "gflops" are the counted ops
  // (mults + adds + subs + exps) per second.
  UpperLayersStep step;
  for (const auto mode : {la::KernelMode::kScalar, la::KernelMode::kSimd}) {
    la::SelectKernels(mode);
    constexpr int kReps = 200;
    const uint64_t ops = step.CountedOps();  // also the warm-up
    Stopwatch sw;
    for (int i = 0; i < kReps; ++i) step.Run();
    const double secs = sw.ElapsedSeconds();
    std::fprintf(
        f,
        ",\n  {\"bench\": \"micro_kernels\", \"section\": \"roofline\","
        " \"kernel\": \"upper_layers_step\", \"backend\": \"%s\","
        " \"d\": %zu, \"nh\": %zu, \"rows\": %zu, \"reps\": %d,"
        " \"seconds\": %.6f, \"gflops\": %.3f, \"gbytes_per_sec\": null,"
        " \"cpu_features\": \"%s\", \"git_describe\": \"%s\"}",
        la::Active().name, UpperLayersStep::kD, kNnEpochsNh,
        UpperLayersStep::kBatch, kReps, secs,
        static_cast<double>(ops) * kReps / secs * 1e-9,
        la::CpuFeatures().c_str(), obs::GitDescribe());
  }
  la::SelectKernels(la::KernelMode::kScalar);
  std::fprintf(f, "\n]\n");
  std::fclose(f);
  std::printf("wrote kernel roofline to %s\n", path.c_str());
}

}  // namespace factorml

int main(int argc, char** argv) {
  // Peel --json=PATH off before google-benchmark parses the rest (it
  // rejects flags it does not own).
  std::string json_path;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) factorml::WriteKernelRoofline(json_path);
  return 0;
}
