#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/opcount.h"
#include "common/rng.h"
#include "gmm/gmm_model.h"
#include "gtest/gtest.h"
#include "la/cholesky.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "nn/activation.h"
#include "test_util.h"

namespace factorml::la {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

/// Random symmetric positive-definite matrix A = B B^T + n*I.
Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix b = RandomMatrix(n, n, rng);
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < n; ++p) s += b(i, p) * b(j, p);
      a(i, j) = s;
    }
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, RowSpanAliasesStorage) {
  Matrix m(3, 4);
  auto row = m.Row(1);
  row[2] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_EQ(row.size(), 4u);
}

TEST(MatrixTest, ScaleAddFill) {
  Matrix a(2, 2);
  a.Fill(2.0);
  a.Scale(3.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 6.0);
  Matrix b(2, 2);
  b.Fill(1.0);
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(0, 0), 7.0);
  a.SetZero();
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(MatrixTest, TransposedAndIdentity) {
  Matrix m(2, 3);
  m(0, 1) = 4.0;
  m(1, 2) = -1.0;
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(t(2, 1), -1.0);
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 2), 0.0);
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  a(0, 1) = 1.0;
  b(0, 1) = 1.5;
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a, a), 0.0);
}

TEST(MatrixTest, ResizeZeroFills) {
  Matrix m(1, 1);
  m(0, 0) = 9.0;
  m.Resize(2, 2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

// ------------------------------------------------------------------ Ops

TEST(OpsTest, DotAndAxpy) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 32.0);
  double y[] = {1.0, 1.0, 1.0};
  Axpy(2.0, a, y, 3);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
}

TEST(OpsTest, BilinearSubBlock) {
  // A 4x4 with a known 2x2 block at (1,2).
  Matrix a(4, 4);
  a(1, 2) = 1.0;
  a(1, 3) = 2.0;
  a(2, 2) = 3.0;
  a(2, 3) = 4.0;
  const double u[] = {1.0, 1.0};
  const double v[] = {1.0, -1.0};
  // u^T [[1,2],[3,4]] v = (1+3)*1 + (2+4)*(-1) = -2.
  EXPECT_DOUBLE_EQ(Bilinear(a, 1, 2, u, 2, v, 2), -2.0);
}

TEST(OpsTest, QuadFormEqualsFullBilinear) {
  Rng rng(3);
  Matrix a = RandomSpd(5, &rng);
  std::vector<double> x(5);
  for (auto& v : x) v = rng.NextGaussian();
  double manual = 0.0;
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) manual += x[i] * a(i, j) * x[j];
  }
  EXPECT_NEAR(QuadForm(a, x.data(), 5), manual, 1e-10);
}

TEST(OpsTest, GemmNTMatchesNaive) {
  Rng rng(4);
  Matrix x = RandomMatrix(3, 5, &rng);
  Matrix w = RandomMatrix(4, 5, &rng);
  Matrix c;
  GemmNT(x, w, &c, false);
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < 5; ++p) s += x(i, p) * w(j, p);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
  }
}

TEST(OpsTest, GemmNTAccumulates) {
  Rng rng(5);
  Matrix x = RandomMatrix(2, 3, &rng);
  Matrix w = RandomMatrix(2, 3, &rng);
  Matrix c(2, 2);
  c.Fill(1.0);
  GemmNT(x, w, &c, true);
  Matrix fresh;
  GemmNT(x, w, &fresh, false);
  EXPECT_NEAR(c(1, 1), fresh(1, 1) + 1.0, 1e-12);
}

TEST(OpsTest, AddOuterIntoBlock) {
  Matrix a(4, 4);
  const double u[] = {1.0, 2.0};
  const double v[] = {3.0, 4.0};
  AddOuter(2.0, u, 2, v, 2, &a, 1, 2);
  EXPECT_DOUBLE_EQ(a(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(a(1, 3), 8.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 12.0);
  EXPECT_DOUBLE_EQ(a(2, 3), 16.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
}

TEST(OpsTest, AddRowVector) {
  Matrix x(2, 3);
  const double b[] = {1.0, 2.0, 3.0};
  AddRowVector(b, &x);
  AddRowVector(b, &x);
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(1, 2), 6.0);
}

// ------------------------------------------------------------- Cholesky

class CholeskySizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskySizeTest, FactorReconstructsMatrix) {
  Rng rng(100 + GetParam());
  const size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  const Matrix& l = chol.lower();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < n; ++p) s += l(i, p) * l(j, p);
      EXPECT_NEAR(s, a(i, j), 1e-8) << "at " << i << "," << j;
    }
  }
}

TEST_P(CholeskySizeTest, SolveSatisfiesSystem) {
  Rng rng(200 + GetParam());
  const size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  std::vector<double> b(n), x(n), ax(n);
  for (auto& v : b) v = rng.NextGaussian();
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  chol.Solve(b.data(), x.data());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) ax[i] += a(i, j) * x[j];
  }
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-7);
}

TEST_P(CholeskySizeTest, InverseTimesMatrixIsIdentity) {
  Rng rng(300 + GetParam());
  const size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  Matrix inv = chol.Inverse();
  Matrix prod;
  GemmNT(a, inv.Transposed(), &prod, false);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-7);
    }
  }
}

TEST_P(CholeskySizeTest, LogDetMatchesDiagonalProduct) {
  Rng rng(400 + GetParam());
  const size_t n = GetParam();
  Matrix a = RandomSpd(n, &rng);
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  double ld = 0.0;
  for (size_t i = 0; i < n; ++i) ld += 2.0 * std::log(chol.lower()(i, i));
  EXPECT_NEAR(chol.LogDet(), ld, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(CholeskyTest, RejectsNonSquare) {
  Cholesky chol;
  EXPECT_EQ(chol.Factor(Matrix(2, 3)).code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  Cholesky chol;
  EXPECT_EQ(chol.Factor(a).code(), StatusCode::kFailedPrecondition);
}

TEST(CholeskyTest, JitterRecoversNearSingular) {
  // Rank-deficient PSD matrix: outer product of one vector.
  Matrix a(3, 3);
  const double v[] = {1.0, 2.0, 3.0};
  AddOuter(1.0, v, 3, v, 3, &a, 0, 0);
  Cholesky chol;
  EXPECT_FALSE(chol.Factor(a).ok());
  FML_EXPECT_OK(chol.FactorWithJitter(a));
  EXPECT_TRUE(chol.factored());
}

TEST(CholeskyTest, MultiplyLowerSamplesCovariance) {
  Rng rng(55);
  Matrix a = RandomSpd(3, &rng);
  Cholesky chol;
  FML_ASSERT_OK(chol.Factor(a));
  // y = L z with z = e0 gives the first column of L.
  const double z[] = {1.0, 0.0, 0.0};
  double y[3];
  chol.MultiplyLower(z, y);
  EXPECT_NEAR(y[0], chol.lower()(0, 0), 1e-12);
  EXPECT_NEAR(y[1], chol.lower()(1, 0), 1e-12);
  EXPECT_NEAR(y[2], chol.lower()(2, 0), 1e-12);
}

// Property: the factorized quadratic-form decomposition used by F-GMM is
// exact — sum of block bilinears equals the full quadratic form.
class BlockDecompositionTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(BlockDecompositionTest, BlocksSumToFullQuadForm) {
  const size_t ds = std::get<0>(GetParam());
  const size_t dr = std::get<1>(GetParam());
  const size_t d = ds + dr;
  Rng rng(1000 + ds * 13 + dr);
  Matrix a = RandomSpd(d, &rng);
  std::vector<double> x(d);
  for (auto& v : x) v = rng.NextGaussian();
  const double full = QuadForm(a, x.data(), d);
  const double* xs = x.data();
  const double* xr = x.data() + ds;
  // Eq. 9-12: UL + UR + LL + LR.
  const double ul = Bilinear(a, 0, 0, xs, ds, xs, ds);
  const double ur = Bilinear(a, 0, ds, xs, ds, xr, dr);
  const double ll = Bilinear(a, ds, 0, xr, dr, xs, ds);
  const double lr = Bilinear(a, ds, ds, xr, dr, xr, dr);
  EXPECT_NEAR(ul + ur + ll + lr, full, 1e-9 * (1.0 + std::fabs(full)));
}

INSTANTIATE_TEST_SUITE_P(
    Splits, BlockDecompositionTest,
    ::testing::Combine(::testing::Values(1, 3, 5, 8),
                       ::testing::Values(1, 2, 7, 15)));

// Property sweep: the gemm variants must agree with each other under
// transposition for arbitrary shapes (C = A*B  <=>  C = A*(B^T)^T etc.).
class GemmConsistencyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(GemmConsistencyTest, VariantsAgree) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 131 + k * 17 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);

  Matrix c_nn(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t p = 0; p < k; ++p) c_nn(i, j) += a(i, p) * b(p, j);
    }
  }

  // GemmNT with B transposed gives the same product.
  Matrix bt = b.Transposed();
  Matrix c_nt;
  GemmNT(a, bt, &c_nt, false);
  EXPECT_LT(Matrix::MaxAbsDiff(c_nn, c_nt), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmConsistencyTest,
    ::testing::Combine(::testing::Values(1, 3, 17),
                       ::testing::Values(1, 8, 31),
                       ::testing::Values(1, 5, 16)));

// Property: outer-product accumulation distributes over scaling, the
// identity F-GMM's deferred diagonal blocks rely on:
//   sum_i g_i * (v v^T) == (sum_i g_i) * (v v^T).
TEST(OpsTest, ScaledOuterAccumulationIsLinear) {
  Rng rng(77);
  const size_t d = 6;
  std::vector<double> v(d);
  for (auto& x : v) x = rng.NextGaussian();
  Matrix per_row(d, d), grouped(d, d);
  double gsum = 0.0;
  for (int i = 0; i < 25; ++i) {
    const double g = rng.NextDouble();
    AddOuter(g, v.data(), d, v.data(), d, &per_row, 0, 0);
    gsum += g;
  }
  AddOuter(gsum, v.data(), d, v.data(), d, &grouped, 0, 0);
  EXPECT_LT(Matrix::MaxAbsDiff(per_row, grouped), 1e-10);
}


// --------------------------------------------------------- kernel plane

/// RAII: selects a kernel backend for the test body, restores scalar.
struct ScopedKernels {
  explicit ScopedKernels(KernelMode mode) { SelectKernels(mode); }
  ~ScopedKernels() { SelectKernels(KernelMode::kScalar); }
};

/// Random strip: d columns of `rows` doubles plus the pointer array the
/// strip kernels take.
struct TestStrip {
  TestStrip(size_t d, size_t rows, Rng* rng) : data(d * rows), cols(d) {
    for (auto& v : data) v = rng->NextGaussian();
    for (size_t j = 0; j < d; ++j) cols[j] = data.data() + j * rows;
  }
  std::vector<double> data;
  std::vector<const double*> cols;
};

TEST(KernelsTest, SelectSwapsActiveTableAndRestores) {
  EXPECT_FALSE(Active().simd);
  EXPECT_STREQ(Active().name, "scalar");
  {
    ScopedKernels simd(KernelMode::kSimd);
    EXPECT_TRUE(Active().simd);
    EXPECT_STREQ(Active().name, SimdBackendName());
  }
  EXPECT_FALSE(Active().simd);
  EXPECT_FALSE(CpuFeatures().empty());
}

TEST(KernelsTest, SimdPrimitivesMatchScalarToTolerance) {
  Rng rng(7);
  const size_t n = 97;  // unaligned on purpose: exercises vector tails
  std::vector<double> a(n), b(n), y_s(n, 0.5), y_v(y_s);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextGaussian();
  }
  const Kernels& scalar = Active();
  SelectKernels(KernelMode::kSimd);
  const Kernels& simd = Active();
  SelectKernels(KernelMode::kScalar);

  EXPECT_NEAR(scalar.dot(a.data(), b.data(), n),
              simd.dot(a.data(), b.data(), n), 1e-12);
  scalar.axpy(0.75, a.data(), y_s.data(), n);
  simd.axpy(0.75, a.data(), y_v.data(), n);
  for (size_t i = 0; i < n; ++i) ASSERT_NEAR(y_s[i], y_v[i], 1e-12);

  const size_t m = 13;
  Matrix sq = RandomMatrix(n, n, &rng);
  EXPECT_NEAR(scalar.bilinear(sq.data(), n, a.data(), n, b.data(), n),
              simd.bilinear(sq.data(), n, a.data(), n, b.data(), n), 1e-9);

  Matrix o_s(m, n), o_v(m, n);
  scalar.add_outer(1.25, a.data(), m, b.data(), n, o_s.data(), n);
  simd.add_outer(1.25, a.data(), m, b.data(), n, o_v.data(), n);
  EXPECT_LT(Matrix::MaxAbsDiff(o_s, o_v), 1e-12);
}

/// Strip widths and heights that cross every block boundary of the vector
/// strip kernels: the 4-column and 2-precision-row sweeps, the weighted
/// syrk's 3-row blocks with each remainder (d % 3 = 0, 1, 2), the 16- and
/// 4-row lane blocks, and the scalar row tails.
constexpr size_t kGridD[] = {1, 2, 5, 7, 20, 33};
constexpr size_t kGridRows[] = {1, 3, 4, 15, 16, 17, 31, 203, 256, 259};

TEST(KernelsTest, StripKernelsMatchScalarToTolerance) {
  const Kernels& scalar = Active();
  SelectKernels(KernelMode::kSimd);
  const Kernels& simd = Active();
  SelectKernels(KernelMode::kScalar);
  for (const size_t d : kGridD) {
    for (const size_t rows : kGridRows) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " rows=" << rows);
      Rng rng(11 + 1000 * d + rows);
      TestStrip strip(d, rows, &rng);
      std::vector<double> w(rows);
      for (auto& v : w) v = rng.NextUniform(0.25, 1.25);

      const double* weight_opts[] = {nullptr, w.data()};
      for (const double* weights : weight_opts) {
        Matrix g_s(d, d), g_v(d, d);
        scalar.syrk_strip(strip.cols.data(), d, rows, weights, g_s.data(), d,
                          /*upper=*/false);
        simd.syrk_strip(strip.cols.data(), d, rows, weights, g_v.data(), d,
                        /*upper=*/false);
        for (size_t i = 0; i < d; ++i) {
          for (size_t j = 0; j < d; ++j) {
            ASSERT_NEAR(g_s(i, j), g_v(i, j), 1e-9) << i << "," << j;
            // The vector backend mirrors the upper triangle: exact symmetry.
            ASSERT_EQ(g_v(i, j), g_v(j, i));
          }
        }
        std::vector<double> acc_s(d, 0.5), acc_v(d, 0.5);
        scalar.colsum_strip(strip.cols.data(), d, rows, weights,
                            acc_s.data());
        simd.colsum_strip(strip.cols.data(), d, rows, weights, acc_v.data());
        for (size_t j = 0; j < d; ++j) {
          ASSERT_NEAR(acc_s[j], acc_v[j], 1e-9) << j;
        }
      }

      std::vector<double> v(d), out_s(rows), out_v(rows);
      for (auto& x : v) x = rng.NextGaussian();
      scalar.col_dot_strip(strip.cols.data(), d, rows, v.data(),
                           out_s.data());
      simd.col_dot_strip(strip.cols.data(), d, rows, v.data(), out_v.data());
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_NEAR(out_s[r], out_v[r], 1e-10) << r;
      }

      scalar.dist_strip(strip.cols.data(), d, rows, v.data(), out_s.data());
      simd.dist_strip(strip.cols.data(), d, rows, v.data(), out_v.data());
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_NEAR(out_s[r], out_v[r], 1e-10) << r;
      }

      // quadform takes the centered strip as one d x rows block. A is not
      // symmetric: the vector backends' folded upper triangle still
      // gives the full-square form.
      Matrix a = RandomMatrix(d, d, &rng);
      scalar.quadform_strip(strip.data.data(), d, rows, a.data(), d,
                            out_s.data());
      simd.quadform_strip(strip.data.data(), d, rows, a.data(), d,
                          out_v.data());
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_NEAR(out_s[r], out_v[r], 1e-9) << r;
      }
    }
  }
}

/// RAII: pins FACTORML_KERNELS_BACKEND for the test body (nullptr =
/// unset), then restores whatever the ambient environment had — CI's
/// forced-portable job exports the variable job-wide, so tests must not
/// leak their own value over it.
struct ScopedBackendEnv {
  explicit ScopedBackendEnv(const char* v) {
    const char* prev = std::getenv("FACTORML_KERNELS_BACKEND");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (v != nullptr) {
      setenv("FACTORML_KERNELS_BACKEND", v, /*overwrite=*/1);
    } else {
      unsetenv("FACTORML_KERNELS_BACKEND");
    }
  }
  ~ScopedBackendEnv() {
    if (had_prev_) {
      setenv("FACTORML_KERNELS_BACKEND", prev_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("FACTORML_KERNELS_BACKEND");
    }
  }
  std::string prev_;
  bool had_prev_ = false;
};

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// The bit guards below pin how the vector strip kernels may block their
// work: a wider sweep shares loads and broadcasts across outputs, but each
// output keeps the one accumulation chain a standalone call gives it. So
// every output must equal, bit for bit, the same output computed alone.
// They hold on every backend, scalar included.

TEST(KernelsTest, RowKernelsKeepEachRowsChainOnEveryBackend) {
  // quadform_strip and dist_strip: a row inside a 4-row lane block equals
  // that row in a standalone 4-row strip; a tail row equals a 1-row call.
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    for (const size_t d : kGridD) {
      for (const size_t rows : kGridRows) {
        SCOPED_TRACE(::testing::Message() << "d=" << d << " rows=" << rows);
        Rng rng(31 + 1000 * d + rows);
        TestStrip strip(d, rows, &rng);
        Matrix a = RandomMatrix(d, d, &rng);
        std::vector<double> center(d);
        for (auto& x : center) x = rng.NextGaussian();
        std::vector<double> quad(rows), dist(rows);
        kern.quadform_strip(strip.data.data(), d, rows, a.data(), d,
                            quad.data());
        kern.dist_strip(strip.cols.data(), d, rows, center.data(),
                        dist.data());
        const size_t blocked = rows - rows % 4;
        for (size_t r0 = 0; r0 < rows;) {
          const size_t n = r0 < blocked ? 4 : 1;
          // The standalone strip: rows [r0, r0 + n) of every column.
          std::vector<double> sub(d * n);
          std::vector<const double*> sub_cols(d);
          for (size_t j = 0; j < d; ++j) {
            std::memcpy(sub.data() + j * n, strip.cols[j] + r0,
                        n * sizeof(double));
            sub_cols[j] = sub.data() + j * n;
          }
          std::vector<double> q(n), dd(n);
          kern.quadform_strip(sub.data(), d, n, a.data(), d, q.data());
          kern.dist_strip(sub_cols.data(), d, n, center.data(), dd.data());
          ASSERT_TRUE(SameBits(q.data(), quad.data() + r0, n)) << "r=" << r0;
          ASSERT_TRUE(SameBits(dd.data(), dist.data() + r0, n))
              << "r=" << r0;
          r0 += n;
        }
      }
    }
  }
}

TEST(KernelsTest, ColumnKernelsKeepEachEntrysChainOnEveryBackend) {
  // syrk_strip: entries (i, j) and (j, i), i <= j, equal the off-diagonal
  // entries of a 2-column call on {c_i, c_j} (the weighted product rounds
  // w * c_i first, so the pair's order matters), and the upper form's
  // entries equal the full square's upper triangle, leaving the lower one
  // untouched; colsum_strip: column j equals a 1-column call.
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    for (const size_t d : kGridD) {
      for (const size_t rows : kGridRows) {
        SCOPED_TRACE(::testing::Message() << "d=" << d << " rows=" << rows);
        Rng rng(37 + 1000 * d + rows);
        TestStrip strip(d, rows, &rng);
        std::vector<double> w(rows);
        for (auto& x : w) x = rng.NextUniform(0.25, 1.25);
        const double* weight_opts[] = {nullptr, w.data()};
        for (const double* weights : weight_opts) {
          SCOPED_TRACE(weights == nullptr ? "unit" : "weighted");
          Matrix gram(d, d), upper(d, d);
          kern.syrk_strip(strip.cols.data(), d, rows, weights, gram.data(),
                          d, /*upper=*/false);
          kern.syrk_strip(strip.cols.data(), d, rows, weights, upper.data(),
                          d, /*upper=*/true);
          for (size_t i = 0; i < d; ++i) {
            for (size_t j = 0; j < i; ++j) {
              ASSERT_EQ(upper(i, j), 0.0) << "upper form wrote " << i << ","
                                          << j;
            }
            for (size_t j = i; j < d; ++j) {
              const double* pair[] = {strip.cols[i], strip.cols[j]};
              Matrix g2(2, 2);
              kern.syrk_strip(pair, 2, rows, weights, g2.data(), 2,
                              /*upper=*/false);
              ASSERT_TRUE(SameBits(&g2(0, 1), &gram(i, j), 1))
                  << i << "," << j;
              ASSERT_TRUE(SameBits(&g2(1, 0), &gram(j, i), 1))
                  << j << "," << i;
              ASSERT_TRUE(SameBits(&gram(i, j), &upper(i, j), 1))
                  << "upper form " << i << "," << j;
            }
          }
          std::vector<double> acc(d, 0.5);
          kern.colsum_strip(strip.cols.data(), d, rows, weights, acc.data());
          for (size_t j = 0; j < d; ++j) {
            double one = 0.5;
            kern.colsum_strip(&strip.cols[j], 1, rows, weights, &one);
            ASSERT_TRUE(SameBits(&one, &acc[j], 1)) << j;
          }
        }
      }
    }
  }
}

// The scalar backend's row-replay contract: every strip kernel hands each
// accumulator the per-row code's expressions in row order, so a strip
// equals, bit for bit, the row loop it batches (la/ops routes the row
// primitives through the same scalar table). syrk_strip's upper form
// replays AddOuter on the upper triangle and leaves the rest of the
// (non-symmetric) seed as it was. dist_strip's reference is k-means'
// per-row squared distance; gemm_strip's dot form chains each element
// from C's prior value, so k split over two accumulate calls equals one
// call and the axpy form. The heights cross syrk_strip's 8-row sweeps
// and its short last blocks.
TEST(KernelsTest, ScalarStripKernelsReplayRowOrder) {
#if defined(__FMA__)
  // GCC and clang may fuse a C++ `c + a * b` into one FMA when the target
  // has it, and whether they do depends on the loop shape, so bitwise row
  // replay holds for targets without FMA (the default x86-64 baseline).
  GTEST_SKIP() << "FMA target: the compiler may contract a*b+c per loop";
#endif
  ScopedKernels scalar(KernelMode::kScalar);
  const Kernels& kern = Active();
  ASSERT_STREQ(kern.name, "scalar");
  for (const size_t d : {1, 3, 4, 5, 20, 33}) {
    for (const size_t rows : {1, 3, 7, 8, 9, 15, 16, 17, 256, 259}) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " rows=" << rows);
      Rng rng(57 + 1000 * d + rows);
      TestStrip strip(d, rows, &rng);
      std::vector<double> w(rows), v(d), center(d);
      for (auto& x : w) x = rng.NextGaussian();
      for (auto& x : v) x = rng.NextGaussian();
      for (auto& x : center) x = rng.NextGaussian();
      const Matrix a = RandomMatrix(d, d, &rng);
      const Matrix seed = RandomMatrix(d, d, &rng);  // non-zero start
      std::vector<std::vector<double>> xrow(rows, std::vector<double>(d));
      for (size_t r = 0; r < rows; ++r) {
        for (size_t j = 0; j < d; ++j) xrow[r][j] = strip.cols[j][r];
      }
      for (const bool weighted : {false, true}) {
        const double* wp = weighted ? w.data() : nullptr;
        Matrix gram = seed, gram_rows = seed, upper = seed;
        kern.syrk_strip(strip.cols.data(), d, rows, wp, gram.data(), d,
                        /*upper=*/false);
        kern.syrk_strip(strip.cols.data(), d, rows, wp, upper.data(), d,
                        /*upper=*/true);
        std::vector<double> acc(seed.data(), seed.data() + d);
        std::vector<double> acc_rows = acc;
        kern.colsum_strip(strip.cols.data(), d, rows, wp, acc.data());
        for (size_t r = 0; r < rows; ++r) {
          const double wr = weighted ? w[r] : 1.0;
          AddOuter(wr, xrow[r].data(), d, xrow[r].data(), d, &gram_rows, 0,
                   0);
          Axpy(wr, xrow[r].data(), acc_rows.data(), d);
        }
        ASSERT_TRUE(SameBits(gram.data(), gram_rows.data(), d * d))
            << "syrk_strip weighted=" << weighted;
        for (size_t i = 0; i < d; ++i) {
          ASSERT_TRUE(SameBits(&upper(i, 0), seed.data() + i * d, i))
              << "upper syrk_strip wrote below row " << i;
          ASSERT_TRUE(SameBits(&upper(i, i), &gram_rows(i, i), d - i))
              << "upper syrk_strip row " << i << " weighted=" << weighted;
        }
        ASSERT_TRUE(SameBits(acc.data(), acc_rows.data(), d))
            << "colsum_strip weighted=" << weighted;
      }
      std::vector<double> quad(rows), dist(rows), dots(rows);
      kern.quadform_strip(strip.data.data(), d, rows, a.data(), d,
                          quad.data());
      kern.dist_strip(strip.cols.data(), d, rows, center.data(), dist.data());
      kern.col_dot_strip(strip.cols.data(), d, rows, v.data(), dots.data());
      for (size_t r = 0; r < rows; ++r) {
        const double q = QuadForm(a, xrow[r].data(), d);
        double dd = 0.0;
        for (size_t j = 0; j < d; ++j) {
          const double t = xrow[r][j] - center[j];
          dd += t * t;
        }
        const double dot = Dot(xrow[r].data(), v.data(), d);
        ASSERT_TRUE(SameBits(&q, &quad[r], 1)) << "quadform_strip r=" << r;
        ASSERT_TRUE(SameBits(&dd, &dist[r], 1)) << "dist_strip r=" << r;
        ASSERT_TRUE(SameBits(&dot, &dots[r], 1)) << "col_dot_strip r=" << r;
      }
      // gemm_strip, dot form: C (m x d) += A (m x rows) * B^T with B the
      // d x rows strip, k = rows split at k1 over two accumulate calls.
      for (const size_t m : {1, 3, 5}) {
        const Matrix am = RandomMatrix(m, rows, &rng);
        const Matrix c0 = RandomMatrix(m, d, &rng);
        const size_t k1 = rows / 2;
        Matrix split = c0, whole = c0, axpy = c0;
        kern.gemm_strip(am.data(), rows, strip.data.data(), rows, m, d, k1,
                        split.data(), d, /*trans_b=*/true,
                        /*accumulate=*/true);
        kern.gemm_strip(am.data() + k1, rows, strip.data.data() + k1, rows, m,
                        d, rows - k1, split.data(), d, /*trans_b=*/true,
                        /*accumulate=*/true);
        kern.gemm_strip(am.data(), rows, strip.data.data(), rows, m, d, rows,
                        whole.data(), d, /*trans_b=*/true,
                        /*accumulate=*/true);
        // The axpy form over B^T (rows x d, row r = strip row r).
        std::vector<double> bt(rows * d);
        for (size_t r = 0; r < rows; ++r) {
          std::memcpy(bt.data() + r * d, xrow[r].data(), d * sizeof(double));
        }
        kern.gemm_strip(am.data(), rows, bt.data(), d, m, d, rows,
                        axpy.data(), d, /*trans_b=*/false,
                        /*accumulate=*/true);
        ASSERT_TRUE(SameBits(split.data(), whole.data(), m * d))
            << "dot form, k split at " << k1 << ", m=" << m;
        ASSERT_TRUE(SameBits(whole.data(), axpy.data(), m * d))
            << "dot form vs axpy form, m=" << m;
      }
    }
  }
}

// gemm_strip's (m, n, k) grid: m crosses the 4-row tile edge, n the
// 8-lane tile edge and its 4-lane / scalar tails, k the Dot pairing of 8.
// GemmOperands pads C's rows by 2, so n = 126 and 1,022 give row strides
// that are multiples of 128: with k <= 2 the axpy form's vector backends
// sweep those one 4-row block at a time instead of one 8-lane panel at a
// time (the NN output layer's backward, m = 50, k = 1, n = ldc = 1,024);
// k = 5, 15 and 20 (nn-epochs' first-layer widths) keep the panel order
// at that stride.
constexpr size_t kGemmM[] = {1, 3, 4, 5, 8, 50};
constexpr size_t kGemmN[] = {1, 3, 4, 7, 8, 9, 17, 126, 256, 259, 1022};
constexpr size_t kGemmK[] = {1, 2, 5, 15, 20, 33};

/// Random gemm_strip operands for one grid cell. Every row stride is
/// wider than its logical width, so a kernel that assumes packed rows
/// reads or writes the wrong elements.
struct GemmOperands {
  GemmOperands(size_t m, size_t n, size_t k, bool trans_b, Rng* rng)
      : lda(k + 3),
        ldb((trans_b ? k : n) + 5),
        ldc(n + 2),
        a(m * lda),
        b((trans_b ? n : k) * ldb),
        c(m * ldc) {
    for (auto& x : a) x = rng->NextGaussian();
    for (auto& x : b) x = rng->NextGaussian();
    for (auto& x : c) x = rng->NextGaussian();
  }
  size_t lda, ldb, ldc;
  std::vector<double> a, b, c;
};

TEST(KernelsTest, GemmStripMatchesNaiveOnEveryBackend) {
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    for (const size_t m : kGemmM) {
      for (const size_t n : kGemmN) {
        for (const size_t k : kGemmK) {
          for (const bool trans_b : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "m=" << m << " n=" << n << " k=" << k
                         << " trans_b=" << trans_b);
            Rng rng(17 + 7 * m + 1000 * n + 100000 * k + trans_b);
            GemmOperands op(m, n, k, trans_b, &rng);
            Matrix ref(m, n);
            for (size_t i = 0; i < m; ++i) {
              for (size_t j = 0; j < n; ++j) {
                double s = 0.0;
                for (size_t p = 0; p < k; ++p) {
                  s += op.a[i * op.lda + p] *
                       (trans_b ? op.b[j * op.ldb + p] : op.b[p * op.ldb + j]);
                }
                ref(i, j) = s;
              }
            }
            // accumulate == false overwrites C's prior values; a second,
            // accumulating call doubles the block. Padding stays put.
            std::vector<double> c = op.c;
            kern.gemm_strip(op.a.data(), op.lda, op.b.data(), op.ldb, m, n,
                            k, c.data(), op.ldc, trans_b,
                            /*accumulate=*/false);
            for (size_t i = 0; i < m; ++i) {
              for (size_t j = 0; j < n; ++j) {
                ASSERT_NEAR(c[i * op.ldc + j], ref(i, j), 1e-9)
                    << i << "," << j;
              }
            }
            kern.gemm_strip(op.a.data(), op.lda, op.b.data(), op.ldb, m, n,
                            k, c.data(), op.ldc, trans_b,
                            /*accumulate=*/true);
            for (size_t i = 0; i < m; ++i) {
              for (size_t j = 0; j < n; ++j) {
                ASSERT_NEAR(c[i * op.ldc + j], 2.0 * ref(i, j), 1e-8)
                    << i << "," << j;
              }
              for (size_t j = n; j < op.ldc; ++j) {
                ASSERT_EQ(c[i * op.ldc + j], op.c[i * op.ldc + j]) << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelsTest, GemmStripKeepsEachElementsChainOnEveryBackend) {
  // Axpy form: every row of an m-row call equals a 1-row call on that row
  // (C's prior value, then + a(i,p) * b(p,j) in p order, wherever the row
  // falls in a tile). Dot form: every (i, j) entry equals a 1 x 1 call
  // (C's prior value plus Dot's two-accumulator chain).
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    for (const size_t m : kGemmM) {
      for (const size_t n : kGemmN) {
        for (const size_t k : kGemmK) {
          for (const bool trans_b : {false, true}) {
            for (const bool accumulate : {false, true}) {
              SCOPED_TRACE(::testing::Message()
                           << "m=" << m << " n=" << n << " k=" << k
                           << " trans_b=" << trans_b
                           << " accumulate=" << accumulate);
              Rng rng(41 + 7 * m + 1000 * n + 100000 * k + trans_b);
              GemmOperands op(m, n, k, trans_b, &rng);
              std::vector<double> c = op.c;
              kern.gemm_strip(op.a.data(), op.lda, op.b.data(), op.ldb, m, n,
                              k, c.data(), op.ldc, trans_b, accumulate);
              for (size_t i = 0; i < m; ++i) {
                const double* ai = op.a.data() + i * op.lda;
                if (!trans_b) {
                  std::vector<double> row(op.c.begin() + i * op.ldc,
                                          op.c.begin() + i * op.ldc + n);
                  kern.gemm_strip(ai, op.lda, op.b.data(), op.ldb, 1, n, k,
                                  row.data(), n, trans_b, accumulate);
                  ASSERT_TRUE(SameBits(row.data(), c.data() + i * op.ldc, n))
                      << "i=" << i;
                  continue;
                }
                for (size_t j = 0; j < n; ++j) {
                  double one = op.c[i * op.ldc + j];
                  kern.gemm_strip(ai, op.lda, op.b.data() + j * op.ldb,
                                  op.ldb, 1, 1, k, &one, 1, trans_b,
                                  accumulate);
                  ASSERT_TRUE(SameBits(&one, c.data() + i * op.ldc + j, 1))
                      << i << "," << j;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelsTest, GatherAddRowsStripBitEqualOnEveryBackend) {
  // The rid-indexed gather adds one base row per strip row with no lane
  // reassociation, so every backend's output is bit-equal.
  Rng rng(23);
  const size_t rows = 203, n = 5, base_rows = 17;
  std::vector<int64_t> idx(rows);
  for (auto& v : idx) {
    v = static_cast<int64_t>(rng.NextUniform(0.0, 1.0) * base_rows);
    if (v >= static_cast<int64_t>(base_rows)) v = base_rows - 1;
  }
  Matrix base = RandomMatrix(base_rows, n, &rng);

  Matrix ref_rows(rows, n);
  for (size_t r = 0; r < rows; ++r) {
    const auto br = static_cast<size_t>(idx[r]);
    for (size_t j = 0; j < n; ++j) ref_rows(r, j) = base(br, j);
  }
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    Matrix out(rows, n);
    out.Fill(0.0);
    kern.gather_add_rows_strip(base.data(), n, idx.data(), rows, n,
                               out.data(), n);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < n; ++j) ASSERT_EQ(out(r, j), ref_rows(r, j));
    }
  }
}

/// Representable doubles between a and b (0 when both are NaN).
int64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b)
               ? 0
               : std::numeric_limits<int64_t>::max();
  }
  const auto ordered = [](double v) {
    int64_t i;
    std::memcpy(&i, &v, sizeof(i));
    return i < 0 ? -(i & std::numeric_limits<int64_t>::max()) : i;
  };
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

TEST(KernelsTest, SigmoidOnEveryBackend) {
  // A dense sweep of [-750, 750] (a non-dyadic step, so mantissas vary),
  // a seeded random sweep of [-800, 800], and the edges: every double
  // within 200k ulps of +-log(DBL_MAX) (std::exp's overflow edge, on
  // either side of the sigmoid), the vector clamp points +-708 and
  // +-710.5 with their neighbours, std::exp's underflow past -745.13,
  // NaN, +-0 and +-inf.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> x = {0.0,    -0.0,   inf,    -inf,  std::nan(""),
                           708.0,  -708.0, 709.8,  -709.8, 745.0,
                           -745.0, 800.0,  -800.0};
  for (double v = -750.0; v <= 750.0; v += 0.0013) x.push_back(v);
  Rng rng(29);
  for (int i = 0; i < 100000; ++i) x.push_back(rng.NextUniform(-800.0, 800.0));
  const double log_max = std::log(std::numeric_limits<double>::max());
  for (const double edge : {log_max, -log_max}) {
    double lo = edge, hi = edge;
    x.push_back(edge);
    for (int i = 0; i < 200000; ++i) {
      lo = std::nextafter(lo, -inf);
      hi = std::nextafter(hi, inf);
      x.push_back(lo);
      x.push_back(hi);
    }
  }
  for (const double clamp : {708.0, -708.0, 710.5, -710.5}) {
    double lo = clamp, hi = clamp;
    x.push_back(clamp);
    for (int i = 0; i < 4; ++i) {
      lo = std::nextafter(lo, -inf);
      hi = std::nextafter(hi, inf);
      x.push_back(lo);
      x.push_back(hi);
    }
  }
  std::vector<double> ref(x.size());
  for (size_t i = 0; i < x.size(); ++i) ref[i] = 1.0 / (1.0 + std::exp(-x[i]));

  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    std::vector<double> h(x.size());
    kern.sigmoid(x.data(), x.size(), h.data());
    int64_t max_ulp = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      const int64_t ulp = UlpDistance(h[i], ref[i]);
      if (!kern.simd) {
        // Scalar is the seed loop: bit-equal, NaN included.
        ASSERT_EQ(ulp, 0) << "x=" << x[i];
        ASSERT_EQ(std::signbit(h[i]), std::signbit(ref[i])) << "x=" << x[i];
      }
      ASSERT_LE(ulp, 4) << "x=" << x[i] << " got " << h[i] << " want "
                        << ref[i];
      max_ulp = std::max(max_ulp, ulp);
    }
    RecordProperty(std::string(backend) + "_max_ulp",
                   static_cast<int>(max_ulp));
    // Lengths around the 4-wide lanes, at an odd offset: every element
    // matches the long call bit for bit (the tail takes the lane path),
    // and nothing past n is written.
    const size_t off = 1001;
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                           size_t{5}, size_t{257}}) {
      std::vector<double> out(n + 1, -1.0);
      kern.sigmoid(x.data() + off, n, out.data());
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], h[off + i]) << n;
      ASSERT_EQ(out[n], -1.0) << n;
    }
  }
}

/// Operands of the sigmoid backward kernels: a weight row w (m), a delta
/// row d (n) and an m x n sigmoid output h at row stride ld = n + 3. d
/// holds +-0, subnormals and huge values (products that round to zero,
/// underflow or overflow) among Gaussians; h holds 0 and 1 (a zero f')
/// among uniforms.
struct SigmoidBackwardOperands {
  SigmoidBackwardOperands(size_t m, size_t n, Rng* rng)
      : m(m), n(n), ld(n + 3), w(m), d(n), h(m * ld) {
    const double sub = std::numeric_limits<double>::denorm_min();
    const double special[] = {0.0, -0.0, 3 * sub, -5e-310, 1e300, -1e300};
    for (size_t u = 0; u < m; ++u) {
      w[u] = u % 7 == 3 ? 1e10 : rng->NextGaussian();
    }
    for (size_t r = 0; r < n; ++r) {
      d[r] = r % 5 == 2 ? special[(r / 5) % 6] : rng->NextGaussian() * 1e-3;
    }
    for (size_t u = 0; u < m; ++u) {
      for (size_t r = 0; r < ld; ++r) {
        const size_t i = u * ld + r;
        h[i] = i % 11 == 4 ? 0.0 : i % 11 == 7 ? 1.0 : rng->NextUniform(0, 1);
      }
    }
  }
  size_t m, n, ld;
  std::vector<double> w, d, h;
};

TEST(KernelsTest, SigmoidBackwardEqualsGemmThenSeedLoopOnEveryBackend) {
  // sigmoid_backward fuses gemm_strip's k = 1 axpy form into a zeroed C
  // and the seed's f' loop: bit for bit on every backend, at lengths
  // around the lanes, an odd column offset, and nothing written past n.
  // sigmoid_grad is the seed loop itself on every backend.
  Rng rng(31);
  const size_t m = 7, off = 3;
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                           size_t{5}, size_t{257}}) {
      SCOPED_TRACE(n);
      const SigmoidBackwardOperands op(m, n + off, &rng);
      const double* d = op.d.data() + off;
      const double* h = op.h.data() + off;
      // Reference: gemm_strip (A = w as an m x 1 column, B = d as 1 x n),
      // then the seed loop p *= h * (1 - h) per row.
      std::vector<double> want(m * op.ld, -1.0);
      kern.gemm_strip(op.w.data(), 1, d, n, m, n, 1, want.data() + off,
                      op.ld, /*trans_b=*/false, /*accumulate=*/false);
      for (size_t u = 0; u < m; ++u) {
        double* p = want.data() + u * op.ld + off;
        const double* hu = h + u * op.ld;
        for (size_t r = 0; r < n; ++r) p[r] *= hu[r] * (1.0 - hu[r]);
      }
      std::vector<double> got(m * op.ld, -1.0);
      kern.sigmoid_backward(op.w.data(), m, d, n, h, op.ld, got.data() + off);
      ASSERT_TRUE(SameBits(got.data(), want.data(), got.size()));

      // The wide-layer form: gemm_strip's output scaled by sigmoid_grad.
      std::vector<double> grad(m * op.ld, -1.0);
      kern.gemm_strip(op.w.data(), 1, d, n, m, n, 1, grad.data() + off,
                      op.ld, /*trans_b=*/false, /*accumulate=*/false);
      for (size_t u = 0; u < m; ++u) {
        const size_t row = u * op.ld + off;
        kern.sigmoid_grad(op.h.data() + row, n, grad.data() + row);
      }
      ASSERT_TRUE(SameBits(grad.data(), want.data(), grad.size()));
    }
  }
}

/// posterior_strip operands for k components over `rows` points, with
/// component-major outputs padded past `rows` (ld = rows + 3) so a write
/// past a lane shows. Log posteriors sit in [-3, -0.4], where |lse| is
/// O(1); with k >= 3, component 2 sits near -800 instead, a spread past
/// exp's underflow edge (745), so its responsibility is exactly 0.
struct PosteriorOperands {
  PosteriorOperands(size_t k, size_t rows, Rng* rng)
      : k(k), rows(rows), ld(rows + 3), q(k * ld), log_coeff(k) {
    for (size_t c = 0; c < k; ++c) {
      log_coeff[c] = rng->NextUniform(-2.2, -0.4);
      for (size_t r = 0; r < rows; ++r) {
        q[c * ld + r] = c == 2 ? rng->NextUniform(1500.0, 1700.0)
                               : rng->NextUniform(0.0, 1.6);
      }
    }
  }
  /// Runs the kernel; gamma is k x ld, lse has ld entries (-1 past rows).
  void Run(const Kernels& kern, std::vector<double>* gamma,
           std::vector<double>* lse) const {
    gamma->assign(k * ld, -1.0);
    lse->assign(ld, -1.0);
    kern.posterior_strip(q.data(), ld, k, rows, log_coeff.data(),
                         gamma->data(), ld, lse->data());
  }
  size_t k, rows, ld;
  std::vector<double> q, log_coeff;
};

constexpr size_t kPostK[] = {1, 5};
constexpr size_t kPostRows[] = {1, 3, 4, 5, 257};

// The scalar posterior is the seed's per-row chain: gmm::LogSumExp over
// the row's log posteriors, then exp(logp - lse) per component.
TEST(KernelsTest, ScalarPosteriorStripReplaysTheSeedChain) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA target: the compiler may contract a*b+c per loop";
#endif
  ScopedKernels scalar(KernelMode::kScalar);
  const Kernels& kern = Active();
  for (const size_t k : kPostK) {
    for (const size_t rows : kPostRows) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " rows=" << rows);
      Rng rng(61 + 1000 * k + rows);
      const PosteriorOperands op(k, rows, &rng);
      std::vector<double> gamma, lse;
      op.Run(kern, &gamma, &lse);
      std::vector<double> logp(k), want(k);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < k; ++c) {
          logp[c] = op.log_coeff[c] - 0.5 * op.q[c * op.ld + r];
        }
        const double l = gmm::LogSumExp(logp.data(), k);
        ASSERT_TRUE(SameBits(&l, &lse[r], 1)) << "lse r=" << r;
        for (size_t c = 0; c < k; ++c) {
          const double g = std::exp(logp[c] - l);
          ASSERT_TRUE(SameBits(&g, &gamma[c * op.ld + r], 1))
              << "gamma c=" << c << " r=" << r;
        }
      }
    }
  }
}

TEST(KernelsTest, VectorPosteriorStripMatchesScalarToFourUlp) {
  // One in-lane exp per (row, component), normalized by 1 / s, against
  // scalar's two exps; lse = max + log s on both. Far components give
  // exactly 0 on both, and nothing past `rows` is written.
  const Kernels& scalar = Active();
  ASSERT_FALSE(scalar.simd);
  for (const char* backend : {"portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    int64_t max_ulp = 0;
    for (const size_t k : kPostK) {
      for (const size_t rows : kPostRows) {
        SCOPED_TRACE(::testing::Message() << "k=" << k << " rows=" << rows);
        Rng rng(67 + 1000 * k + rows);
        const PosteriorOperands op(k, rows, &rng);
        std::vector<double> g_s, l_s, g_v, l_v;
        op.Run(scalar, &g_s, &l_s);
        op.Run(kern, &g_v, &l_v);
        for (size_t r = 0; r < op.ld; ++r) {
          if (r >= rows) {
            ASSERT_EQ(l_v[r], -1.0) << "wrote lse past rows";
            for (size_t c = 0; c < k; ++c) {
              ASSERT_EQ(g_v[c * op.ld + r], -1.0) << "wrote gamma past rows";
            }
            continue;
          }
          ASSERT_NEAR(l_v[r], l_s[r],
                      4 * std::numeric_limits<double>::epsilon() *
                          std::max(1.0, std::fabs(l_s[r])))
              << "lse r=" << r;
          for (size_t c = 0; c < k; ++c) {
            const double want = g_s[c * op.ld + r];
            const double got = g_v[c * op.ld + r];
            if (c == 2) {
              ASSERT_EQ(want, 0.0) << "r=" << r;
              ASSERT_EQ(got, 0.0) << "r=" << r;
            }
            const int64_t ulp = UlpDistance(got, want);
            ASSERT_LE(ulp, 4) << "c=" << c << " r=" << r << " got " << got
                              << " want " << want;
            max_ulp = std::max(max_ulp, ulp);
          }
        }
      }
    }
    RecordProperty(std::string(backend) + "_max_ulp",
                   static_cast<int>(max_ulp));
  }
}

TEST(KernelsTest, PosteriorStripTailRowEqualsItsLaneBlockOnEveryBackend) {
  // The row tail is padded into a lane block: each row of a strip equals
  // that row placed in a full 4-row block of its own, bit for bit.
  for (const char* backend : {"scalar", "portable", "native"}) {
    SCOPED_TRACE(backend);
    ScopedBackendEnv env(backend);
    ScopedKernels simd(KernelMode::kSimd);
    const Kernels& kern = Active();
    for (const size_t k : kPostK) {
      for (const size_t rows : kPostRows) {
        SCOPED_TRACE(::testing::Message() << "k=" << k << " rows=" << rows);
        Rng rng(71 + 1000 * k + rows);
        const PosteriorOperands op(k, rows, &rng);
        std::vector<double> gamma, lse;
        op.Run(kern, &gamma, &lse);
        for (size_t r = 0; r < rows; ++r) {
          // Row r at lane r % 4 of a block whose other lanes hold row 0.
          PosteriorOperands block = op;
          block.rows = 4;
          block.ld = 4;
          block.q.assign(k * 4, 0.0);
          for (size_t c = 0; c < k; ++c) {
            for (size_t l = 0; l < 4; ++l) {
              block.q[c * 4 + l] = op.q[c * op.ld + (l == r % 4 ? r : 0)];
            }
          }
          std::vector<double> bg, bl;
          block.Run(kern, &bg, &bl);
          ASSERT_TRUE(SameBits(&bl[r % 4], &lse[r], 1)) << "lse r=" << r;
          for (size_t c = 0; c < k; ++c) {
            ASSERT_TRUE(SameBits(&bg[c * 4 + r % 4], &gamma[c * op.ld + r], 1))
                << "gamma c=" << c << " r=" << r;
          }
        }
      }
    }
  }
}

TEST(KernelsTest, BackendEnvOverrideForcesTable) {
  {
    ScopedBackendEnv env("portable");
    ScopedKernels simd(KernelMode::kSimd);
    EXPECT_STREQ(Active().name, "portable");
    EXPECT_STREQ(SimdBackendName(), "portable");
  }
  {
    ScopedBackendEnv env("scalar");
    ScopedKernels simd(KernelMode::kSimd);
    EXPECT_STREQ(Active().name, "scalar");
  }
  {
    // "native" picks the best table the CPU supports — same choice as
    // no override at all (resolved with the variable genuinely absent,
    // whatever the ambient environment forces).
    std::string unforced;
    {
      ScopedBackendEnv clear(nullptr);
      unforced = SimdBackendName();
    }
    ScopedBackendEnv env("native");
    ScopedKernels simd(KernelMode::kSimd);
    EXPECT_STREQ(Active().name, unforced.c_str());
  }
  // kScalar mode never consults the override: golden runs survive a
  // forced-portable environment untouched.
  {
    ScopedBackendEnv env("portable");
    ScopedKernels scalar(KernelMode::kScalar);
    EXPECT_STREQ(Active().name, "scalar");
  }
}

TEST(KernelsTest, RoutedOpsChargeSameCountsOnBothBackends) {
  // The accounting contract: la/ops.h wrappers charge in the wrapper, so
  // the counted stream is identical whichever table executes underneath.
  Rng rng(3);
  const size_t n = 33;
  std::vector<double> a(n), b(n), y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextGaussian();
  }
  Matrix sq = RandomMatrix(n, n, &rng);
  OpCounters deltas[2];
  for (int pass = 0; pass < 2; ++pass) {
    ScopedKernels mode(pass == 0 ? KernelMode::kScalar : KernelMode::kSimd);
    const OpCounters before = GlobalOps();
    (void)Dot(a.data(), b.data(), n);
    Axpy(2.0, a.data(), y.data(), n);
    (void)QuadForm(sq, a.data(), n);
    Matrix g(n, n);
    AddOuter(1.0, a.data(), n, b.data(), n, &g, 0, 0);
    Matrix h;
    nn::ApplyActivation(nn::Activation::kSigmoid, sq, &h);
    deltas[pass] = GlobalOps() - before;
  }
  EXPECT_EQ(deltas[0].mults, deltas[1].mults);
  EXPECT_EQ(deltas[0].adds, deltas[1].adds);
  EXPECT_EQ(deltas[0].subs, deltas[1].subs);
  EXPECT_EQ(deltas[0].exps, deltas[1].exps);
  EXPECT_EQ(deltas[0].exps, n * n);  // ApplyActivation's CountExps
}

}  // namespace
}  // namespace factorml::la
