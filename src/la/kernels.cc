#include "la/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace factorml::la {

namespace {

// ------------------------------------------------------- scalar backend
//
// The primitive bodies below are the seed's exact loops, moved verbatim
// from ops.cc (which now routes through the active table). The build is
// IEEE-strict, so `--kernels=scalar` reproduces the pre-kernel-plane bits
// that the tier-1 goldens pin.
//
// Row-replay contract: every model consumes column strips under both
// kernel modes, and each scalar strip kernel hands every accumulator the
// per-row code's expressions in row order — syrk_strip the AddOuter body,
// colsum_strip the Axpy body, quadform_strip the QuadForm body,
// dist_strip the squared-distance loop, and gemm_strip's dot form one
// chain per element that starts from C's prior value (so k split over
// several accumulate calls equals one call). Batching the rows therefore
// moves no scalar bit. The kernels that read a row across all d columns
// gather blocks of rows into a contiguous buffer first (GatherRows), so
// the strided column reads happen once per element, a cache line at a
// time, rather than once per product.

double ScalarDot(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void ScalarAxpy(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double ScalarBilinear(const double* a, size_t lda, const double* u, size_t nu,
                      const double* v, size_t nv) {
  double total = 0.0;
  for (size_t i = 0; i < nu; ++i) {
    const double* row = a + i * lda;
    double s = 0.0;
    for (size_t j = 0; j < nv; ++j) s += row[j] * v[j];
    total += u[i] * s;
  }
  return total;
}

void ScalarAddOuter(double alpha, const double* u, size_t nu, const double* v,
                    size_t nv, double* a, size_t lda) {
  for (size_t i = 0; i < nu; ++i) {
    const double ui = alpha * u[i];
    double* row = a + i * lda;
    for (size_t j = 0; j < nv; ++j) row[j] += ui * v[j];
  }
}

/// Rows per gathered block of the row-replay kernels.
constexpr size_t kReplayRows = 8;

/// Gathers strip rows [r0, r0 + n) of the d columns row-major into `x`
/// (row r at x + (r - r0) * d), n <= kReplayRows. Column by column, so
/// each column's cache line is read once for the whole block: gathering a
/// single row touches d lines whose strip-height stride maps them onto the
/// same few cache sets.
void GatherRows(const double* const* cols, size_t d, size_t r0, size_t n,
                double* x) {
  for (size_t j = 0; j < d; ++j) {
    const double* c = cols[j] + r0;
    for (size_t r = 0; r < n; ++r) x[r * d + j] = c[r];
  }
}

void ScalarSyrkStrip(const double* const* cols, size_t d, size_t rows,
                     const double* w, double* __restrict gram, size_t ldg) {
  std::vector<double> buf(kReplayRows * d);
  for (size_t r0 = 0; r0 < rows; r0 += kReplayRows) {
    const size_t n = std::min(kReplayRows, rows - r0);
    GatherRows(cols, d, r0, n, buf.data());
    // ScalarAddOuter's body per row, two rows per sweep of the Gram: each
    // entry adds row r's product, then row r + 1's — the per-row order —
    // with one load and store for both. The gathered rows never alias the
    // Gram, which lets the compiler drop its overlap checks.
    size_t r = 0;
    for (; r + 2 <= n; r += 2) {
      const double* __restrict x0 = buf.data() + r * d;
      const double* __restrict x1 = x0 + d;
      const double w0 = w != nullptr ? w[r0 + r] : 1.0;
      const double w1 = w != nullptr ? w[r0 + r + 1] : 1.0;
      for (size_t i = 0; i < d; ++i) {
        const double u0 = w0 * x0[i];
        const double u1 = w1 * x1[i];
        double* __restrict row = gram + i * ldg;
        for (size_t j = 0; j < d; ++j) {
          const double t = row[j] + u0 * x0[j];
          row[j] = t + u1 * x1[j];
        }
      }
    }
    for (; r < n; ++r) {
      const double* __restrict x = buf.data() + r * d;
      const double wr = w != nullptr ? w[r0 + r] : 1.0;
      for (size_t i = 0; i < d; ++i) {
        const double ui = wr * x[i];
        double* __restrict row = gram + i * ldg;
        for (size_t j = 0; j < d; ++j) row[j] += ui * x[j];
      }
    }
  }
}

void ScalarColDotStrip(const double* const* cols, size_t d, size_t rows,
                       const double* v, double* out) {
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += v[j] * cols[j][r];
    out[r] = s;
  }
}

// Four column chains side by side, each acc[j] += w[r] * cols[j][r] (or
// += cols[j][r] unweighted) in row order — the per-row Axpy's chain.
template <size_t NJ>
void ScalarColSumCols(const double* const* c, size_t rows, const double* w,
                      double* acc) {
  double s[NJ];
  for (size_t q = 0; q < NJ; ++q) s[q] = acc[q];
  if (w != nullptr) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t q = 0; q < NJ; ++q) s[q] += w[r] * c[q][r];
    }
  } else {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t q = 0; q < NJ; ++q) s[q] += c[q][r];
    }
  }
  for (size_t q = 0; q < NJ; ++q) acc[q] = s[q];
}

void ScalarColSumStrip(const double* const* cols, size_t d, size_t rows,
                       const double* w, double* acc) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) ScalarColSumCols<4>(cols + j, rows, w, acc + j);
  for (; j < d; ++j) ScalarColSumCols<1>(cols + j, rows, w, acc + j);
}

void ScalarDistStrip(const double* const* cols, size_t d, size_t rows,
                     const double* center, double* out) {
  std::vector<double> buf(kReplayRows * d);
  for (size_t r0 = 0; r0 < rows; r0 += kReplayRows) {
    const size_t n = std::min(kReplayRows, rows - r0);
    GatherRows(cols, d, r0, n, buf.data());
    for (size_t r = 0; r < n; ++r) {
      const double* x = buf.data() + r * d;
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double t = x[j] - center[j];
        s += t * t;
      }
      out[r0 + r] = s;
    }
  }
}

void ScalarQuadFormStrip(const double* diff, size_t d, size_t rows,
                         const double* a, size_t lda, double* out) {
  std::vector<const double*> cols(d);
  for (size_t j = 0; j < d; ++j) cols[j] = diff + j * rows;
  std::vector<double> buf(kReplayRows * d);
  for (size_t r0 = 0; r0 < rows; r0 += kReplayRows) {
    const size_t n = std::min(kReplayRows, rows - r0);
    GatherRows(cols.data(), d, r0, n, buf.data());
    for (size_t r = 0; r < n; ++r) {
      const double* x = buf.data() + r * d;
      out[r0 + r] = ScalarBilinear(a, lda, x, d, x, d);
    }
  }
}

void ScalarGemmStrip(const double* a, size_t lda, const double* b, size_t ldb,
                     size_t m, size_t n, size_t k, double* c, size_t ldc,
                     bool trans_b, bool accumulate) {
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    if (!accumulate) {
      for (size_t j = 0; j < n; ++j) ci[j] = 0.0;
    }
    if (trans_b) {
      for (size_t j = 0; j < n; ++j) {
        const double* bj = b + j * ldb;
        double s = ci[j];
        for (size_t p = 0; p < k; ++p) s += ai[p] * bj[p];
        ci[j] = s;
      }
    } else {
      for (size_t p = 0; p < k; ++p) {
        const double aip = ai[p];
        const double* bp = b + p * ldb;
        for (size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
      }
    }
  }
}

void ScalarGatherAddRowsStrip(const double* base, size_t ldb,
                              const int64_t* idx, size_t rows, size_t n,
                              double* out, size_t ldo) {
  for (size_t r = 0; r < rows; ++r) {
    const double* src = base + static_cast<size_t>(idx[r]) * ldb;
    double* dst = out + r * ldo;
    for (size_t j = 0; j < n; ++j) dst[j] += src[j];
  }
}

// The seed's activation loop, moved verbatim from nn/activation.cc.
void ScalarSigmoid(const double* a, size_t n, double* h) {
  for (size_t i = 0; i < n; ++i) h[i] = 1.0 / (1.0 + std::exp(-a[i]));
}

constexpr Kernels kScalarKernels = {
    "scalar",          false,
    ScalarDot,         ScalarAxpy,
    ScalarBilinear,    ScalarAddOuter,
    ScalarSyrkStrip,   ScalarColDotStrip, ScalarColSumStrip,
    ScalarDistStrip,   ScalarQuadFormStrip,
    ScalarGemmStrip,   ScalarGatherAddRowsStrip,
    ScalarSigmoid,
};

// ------------------------------------------------------- vector backends

typedef double fml_v4d __attribute__((vector_size(32)));
typedef double fml_v4d_u
    __attribute__((vector_size(32), aligned(8), __may_alias__));
typedef int64_t fml_v4l __attribute__((vector_size(32)));

// The baseline instantiation passes 32-byte vectors between static
// (fully-internal) helpers; GCC's ABI note about that is irrelevant here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// Baseline-ISA instantiation (SSE2 on x86-64, NEON on aarch64 — the
// compiler splits the 32-byte lanes to whatever the target offers).
#define FML_VEC_FN(name) Portable##name
#define FML_VEC_ATTR
#include "la/kernels_vec.inc"
#undef FML_VEC_FN
#undef FML_VEC_ATTR

constexpr Kernels kPortableKernels = {
    "portable",          true,
    PortableDot,         PortableAxpy,
    PortableBilinear,    PortableAddOuter,
    PortableSyrkStrip,   PortableColDotStrip, PortableColSumStrip,
    PortableDistStrip,   PortableQuadFormStrip,
    PortableGemmStrip,   PortableGatherAddRowsStrip,
    PortableSigmoid,
};

#if defined(__x86_64__) || defined(_M_X64)
#define FML_HAVE_AVX2_CLONE 1
// AVX2+FMA instantiation of the same source; selected at runtime only when
// __builtin_cpu_supports agrees, so the baseline binary stays portable.
#define FML_VEC_FN(name) Avx2##name
#define FML_VEC_ATTR __attribute__((target("avx2,fma")))
#include "la/kernels_vec.inc"
#undef FML_VEC_FN
#undef FML_VEC_ATTR

constexpr Kernels kAvx2Kernels = {
    "avx2",          true,
    Avx2Dot,         Avx2Axpy,
    Avx2Bilinear,    Avx2AddOuter,
    Avx2SyrkStrip,   Avx2ColDotStrip, Avx2ColSumStrip,
    Avx2DistStrip,   Avx2QuadFormStrip,
    Avx2GemmStrip,   Avx2GatherAddRowsStrip,
    Avx2Sigmoid,
};

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif  // x86-64

const Kernels& NativeSimdKernels() {
#if defined(FML_HAVE_AVX2_CLONE)
  static const bool avx2 = CpuHasAvx2Fma();
  if (avx2) return kAvx2Kernels;
#endif
  return kPortableKernels;
}

/// What kSimd resolves to: the CPU-feature pick, unless the
/// FACTORML_KERNELS_BACKEND override names a specific table. Re-read on
/// every selection so tests can flip the variable between runs. kScalar
/// selection never consults this — the scalar goldens must hold with the
/// override set (the forced-portable CI job runs the whole tier1 suite).
const Kernels& SimdKernels() {
  const char* env = std::getenv("FACTORML_KERNELS_BACKEND");
  if (env == nullptr || *env == '\0') return NativeSimdKernels();
  const std::string_view v(env);
  if (v == "scalar") return kScalarKernels;
  if (v == "portable") return kPortableKernels;
  if (v == "native") return NativeSimdKernels();
  std::fprintf(stderr,
               "invalid FACTORML_KERNELS_BACKEND=%s "
               "(expected scalar, portable or native)\n",
               env);
  std::exit(2);
}

std::atomic<const Kernels*> g_active{&kScalarKernels};

}  // namespace

void SelectKernels(KernelMode mode) {
  const Kernels& k =
      mode == KernelMode::kSimd ? SimdKernels() : kScalarKernels;
  g_active.store(&k, std::memory_order_release);
  // 0 = scalar, 1 = portable vector, 2 = avx2 — the dispatch decision as a
  // scrapeable signal (last run wins, like every gauge).
  static obs::Gauge* dispatch =
      obs::Registry::Instance().GetGauge("kernels.dispatch");
  dispatch->Set(!k.simd ? 0.0 : (k.name[0] == 'a' ? 2.0 : 1.0));
}

const Kernels& Active() {
  return *g_active.load(std::memory_order_acquire);
}

const char* SimdBackendName() { return SimdKernels().name; }

std::string CpuFeatures() {
#if defined(FML_HAVE_AVX2_CLONE)
  return CpuHasAvx2Fma() ? "x86-64 avx2 fma" : "x86-64 baseline";
#elif defined(__aarch64__) || defined(__ARM_NEON)
  return "aarch64 neon";
#else
  return "generic";
#endif
}

const char* KernelModeName(KernelMode mode) {
  return mode == KernelMode::kSimd ? "simd" : "scalar";
}

}  // namespace factorml::la
