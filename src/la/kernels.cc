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
// posterior_strip the LogSumExp and exp chain, dist_strip the
// squared-distance loop, col_dot_strip the Dot body, and
// gemm_strip's dot form one chain per element that starts from C's prior
// value (so k split over several accumulate calls equals one call).
// Batching the rows therefore moves no scalar bit. The speed comes from
// running independent chains side by side, never from reordering one:
// the per-row kernels (col_dot, dist, quadform) walk the strip column by
// column and keep every row's partial result in its output slot, so the
// column reads are contiguous and the rows' chains interleave; syrk_strip
// gathers 8 rows at a time into a contiguous buffer (GatherRows) and adds
// all 8 rows' products to each Gram entry per load and store.

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

/// Rows per gathered block of syrk_strip.
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

// ScalarAddOuter's body for NR gathered rows at once: each Gram entry
// loads once, adds row 0's product, row 1's, ... (the per-row order) and
// stores once. `upper` starts row i at column i. The gathered rows never
// alias the Gram, which lets the compiler drop its overlap checks.
template <size_t NR>
void ScalarSyrkRows(const double* __restrict x, const double* w, size_t d,
                    double* __restrict gram, size_t ldg, bool upper) {
  for (size_t i = 0; i < d; ++i) {
    double u[NR];
    for (size_t q = 0; q < NR; ++q) {
      u[q] = (w != nullptr ? w[q] : 1.0) * x[q * d + i];
    }
    double* __restrict row = gram + i * ldg;
    for (size_t j = upper ? i : 0; j < d; ++j) {
      double t = row[j];
      for (size_t q = 0; q < NR; ++q) t += u[q] * x[q * d + j];
      row[j] = t;
    }
  }
}

void ScalarSyrkStrip(const double* const* cols, size_t d, size_t rows,
                     const double* w, double* gram, size_t ldg, bool upper) {
  std::vector<double> buf(kReplayRows * d);
  for (size_t r0 = 0; r0 < rows; r0 += kReplayRows) {
    const size_t n = std::min(kReplayRows, rows - r0);
    GatherRows(cols, d, r0, n, buf.data());
    const double* wr = w != nullptr ? w + r0 : nullptr;
    if (n == kReplayRows) {
      ScalarSyrkRows<kReplayRows>(buf.data(), wr, d, gram, ldg, upper);
      continue;
    }
    // A short last block, one row per sweep.
    for (size_t r = 0; r < n; ++r) {
      ScalarSyrkRows<1>(buf.data() + r * d, wr != nullptr ? wr + r : nullptr,
                        d, gram, ldg, upper);
    }
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

// The column-form row kernels below keep every row's running sum in
// out[r] and add the columns in order, NJ columns per pass over the rows
// (one load and store of out[r] per pass). Rows are independent, so the
// compiler runs them side by side; each row's chain is the per-row
// loop's: 0.0, then + term(j) for j = 0, 1, ...

// out[r] += v[q] * c[q][r] for q < NJ, in q order — Dot's chain per row.
template <size_t NJ>
void ScalarColDotCols(const double* const* c, size_t rows, const double* v,
                      double* __restrict out) {
  for (size_t r = 0; r < rows; ++r) {
    double s = out[r];
    for (size_t q = 0; q < NJ; ++q) s += v[q] * c[q][r];
    out[r] = s;
  }
}

void ScalarColDotStrip(const double* const* cols, size_t d, size_t rows,
                       const double* v, double* out) {
  std::fill(out, out + rows, 0.0);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) ScalarColDotCols<4>(cols + j, rows, v + j, out);
  for (; j < d; ++j) ScalarColDotCols<1>(cols + j, rows, v + j, out);
}

// out[r] += (c[q][r] - center[q])^2 for q < NJ, in q order.
template <size_t NJ>
void ScalarDistCols(const double* const* c, size_t rows,
                    const double* center, double* __restrict out) {
  for (size_t r = 0; r < rows; ++r) {
    double s = out[r];
    for (size_t q = 0; q < NJ; ++q) {
      const double t = c[q][r] - center[q];
      s += t * t;
    }
    out[r] = s;
  }
}

void ScalarDistStrip(const double* const* cols, size_t d, size_t rows,
                     const double* center, double* out) {
  std::fill(out, out + rows, 0.0);
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    ScalarDistCols<4>(cols + j, rows, center + j, out);
  }
  for (; j < d; ++j) ScalarDistCols<1>(cols + j, rows, center + j, out);
}

/// Rows per block of quadform_strip: its t_i partial sums stay in L1.
constexpr size_t kQuadRows = 64;

void ScalarQuadFormStrip(const double* diff, size_t d, size_t rows,
                         const double* a, size_t lda, double* out) {
  // ScalarBilinear's body per row: t_i = sum_j a_ij x_j in j order (from
  // 0.0), then total += x_i t_i in i order. Within a block every row's t_i
  // runs through the column form above, with row i of A as the weights.
  std::vector<const double*> cols(d);
  double t[kQuadRows];
  for (size_t r0 = 0; r0 < rows; r0 += kQuadRows) {
    const size_t n = std::min(kQuadRows, rows - r0);
    for (size_t j = 0; j < d; ++j) cols[j] = diff + j * rows + r0;
    double* o = out + r0;
    std::fill(o, o + n, 0.0);
    for (size_t i = 0; i < d; ++i) {
      ScalarColDotStrip(cols.data(), d, n, a + i * lda, t);
      const double* xi = cols[i];
      for (size_t r = 0; r < n; ++r) o[r] += xi[r] * t[r];
    }
  }
}

// The seed's per-row posterior (gmm::LogSumExp, then exp(logp - lse)), moved
// verbatim: the max, the exp sum in component order, then one more exp
// per component against the normalizer.
void ScalarPosteriorStrip(const double* q, size_t ldq, size_t k, size_t rows,
                          const double* log_coeff, double* gamma, size_t ldg,
                          double* lse) {
  std::vector<double> logp(k);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < k; ++c) {
      logp[c] = log_coeff[c] - 0.5 * q[c * ldq + r];
    }
    double m = logp[0];
    for (size_t c = 1; c < k; ++c) m = std::max(m, logp[c]);
    double s = 0.0;
    for (size_t c = 0; c < k; ++c) s += std::exp(logp[c] - m);
    const double l = m + std::log(s);
    for (size_t c = 0; c < k; ++c) gamma[c * ldg + r] = std::exp(logp[c] - l);
    lse[r] = l;
  }
}

// c[q] += sum_p a[p] * b[q * ldb + p] for NJ outputs side by side, each
// chaining from its prior value in p order.
template <size_t NJ>
void ScalarDotRows(const double* a, const double* b, size_t ldb, size_t k,
                   double* c) {
  double s[NJ];
  for (size_t q = 0; q < NJ; ++q) s[q] = c[q];
  for (size_t p = 0; p < k; ++p) {
    for (size_t q = 0; q < NJ; ++q) s[q] += a[p] * b[q * ldb + p];
  }
  for (size_t q = 0; q < NJ; ++q) c[q] = s[q];
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
      size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        ScalarDotRows<4>(ai, b + j * ldb, ldb, k, ci + j);
      }
      for (; j < n; ++j) ScalarDotRows<1>(ai, b + j * ldb, ldb, k, ci + j);
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

// The seed's sigmoid-derivative loop, moved verbatim from nn/activation.cc.
void ScalarSigmoidGrad(const double* h, size_t n, double* p) {
  for (size_t i = 0; i < n; ++i) p[i] *= h[i] * (1.0 - h[i]);
}

// ScalarGemmStrip's k = 1 axpy-form element (0.0, then += w * d) times
// ScalarSigmoidGrad's factor, in one sweep per row.
void ScalarSigmoidBackward(const double* w, size_t m, const double* d,
                           size_t n, const double* h, size_t ld,
                           double* delta) {
  for (size_t u = 0; u < m; ++u) {
    const double wu = w[u];
    const double* hu = h + u * ld;
    double* du = delta + u * ld;
    for (size_t r = 0; r < n; ++r) {
      du[r] = (0.0 + wu * d[r]) * (hu[r] * (1.0 - hu[r]));
    }
  }
}

constexpr Kernels kScalarKernels = {
    "scalar",          false,
    ScalarDot,         ScalarAxpy,
    ScalarBilinear,    ScalarAddOuter,
    ScalarSyrkStrip,   ScalarColDotStrip, ScalarColSumStrip,
    ScalarDistStrip,   ScalarQuadFormStrip, ScalarPosteriorStrip,
    ScalarGemmStrip,   ScalarGatherAddRowsStrip,
    ScalarSigmoid,     ScalarSigmoidGrad,
    ScalarSigmoidBackward,
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
#define FML_VEC_MAX(a, b) ((a) > (b) ? (a) : (b))
#define FML_VEC_MIN(a, b) ((a) < (b) ? (a) : (b))
#include "la/kernels_vec.inc"
#undef FML_VEC_FN
#undef FML_VEC_ATTR
#undef FML_VEC_MAX
#undef FML_VEC_MIN

constexpr Kernels kPortableKernels = {
    "portable",          true,
    PortableDot,         PortableAxpy,
    PortableBilinear,    PortableAddOuter,
    PortableSyrkStrip,   PortableColDotStrip, PortableColSumStrip,
    PortableDistStrip,   PortableQuadFormStrip, PortablePosteriorStrip,
    PortableGemmStrip,   PortableGatherAddRowsStrip,
    PortableSigmoid,     PortableSigmoidGrad,
    PortableSigmoidBackward,
};

#if defined(__x86_64__) || defined(_M_X64)
#define FML_HAVE_AVX2_CLONE 1
// AVX2+FMA instantiation of the same source; selected at runtime only when
// __builtin_cpu_supports agrees, so the baseline binary stays portable.
#define FML_VEC_FN(name) Avx2##name
#define FML_VEC_ATTR __attribute__((target("avx2,fma")))
#define FML_VEC_MAX(a, b) __builtin_ia32_maxpd256((a), (b))
#define FML_VEC_MIN(a, b) __builtin_ia32_minpd256((a), (b))
#include "la/kernels_vec.inc"
#undef FML_VEC_FN
#undef FML_VEC_ATTR
#undef FML_VEC_MAX
#undef FML_VEC_MIN

constexpr Kernels kAvx2Kernels = {
    "avx2",          true,
    Avx2Dot,         Avx2Axpy,
    Avx2Bilinear,    Avx2AddOuter,
    Avx2SyrkStrip,   Avx2ColDotStrip, Avx2ColSumStrip,
    Avx2DistStrip,   Avx2QuadFormStrip, Avx2PosteriorStrip,
    Avx2GemmStrip,   Avx2GatherAddRowsStrip,
    Avx2Sigmoid,     Avx2SigmoidGrad,
    Avx2SigmoidBackward,
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
