#ifndef FACTORML_LA_KERNELS_H_
#define FACTORML_LA_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace factorml::la {

/// Runtime-dispatched compute kernel plane behind `--kernels={scalar,simd}`.
/// The flag picks only which table below is active: every model reads the
/// same column strips under both modes.
///
/// Every function pointer in `Kernels` is a *raw* kernel: it performs the
/// arithmetic only and never touches the OpCounters — accounting stays in
/// the `la/ops.h` wrappers (per-call totals) and in the model programs'
/// strip paths (per-batch totals), so the measured op counts are identical
/// for every backend by construction.
///
/// Backends:
///  - `scalar`  — the seed's exact loop bodies, moved verbatim from
///    `ops.cc`. The build uses strict IEEE semantics (no -ffast-math), so
///    routing through this table is bit-identical to the pre-kernel-plane
///    code: the tier-1 goldens pin it. Its strip kernels keep a row-replay
///    contract: each accumulator receives the per-row code's expressions
///    in row order (syrk_strip = AddOuter per row, colsum_strip = Axpy per
///    row, quadform_strip = QuadForm per row, posterior_strip = the
///    per-row LogSumExp and exp chain, gemm_strip's dot form one
///    chain per element from C's prior value), so strips and rows give
///    the same scalar bits. Independent chains run side by side — rows
///    across a column, Gram entries across 8 rows, 4 dot-form outputs —
///    without reordering any one of them.
///  - `portable` — GNU vector extensions (32-byte double lanes) compiled
///    at the baseline ISA. On x86-64 that is SSE2; on aarch64 the same
///    source lowers to NEON. Fixed multi-accumulator reduction order, so
///    results are deterministic per build but differ from scalar by
///    reassociation — the tolerance contract. The strip kernels are
///    register-blocked, and blocking never changes a bit: each output
///    keeps the one accumulation chain a standalone call gives it.
///  - `avx2` — the identical vector source re-compiled per-function with
///    `target("avx2,fma")`, selected at runtime via __builtin_cpu_supports.
///
/// SelectKernels() is called once per training run (RunTraining) before
/// any parallel region; workers only ever read the table.
struct Kernels {
  const char* name;  // "scalar", "portable", "avx2"
  bool simd;

  // ------------------------------------------------- routed primitives
  // Semantics match the `la/ops.h` wrappers of the same shape.
  double (*dot)(const double* a, const double* b, size_t n);
  void (*axpy)(double alpha, const double* x, double* y, size_t n);
  // total = u^T A v over an nu x nv block at `a` with row stride lda.
  double (*bilinear)(const double* a, size_t lda, const double* u, size_t nu,
                     const double* v, size_t nv);
  // a[i*lda + j] += (alpha * u[i]) * v[j].
  void (*add_outer)(double alpha, const double* u, size_t nu, const double* v,
                    size_t nv, double* a, size_t lda);

  // ---------------------------------------------- strip batch kernels
  // `cols` is an array of d pointers, each to a contiguous column of
  // `rows` doubles (one decoded strip, see storage::ColumnStrips).

  // gram[i*ldg + j] += sum_r w[r] * cols[i][r] * cols[j][r] over the full
  // d x d square, or with `upper` only its upper triangle (j >= i; the
  // entries below the diagonal are left untouched); w == nullptr means
  // unit weights. Batches the per-row rank-1 AddOuter of the GMM
  // covariance moment (full: its weighted chains (w x_j) x_i differ from
  // their mirrors) and of the linreg/logreg Gram update (upper: the Gram
  // is symmetric, and its owner mirrors the triangle once per pass). The
  // caller charges the per-row AddOuter stream in both forms. Scalar:
  // each entry takes 8 rows' products per load and store, in row order.
  // Vector backends: each upper-triangle sum (i <= j) is computed once
  // and, in the full form, mirrored, with one chain per (i, j) — the
  // chain a 2-column call on {cols[i], cols[j]} runs. Unweighted, row i
  // sweeps four j columns per pass. Weighted (the GMM covariance moment),
  // three i rows sweep four j columns per pass, sharing the w * cols[i]
  // products and the cols[j] loads (the d % 3 last rows go one at a time;
  // a block's entries below the diagonal are computed and dropped).
  void (*syrk_strip)(const double* const* cols, size_t d, size_t rows,
                     const double* w, double* gram, size_t ldg, bool upper);
  // out[r] = sum_j v[j] * cols[j][r] — the transposed-gemv shape of the
  // logreg eta pass (one dot per row, batched across the strip).
  void (*col_dot_strip)(const double* const* cols, size_t d, size_t rows,
                        const double* v, double* out);
  // acc[j] += sum_r w[r] * cols[j][r]; w == nullptr means unit weights.
  // Batches the per-row Axpy of the cofactor / weighted-mean updates.
  // Vector backends sweep four columns per pass, one chain per column —
  // column j's bits equal a 1-column call's.
  void (*colsum_strip)(const double* const* cols, size_t d, size_t rows,
                       const double* w, double* acc);
  // out[r] = sum_j (cols[j][r] - center[j])^2 — one k-means distance
  // column per call. Vector backends hold 16 rows of `out` in registers
  // across all d columns (then 4-row blocks, then a scalar tail); each
  // row adds its terms in column order.
  void (*dist_strip)(const double* const* cols, size_t d, size_t rows,
                     const double* center, double* out);
  // out[r] = diff_r^T A diff_r where diff is d x rows row-major
  // (diff[i*rows + r]) — the batched GMM responsibility quadratic form.
  // Scalar: QuadForm's full-square chain per row. Vector backends sum
  // only the upper triangle, folding A's two triangles into one
  // coefficient per broadcast (b_ii = a_ii, b_ij = a_ij + a_ji for
  // j > i), so any A keeps the full-square value up to reassociation and
  // a symmetric one (the GMM precision) costs half the products: each
  // row forms t_i = sum_{j >= i} b_ij diff_j in j order, then adds
  // diff_i t_i in i order. They sweep 16 rows (then 4, then a scalar
  // tail) x 2 precision rows, sharing the b_ij broadcasts and the diff_j
  // loads.
  void (*quadform_strip)(const double* diff, size_t d, size_t rows,
                         const double* a, size_t lda, double* out);
  // The GMM E-step posterior of `rows` points over k components, with
  // logp_c(r) = log_coeff[c] - 0.5 * q[c*ldq + r] (q: the k x rows
  // quadratic forms): lse[r] = log sum_c exp(logp_c(r)) (the point's
  // log-likelihood term) and gamma[c*ldg + r] = its responsibility, all
  // component-major. Scalar: the per-row LogSumExp (max, then
  // s = sum exp(logp - max) in c order, lse = max + log s) and
  // gamma = exp(logp - lse), the seed's two exps per (row, component).
  // Vector backends: 4 rows per lane block, one in-lane exp per (row,
  // component) — gamma = exp(logp - max) * (1 / s), lse = max + log s —
  // within 4 ulp of scalar where |lse| is O(1) (scalar's exp(logp - lse)
  // carries lse's rounding) and exactly 0 where scalar's exp underflows.
  // The row tail is padded into a lane block, so a row's results do not
  // depend on its index. The caller charges the per-row op stream.
  void (*posterior_strip)(const double* q, size_t ldq, size_t k, size_t rows,
                          const double* log_coeff, double* gamma, size_t ldg,
                          double* lse);

  // ------------------------------------------- dgemm-shaped strip kernel
  // trans_b == false:  C(m x n, ldc) (+)= A(m x k, lda) * B(k x n, ldb)
  //   — axpy-form over n; B's rows are contiguous length-n runs (strip
  //   columns / transposed batch rows), so the vector backends stream
  //   whole lanes of C. The NN first-layer forward shape: A = W1 slice,
  //   B = one feature strip, C = the transposed activation block.
  // trans_b == true:   C(m x n, ldc) (+)= A(m x k, lda) * B(n x k, ldb)^T
  //   — dot-form over k; both operands contiguous along k (two strip
  //   blocks of the same height). The NN backward shape: A = transposed
  //   delta strip, B = the feature strip, C = a W1-gradient block. Also
  //   F-linreg/logreg's attr x attr cross blocks: A = one table's
  //   (weighted) rows gathered column-major, B = another table's, C = the
  //   Gram block of the pair.
  // accumulate == false overwrites C's m x n block instead of adding.
  // Scalar: axpy-form adds one row of B per p to a C row; dot-form runs 4
  // elements' chains side by side, each from C's prior value in p order.
  // Vector backends tile without moving a bit. Axpy-form holds 4 C rows x
  // 8 lanes in registers across all k (1-row tiles for the m % 4 rows, an
  // Axpy per p for the n % 8 lanes); each element keeps its chain: prior
  // value (or 0.0), then + a(i,p) * b(p,j) in p order. The 8-lane panels
  // run outer, reusing B's panel across the row blocks, unless k <= 2 and
  // ldc is a multiple of 128: then a panel's rows of C share a few cache
  // sets, and each 4-row block sweeps its rows whole instead. Dot-form
  // sweeps 4 B rows per A row, each (i, j)
  // keeping Dot's two-accumulator chain, so a row equals a 1-row call and
  // an entry a 1 x 1 call.
  void (*gemm_strip)(const double* a, size_t lda, const double* b, size_t ldb,
                     size_t m, size_t n, size_t k, double* c, size_t ldc,
                     bool trans_b, bool accumulate);

  // ------------------------------------------------ FK1 gather kernel
  // out[r] += base[idx[r] * ldb + j] for j in [0, n) — adds one gathered
  // base row per strip row (NN's per-attribute partial-cache gather, and
  // with n = 1 the per-rid response dots of F-logreg's eta).
  // `idx` holds one row id per strip row (contiguous rid runs when they
  // come from join::ChunkFk1Runs group batches, arbitrary otherwise).
  void (*gather_add_rows_strip)(const double* base, size_t ldb,
                                const int64_t* idx, size_t rows, size_t n,
                                double* out, size_t ldo);

  // ------------------------------------------------ elementwise kernels
  // h[i] = 1 / (1 + exp(-a[i])) — the NN hidden-layer activation. Scalar
  // calls std::exp per element. The vector backends evaluate exp(-a) in
  // lane with no select: the argument is clamped to [-708, 710.5] by
  // max/min (NaN passes through; below -708, 1 + exp rounds to 1 either
  // way), and the 2^k scale is +inf at the top of the clamp, so every
  // value past std::exp's overflow edge gives exactly 0 and every value
  // past its underflow edge exactly 1, like scalar. They stay within
  // 4 ulp of scalar (3 measured, over the overflow edges and a sweep of
  // [-800, 800]). Every element takes the same lane path (the tail is
  // padded), so a value's result does not depend on its index.
  void (*sigmoid)(const double* a, size_t n, double* h);
  // p[i] *= h[i] * (1 - h[i]) — the sigmoid layer's backward factor, with
  // h the layer's output. Elementwise, so every backend gives scalar's
  // bits.
  void (*sigmoid_grad)(const double* h, size_t n, double* p);
  // delta[u*ld + r] = (0.0 + w[u] * d[r]) * (h_ur * (1 - h_ur)) with
  // h_ur = h[u*ld + r], for u < m, r < n — the backward step through a
  // one-unit layer above a sigmoid layer (w: its weight row, d: its delta
  // row, h: the sigmoid layer's m x n output). On every backend, the bits
  // of gemm_strip's k = 1 axpy form into a zeroed C followed by
  // sigmoid_grad, in one sweep.
  void (*sigmoid_backward)(const double* w, size_t m, const double* d,
                           size_t n, const double* h, size_t ld,
                           double* delta);
};

/// Kernel backend selection mode, resolved from --kernels.
enum class KernelMode {
  kScalar = 0,  // bit-identical seed loops (default)
  kSimd = 1,    // best vector backend this CPU supports
};

/// Installs the backend for `mode` as the process-wide active table and
/// publishes the choice to the obs registry (`kernels.dispatch` gauge:
/// 0 = scalar, 1 = portable vector, 2 = avx2). kSimd resolves to "avx2"
/// when the CPU reports AVX2+FMA, else the portable vector backend.
///
/// The FACTORML_KERNELS_BACKEND environment variable overrides what kSimd
/// resolves to — "scalar", "portable", or "native" (the CPU-feature pick
/// above) — so tests/CI can force the portable GNU-vector lowering on AVX2
/// hosts. kScalar ignores the override: the bit-identity goldens must hold
/// whatever the environment says. An unrecognized value exits with code 2.
void SelectKernels(KernelMode mode);

/// The active kernel table (scalar until SelectKernels says otherwise).
/// Safe to call concurrently from workers; selection happens before
/// parallel regions.
const Kernels& Active();

/// Name of the backend SelectKernels(kSimd) would pick on this machine,
/// honoring the FACTORML_KERNELS_BACKEND override (so run manifests report
/// the backend a forced run actually used).
const char* SimdBackendName();

/// Detected CPU feature summary for manifests, e.g. "x86-64 avx2 fma",
/// "x86-64 baseline", "aarch64 neon".
std::string CpuFeatures();

/// "scalar" / "simd" — the flag spelling of a mode.
const char* KernelModeName(KernelMode mode);

}  // namespace factorml::la

#endif  // FACTORML_LA_KERNELS_H_
