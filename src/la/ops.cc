#include "la/ops.h"

#include "common/opcount.h"
#include "la/kernels.h"

namespace factorml::la {

// The vector-width-sensitive primitives (Dot/Axpy/Bilinear/AddOuter)
// dispatch through the kernel plane's active backend (la/kernels.h) so
// every consumer — dense, factorized, NN — rides --kernels=simd without
// model-code changes. Op accounting stays here, in the wrappers, making
// the measured counts backend-independent by construction. GemmNT serves
// inference (Mlp::Forward); the NN epoch plane runs its batch products on
// the kernel table's gemm_strip instead.

double Dot(const double* a, const double* b, size_t n) {
  const double s = Active().dot(a, b, n);
  CountMults(n);
  CountAdds(n);
  return s;
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
  Active().axpy(alpha, x, y, n);
  CountMults(n);
  CountAdds(n);
}

double Bilinear(const Matrix& a, size_t r0, size_t c0, const double* u,
                size_t nu, const double* v, size_t nv) {
  FML_DCHECK(r0 + nu <= a.rows() && c0 + nv <= a.cols());
  const size_t lda = a.cols();
  const double total =
      Active().bilinear(a.data() + r0 * lda + c0, lda, u, nu, v, nv);
  CountMults(nu * nv + nu);
  CountAdds(nu * nv + nu);
  return total;
}

double QuadForm(const Matrix& a, const double* x, size_t n) {
  FML_DCHECK(a.rows() == n && a.cols() == n);
  return Bilinear(a, 0, 0, x, n, x, n);
}

void GemmNT(const Matrix& x, const Matrix& w, Matrix* c, bool accumulate) {
  FML_CHECK_EQ(x.cols(), w.cols());
  const size_t m = x.rows();
  const size_t n = w.rows();
  const size_t k = x.cols();
  if (!accumulate) c->Resize(m, n);
  FML_CHECK_EQ(c->rows(), m);
  FML_CHECK_EQ(c->cols(), n);
  for (size_t i = 0; i < m; ++i) {
    const double* xi = x.data() + i * k;
    double* ci = c->data() + i * n;
    for (size_t j = 0; j < n; ++j) {
      const double* wj = w.data() + j * k;
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += xi[p] * wj[p];
      ci[j] += s;
    }
  }
  CountMults(m * n * k);
  CountAdds(m * n * k);
}

void AddOuter(double alpha, const double* u, size_t nu, const double* v,
              size_t nv, Matrix* a, size_t r0, size_t c0) {
  FML_DCHECK(r0 + nu <= a->rows() && c0 + nv <= a->cols());
  const size_t lda = a->cols();
  Active().add_outer(alpha, u, nu, v, nv, a->data() + r0 * lda + c0, lda);
  CountMults(nu * nv + nu);
  CountAdds(nu * nv);
}

void AddRowVector(const double* b, Matrix* x) {
  const size_t n = x->cols();
  for (size_t i = 0; i < x->rows(); ++i) {
    double* row = x->data() + i * n;
    for (size_t j = 0; j < n; ++j) row[j] += b[j];
  }
  CountAdds(x->size());
}

}  // namespace factorml::la
