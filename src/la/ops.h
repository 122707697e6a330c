#ifndef FACTORML_LA_OPS_H_
#define FACTORML_LA_OPS_H_

#include <cstddef>

#include "la/matrix.h"

namespace factorml::la {

/// Dense kernels used by the trainers. Every kernel credits the global
/// OpCounters with its multiply/add totals so the analytical cost model of
/// the paper can be validated against measured counts.

/// Inner product of two length-n arrays.
double Dot(const double* a, const double* b, size_t n);

/// y += alpha * x (length n).
void Axpy(double alpha, const double* x, double* y, size_t n);

/// Bilinear form u^T * A[r0:r0+nu, c0:c0+nv] * v over a rectangular block
/// of A. This is the building block for the paper's UL/UR/LL/LR quadratic
/// form decomposition (Eqs. 9-12, 19).
double Bilinear(const Matrix& a, size_t r0, size_t c0, const double* u,
                size_t nu, const double* v, size_t nv);

/// x^T * A * x for the full square matrix A (n x n).
double QuadForm(const Matrix& a, const double* x, size_t n);

/// C = X * W^T (or C += if accumulate): X is (m x k), W is (n x k),
/// C is (m x n).
void GemmNT(const Matrix& x, const Matrix& w, Matrix* c, bool accumulate);

/// A[r0:r0+nu, c0:c0+nv] += alpha * u * v^T (outer-product accumulate);
/// the building block of the factorized covariance update (Eqs. 15-18, 24).
void AddOuter(double alpha, const double* u, size_t nu, const double* v,
              size_t nv, Matrix* a, size_t r0, size_t c0);

/// Adds the length-cols vector b to every row of X.
void AddRowVector(const double* b, Matrix* x);

}  // namespace factorml::la

#endif  // FACTORML_LA_OPS_H_
