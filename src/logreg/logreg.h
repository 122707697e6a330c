#ifndef FACTORML_LOGREG_LOGREG_H_
#define FACTORML_LOGREG_LOGREG_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline/strategy_options.h"

namespace factorml::logreg {

/// Options for L2-regularized logistic regression trained by IRLS
/// (iteratively reweighted least squares). Each iteration is one full pass
/// that accumulates the *weighted* Gram matrix A = X^T W X and working
/// response b = X^T W z (W = diag(p(1-p)), z the IRLS working response),
/// then solves (A + l2*I) beta = b — exactly linear regression's
/// Gram/cofactor pass with per-tuple weights, so the factorized path
/// reuses linreg's deferred cofactor blocks: per fact tuple only the
/// S slice and weighted per-rid masses are touched, and the S x Ri cross,
/// Ri-diagonal and Ri-cofactor blocks collapse to one rank-1 update per
/// *attribute* tuple at pass end. The per-row linear response itself is
/// factorized too: eta = beta_S . xs + sum_i (beta_Ri . xr[rid_i]), with
/// the per-rid dot products computed once per R tuple per pass.
struct LogregOptions : core::pipeline::StrategyOptions {
  double l2 = 1e-3;           // ridge penalty (never applied to the bias)
  bool intercept = true;      // augment X with a constant-1 column
  int max_iters = 4;          // IRLS iterations
  double tol = 0.0;           // >0: stop when max |delta beta| < tol
};

/// A trained logistic model over the joined feature vector
/// [XS | XR1 | ... | XRq].
struct LogregModel {
  std::vector<double> w;  // d coefficients in joined-column order
  double bias = 0.0;      // intercept (0 when disabled)

  size_t dims() const { return w.size(); }
  /// P(y = 1 | x) under the fitted model.
  double PredictProb(const double* x) const;

  /// Max absolute coefficient difference (bias included); used by the
  /// M==S==F parity tests.
  static double MaxAbsDiff(const LogregModel& a, const LogregModel& b);
};

}  // namespace factorml::logreg

#endif  // FACTORML_LOGREG_LOGREG_H_
