#ifndef FACTORML_GMM_TRAINERS_H_
#define FACTORML_GMM_TRAINERS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/pipeline/strategy_options.h"
#include "gmm/gmm_model.h"

namespace factorml::gmm {

/// Options shared by the three GMM training algorithms. All three run the
/// identical EM recurrence from the identical deterministic initialization,
/// so their outputs agree to floating-point reordering tolerance — the
/// paper's exactness guarantee (Sec. V-B).
/// Mean-initialization strategies. Both are deterministic given the seed,
/// so every algorithm starts from the identical model.
enum class GmmInit {
  kSpreadRows,  // means = joined rows at i*N/K (default)
  kRandomRows,  // means = K distinct uniformly drawn joined rows
};

struct GmmOptions : core::pipeline::StrategyOptions {
  size_t num_components = 5;   // K
  int max_iters = 10;          // EM iterations (the paper times fixed iters)
  double tol = 0.0;            // >0: stop when |delta loglik| < tol*|loglik|
  double init_spread = 5.0;    // initial covariance scale
  /// Ridge added to every covariance diagonal in each M-step (standard
  /// EM regularization; keeps components from collapsing to singular
  /// covariances on degenerate data). Applied identically by all three
  /// algorithms, so exactness is preserved.
  double cov_reg = 1e-6;
  GmmInit init = GmmInit::kSpreadRows;
  uint64_t seed = 1;           // used by kRandomRows
  /// F-GMM refinement over the paper's literal accounting: the precision
  /// matrix and the covariance accumulator are symmetric, so the UR and LL
  /// cross blocks (Eqs. 10-11 / 16-17) are transposes of each other. When
  /// set (default), F-GMM computes each cross block once — doubling it in
  /// the E-step quadratic form and mirroring it once per pass in the
  /// covariance update — which is exact and cuts the per-tuple cross work
  /// in half. Clear it to reproduce the paper's op counts verbatim.
  bool exploit_symmetry = true;
};

}  // namespace factorml::gmm

#endif  // FACTORML_GMM_TRAINERS_H_
