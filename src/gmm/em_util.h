#ifndef FACTORML_GMM_EM_UTIL_H_
#define FACTORML_GMM_EM_UTIL_H_

#include <vector>

#include "common/status.h"
#include "core/report.h"
#include "gmm/gmm_model.h"
#include "gmm/trainers.h"
#include "join/normalized_relations.h"
#include "storage/buffer_pool.h"

namespace factorml::gmm::internal {

using core::ReportScope;

/// Deterministic initialization seeds: the joined feature vectors of
/// either rows spread evenly through S (row i*N/K) or K distinct rows
/// drawn by a seeded generator. All three trainers call this with the
/// same relations and options, guaranteeing identical starting
/// parameters. Requires K <= |S| (GMM's ValidateOptions checks it).
Result<la::Matrix> InitSeedRows(const join::NormalizedRelations& rel,
                                storage::BufferPool* pool,
                                const GmmOptions& options);

/// Shared EM driver bookkeeping: responsibilities for all N points plus
/// per-component responsibility mass N_k. Component-major: Col(c) is
/// component c's gamma for every point, so the E-step's posterior kernel
/// writes whole lanes and the M-step passes read contiguous weights.
struct Responsibilities {
  size_t n = 0;
  size_t k = 0;
  std::vector<double> gamma;  // k * n, component-major
  std::vector<double> n_k;    // k

  void Reset(size_t n_points, size_t n_components) {
    n = n_points;
    k = n_components;
    gamma.assign(k * n, 0.0);
    n_k.assign(k, 0.0);
  }
  double* Col(size_t c) { return gamma.data() + c * n; }
  const double* Col(size_t c) const { return gamma.data() + c * n; }
};

/// True when EM should stop: either the iteration budget is exhausted or
/// the relative log-likelihood change fell below tol (when tol > 0).
bool Converged(double prev_ll, double ll, double tol);

}  // namespace factorml::gmm::internal

#endif  // FACTORML_GMM_EM_UTIL_H_
