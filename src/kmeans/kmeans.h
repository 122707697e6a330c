#ifndef FACTORML_KMEANS_KMEANS_H_
#define FACTORML_KMEANS_KMEANS_H_

#include <cstdint>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline/strategy_options.h"
#include "la/matrix.h"

namespace factorml::core::pipeline {
class ModelProgram;
}

namespace factorml::kmeans {

/// Options for Lloyd's k-means over the joined feature vector. All three
/// strategies start from the identical deterministic seeds (joined rows
/// spread through S, like GmmInit::kSpreadRows) and perform the identical
/// assign/update recurrence, so their centroids agree up to floating-point
/// reordering — the paper's exactness property carried to a new model.
struct KmeansOptions : core::pipeline::StrategyOptions {
  size_t num_clusters = 5;    // K
  int max_iters = 10;         // Lloyd iterations
  double tol = 0.0;           // >0: stop when |delta inertia| < tol*|inertia|
};

/// A trained clustering: centroids after the final update, the cluster
/// sizes of the final assignment, and its inertia (sum of squared
/// distances to the assigned centroid — the Lloyd objective).
struct KmeansModel {
  la::Matrix centroids;        // K x d
  std::vector<double> counts;  // K
  double inertia = 0.0;

  size_t num_clusters() const { return centroids.rows(); }
  size_t dims() const { return centroids.cols(); }

  /// Index of the nearest centroid (lowest index wins ties).
  size_t Assign(const double* x) const;

  /// Max absolute centroid difference; used by the M==S==F parity tests.
  static double MaxAbsDiff(const KmeansModel& a, const KmeansModel& b);
};

/// Process-shard-backend seam (core/pipeline/shard_rpc.h): serialize /
/// decode the math-relevant KmeansOptions for the JOB frame's family blob
/// and rebuild the identical ModelProgram on a factormld worker.
std::string EncodeShardJob(const KmeansOptions& options);
Result<KmeansOptions> DecodeShardJob(const std::string& blob);
std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const KmeansOptions& options);

}  // namespace factorml::kmeans

#endif  // FACTORML_KMEANS_KMEANS_H_
