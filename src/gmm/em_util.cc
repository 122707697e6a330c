#include "gmm/em_util.h"

#include <cmath>
#include <set>

#include "common/rng.h"
#include "core/pipeline/access_strategy.h"
#include "storage/table.h"

namespace factorml::gmm::internal {

Result<la::Matrix> InitSeedRows(const join::NormalizedRelations& rel,
                                storage::BufferPool* pool,
                                const GmmOptions& options) {
  const size_t k = options.num_components;
  const int64_t n = rel.s.num_rows();

  std::vector<int64_t> rows(k);
  switch (options.init) {
    case GmmInit::kSpreadRows:
      for (size_t c = 0; c < k; ++c) {
        rows[c] = static_cast<int64_t>(c) * n / static_cast<int64_t>(k);
      }
      break;
    case GmmInit::kRandomRows: {
      // K distinct rows; rejection is cheap because K << N.
      Rng rng(options.seed);
      std::set<int64_t> chosen;
      while (chosen.size() < k) {
        chosen.insert(
            static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(n))));
      }
      rows.assign(chosen.begin(), chosen.end());
      break;
    }
  }
  return core::pipeline::AssembleJoinedRows(rel, pool, rows);
}

bool Converged(double prev_ll, double ll, double tol) {
  if (tol <= 0.0) return false;
  if (!std::isfinite(prev_ll)) return false;
  return std::fabs(ll - prev_ll) < tol * std::fabs(ll);
}

}  // namespace factorml::gmm::internal
