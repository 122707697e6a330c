#ifndef FACTORML_GMM_RID_MASS_H_
#define FACTORML_GMM_RID_MASS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/pipeline/model_program.h"
#include "la/matrix.h"

namespace factorml::gmm {

/// The per-attribute-tuple mass of the factorized mean update (Eq. 22),
/// shared by F-GMM (soft responsibilities) and F-k-means (hard, unit-weight
/// assignments). Per fact tuple the attribute slices of the weighted
/// feature sum are never touched: each table i only gets
/// mass[i](c, rid_i) += w, replacing n_S x d_Ri multiplies by n_S adds.
/// After the pass, MeanSlices folds the merged mass through the attribute
/// features once per attribute tuple. The mass is k x n_Ri per table; an
/// accumulator slot's table 0 is sized to the slot's rid span (the
/// rid-span contract), its tables i >= 1 and the merged mass are
/// full-domain.
class RidMass {
 public:
  /// The deferral's charge rule: with `skip_zero_mass` (k-means) rids that
  /// drew no mass are skipped and not charged; without it (GMM) every rid
  /// pays its Axpy.
  explicit RidMass(bool skip_zero_mass) : skip_zero_mass_(skip_zero_mass) {}

  /// Sizes `workers` zeroed slots and the zeroed merged mass for `k`
  /// components, one table per ctx.factored_tables (none under M/S). The
  /// merged mass stays readable until the next BeginPass.
  void BeginPass(const core::pipeline::PipelineContext& ctx, size_t k,
                 int workers);

  /// mass[i](c, rid) += w in accumulator slot `slot`; table-0 rids are
  /// rebased to the slot's span here. Uncharged: the caller counts the add.
  void Add(int slot, size_t i, size_t c, int64_t rid, double w) {
    Slot& s = slots_[static_cast<size_t>(slot)];
    s.mass[i](c, static_cast<size_t>(i == 0 ? rid - s.base0 : rid)) += w;
  }

  /// ModelProgram::VisitSlotState for one slot's mass, in [i][c][rid]
  /// order: table 0's span-sized rows land at the span offset of the
  /// merged rows, tables i >= 1 merge whole.
  void VisitSlot(int slot,
                 const std::function<void(double*, double*, size_t)>& visit);

  /// The pass's merged k x n_Ri mass of table i.
  const la::Matrix& merged(size_t i) const { return merged_[i]; }

  /// Writes the attribute slices of component c's mean row `mu_row`:
  /// slice_i = inv_n * sum over rids of merged(i)(c, rid) * x_Ri[rid].
  void MeanSlices(const core::pipeline::PipelineContext& ctx, size_t c,
                  double inv_n, double* mu_row) const;

 private:
  struct Slot {
    std::vector<la::Matrix> mass;  // [i]: k x n_Ri (table 0: k x span)
    int64_t base0 = 0;             // table-0 rid span begin
  };

  bool skip_zero_mass_;
  std::vector<la::Matrix> merged_;  // [i]: k x n_Ri
  std::vector<Slot> slots_;
};

}  // namespace factorml::gmm

#endif  // FACTORML_GMM_RID_MASS_H_
