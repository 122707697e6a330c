#ifndef FACTORML_LINREG_GRAM_COFACTOR_H_
#define FACTORML_LINREG_GRAM_COFACTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "core/pipeline/model_program.h"
#include "la/matrix.h"

namespace factorml::linreg {

/// The weighted normal equations A = X^T W X, b = X^T W z of a linear
/// model over S ⋈ R1 ⋈ ... ⋈ Rq, accumulated in one full pass: ridge
/// linreg's Gram/cofactor pass (unit weights, z = y) and each IRLS pass of
/// logreg (W = diag(p(1-p)), z the working response). M/S feed the whole
/// joined row and pay the full d x d outer product per joined tuple. F
/// mirrors the paper's decomposition: per fact tuple it touches only the S
/// slice (S-diagonal block, per-rid weighted S-slice sums, per-rid weight
/// and response masses) and a multi-way join's attr x attr cross blocks;
/// the S x Ri cross blocks, the Ri-diagonal blocks and the Ri slices of b
/// are deferred to one rank-1 update per *attribute* tuple in EndPass —
/// the classic cofactor factorization of linear models over joins. With an
/// intercept, X is augmented with a constant-1 last column (da = d + 1)
/// that the ridge never penalizes.
class GramCofactor {
 public:
  /// One accumulator slot's state.
  struct Slot {
    la::Matrix gram;            // da x da (upper cross blocks only)
    std::vector<double> cvec;   // da
    /// The owning program's per-pass scalar (linreg: sum y^2, logreg: the
    /// negative log-likelihood), merged and shipped with the slot.
    double scalar = 0.0;
    std::vector<la::Matrix> wxsum;               // [i]: nRi x ds, sum w*xs
    std::vector<std::vector<double>> wsum;       // [i][rid] sum w
    std::vector<std::vector<double>> wzsum;      // [i][rid] sum w*z
    size_t base0 = 0;  // table-0 rid span begin (table-0 masses are relative)
  };

  GramCofactor(double l2, bool intercept) : l2_(l2), intercept_(intercept) {}

  /// Rejects a ridge penalty that is negative or not finite; `family`
  /// prefixes the message.
  Status Validate(const char* family) const;

  void Init(const core::pipeline::PipelineContext& ctx);
  /// Zeroes the merged equations and sizes `workers` zeroed slots, with
  /// the per-rid masses of every factored table (table 0 to each slot's
  /// rid span, merged masses full-domain).
  void BeginPass(const core::pipeline::PipelineContext& ctx, int workers);

  Slot& slot(int s) { return slots_[static_cast<size_t>(s)]; }

  /// The one feed of every strategy: adds strip `strip` of `block` (the
  /// target at strip column 0, then the slice_cols feature columns) to
  /// A = X^T W X and b = X^T W z. `w` holds the strip's per-row weights
  /// (null = unit weights) and `wz` its per-row w*z. With no factored table
  /// (M/S) the slice's blocks are the whole Gram; under F the strip also
  /// feeds the per-rid masses and the attr x attr cross blocks. Every
  /// accumulator chains from its slot value in row order, so the scalar
  /// row-replay kernels give the per-row update's bits, and each call is
  /// charged the exact per-row AddOuter/Axpy stream it batches.
  void AddStrip(Slot& acc, const core::pipeline::Block& block, size_t strip,
                const double* w, const double* wz) const;

  /// ModelProgram::VisitSlotState for one slot: gram, cvec, scalar, then
  /// each factored table's wxsum, wsum, wzsum.
  void VisitSlot(int slot,
                 const std::function<void(double*, double*, size_t)>& visit);

  /// Applies the factored tables' deferred per-attribute-tuple blocks and
  /// mirrors the one-sided Gram into a full symmetric matrix.
  void EndPass(const core::pipeline::PipelineContext& ctx);

  /// Solves (A + l2 I) x = b, bias unpenalized: x has da entries.
  Result<std::vector<double>> Solve() const;

  size_t d() const { return d_; }
  size_t da() const { return da_; }
  const la::Matrix& gram() const { return merged_.gram; }
  const std::vector<double>& cvec() const { return merged_.cvec; }
  double scalar() const { return merged_.scalar; }

 private:
  /// Sizes `acc` zeroed, its table-0 masses to `n_r0` rids.
  void Reset(const core::pipeline::PipelineContext& ctx, size_t n_r0,
             Slot* acc) const;

  double l2_;
  bool intercept_;
  const join::NormalizedRelations* rel_ = nullptr;
  const std::vector<join::AttributeTableView>* views_ = nullptr;
  size_t d_ = 0, ds_ = 0, q_ = 0, da_ = 0;
  std::vector<size_t> attr_offset_;

  /// The pass result: every slot added in, table-0 masses full-domain.
  Slot merged_;
  std::vector<Slot> slots_;
};

}  // namespace factorml::linreg

#endif  // FACTORML_LINREG_GRAM_COFACTOR_H_
