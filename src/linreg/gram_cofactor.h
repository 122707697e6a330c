#ifndef FACTORML_LINREG_GRAM_COFACTOR_H_
#define FACTORML_LINREG_GRAM_COFACTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/opcount.h"
#include "common/status.h"
#include "core/pipeline/model_program.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "net/wire.h"

namespace factorml::linreg {

/// The weighted normal equations A = X^T W X, b = X^T W z of a linear
/// model over S ⋈ R1 ⋈ ... ⋈ Rq, accumulated in one full pass: ridge
/// linreg's Gram/cofactor pass (unit weights, z = y) and each IRLS pass of
/// logreg (W = diag(p(1-p)), z the working response). The dense feeds
/// (M/S) pay the full d x d outer product per joined tuple. The factorized
/// feed mirrors the paper's decomposition: per fact tuple it touches only
/// the S slice (S-diagonal block, per-rid weighted S-slice sums, per-rid
/// weight and response masses); the S x Ri cross blocks, the Ri-diagonal
/// blocks and the Ri slices of b are deferred to one rank-1 update per
/// *attribute* tuple in EndPass — the classic cofactor factorization of
/// linear models over joins. With an intercept, X is augmented with a
/// constant-1 last column (da = d + 1) that the ridge never penalizes.
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

  /// The dense feed (M/S), one column strip of `rows` joined rows:
  /// A += X^T W X, b += X^T W z. `cols` are the d feature columns, `w`
  /// the per-row weights (null = unit weights: the intercept column adds
  /// x itself, with no product and no product charged) and `wz` the
  /// per-row w*z. Full redundancy of the joined representation: every
  /// tuple is charged the complete d x d outer product, of which the
  /// kernel computes the upper triangle (EndPass mirrors it). Every
  /// accumulator chains from its slot value, so the scalar backend's
  /// row-replay kernels give the per-row update's bits. Each kernel call is charged the exact
  /// op-count stream of the rows it batches, so the counts are invariant
  /// across backends.
  void AddStrip(Slot& acc, const double* const* cols, size_t rows,
                const double* w, const double* wz) const;

  /// One fact tuple on the factorized path: its S slice `xs`, its foreign
  /// keys, weight w and weighted response wz.
  void AddFact(Slot& acc, const double* xs, const int64_t* keys, double w,
               double wz) const {
    // Per fact tuple: only the S-diagonal block and the per-rid masses.
    // The block's upper triangle takes AddOuter's (w * x_i) * x_j in place
    // (EndPass mirrors it over the lower one); a kernel call per triangle
    // row cost more than the products it saves at ds = 5. Charged as the
    // full AddOuter.
    const size_t lda = acc.gram.cols();
    for (size_t i = 0; i < ds_; ++i) {
      const double ui = w * xs[i];
      double* row = acc.gram.data() + i * lda;
      for (size_t j = i; j < ds_; ++j) row[j] += ui * xs[j];
    }
    CountMults(ds_ * ds_ + ds_);
    CountAdds(ds_ * ds_);
    la::Axpy(wz, xs, acc.cvec.data(), ds_);
    for (size_t i = 0; i < q_; ++i) {
      const auto rid = static_cast<size_t>(keys[rel_->FkKeyIndex(i)]);
      // Table-0 per-rid masses are span-relative; i>=1 keep full rids.
      const size_t arid = i == 0 ? rid - acc.base0 : rid;
      la::Axpy(w, xs, acc.wxsum[i].Row(arid).data(), ds_);
      acc.wsum[i][arid] += w;
      acc.wzsum[i][arid] += wz;
      CountAdds(2);
      // Attr-attr cross blocks (multi-way joins only) have no
      // single-table factorization; accumulate them per fact tuple like
      // F-GMM's covariance cross blocks.
      if (i + 1 < q_) {
        const auto xr_i = (*views_)[i].FeaturesOf(static_cast<int64_t>(rid));
        for (size_t j = i + 1; j < q_; ++j) {
          const auto xr_j = (*views_)[j].FeaturesOf(keys[rel_->FkKeyIndex(j)]);
          la::AddOuter(w, xr_i.data(), xr_i.size(), xr_j.data(),
                       xr_j.size(), &acc.gram, attr_offset_[i],
                       attr_offset_[j]);
        }
      }
    }
  }

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
  /// Attribute tables the strategy factors (0 under M/S: the dense feed).
  size_t factored_tables() const { return q_; }
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

/// The (l2, intercept) prefix both families' shard-job blobs start with.
void EncodeRidgeKnobs(double l2, bool intercept, net::ByteWriter* w);
/// Decodes that prefix; `family` names the blob in errors. The intercept
/// byte must be 0 or 1.
Status DecodeRidgeKnobs(const char* family, net::ByteReader* r, double* l2,
                        bool* intercept);

}  // namespace factorml::linreg

#endif  // FACTORML_LINREG_GRAM_COFACTOR_H_
