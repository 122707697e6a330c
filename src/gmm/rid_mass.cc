#include "gmm/rid_mass.h"

#include <algorithm>

#include "common/opcount.h"
#include "la/ops.h"

namespace factorml::gmm {

void RidMass::BeginPass(const core::pipeline::PipelineContext& ctx, size_t k,
                        int workers) {
  const size_t q = ctx.factored_tables;
  const auto n_ri = [&](size_t i) { return (*ctx.views)[i].feats().rows(); };
  merged_.resize(q);
  for (size_t i = 0; i < q; ++i) merged_[i].Resize(k, n_ri(i));
  const auto n_r0 = q > 0 ? static_cast<int64_t>(n_ri(0)) : 0;
  slots_.resize(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    // Slot w only ever sees table-0 rids inside its morsel range, so its
    // table-0 mass covers that span: O(n_R0) across all slots instead of
    // O(slots x n_R0). Further tables' rids are unordered within a chunk.
    Slot& s = slots_[static_cast<size_t>(w)];
    const exec::Range span = core::pipeline::SlotRidSpan(ctx, w, n_r0);
    s.base0 = span.begin;
    s.mass.resize(q);
    for (size_t i = 0; i < q; ++i) {
      s.mass[i].Resize(k, i == 0 ? static_cast<size_t>(span.size()) : n_ri(i));
    }
  }
}

void RidMass::VisitSlot(
    int slot, const std::function<void(double*, double*, size_t)>& visit) {
  Slot& s = slots_[static_cast<size_t>(slot)];
  if (s.mass.empty()) return;  // no factored table
  // Table 0 is a k x span block of the k x n_R0 merged matrix, so it goes
  // row by row (row-major: the same double stream as one whole block).
  la::Matrix& m0 = s.mass[0];
  for (size_t c = 0; c < m0.rows(); ++c) {
    visit(m0.Row(c).data(),
          merged_[0].Row(c).data() + static_cast<size_t>(s.base0), m0.cols());
  }
  for (size_t i = 1; i < s.mass.size(); ++i) {
    visit(s.mass[i].data(), merged_[i].data(), s.mass[i].size());
  }
}

void RidMass::MeanSlices(const core::pipeline::PipelineContext& ctx,
                         size_t c, double inv_n, double* mu_row) const {
  for (size_t i = 0; i < merged_.size(); ++i) {
    const la::Matrix& feats = (*ctx.views)[i].feats();
    const size_t dri = feats.cols();
    double* slice = mu_row + ctx.rel->FeatureOffset(i + 1);
    std::fill(slice, slice + dri, 0.0);
    for (size_t rid = 0; rid < feats.rows(); ++rid) {
      const double g = merged_[i](c, rid);
      if (skip_zero_mass_ && g == 0.0) continue;
      la::Axpy(g, feats.Row(rid).data(), slice, dri);
    }
    for (size_t j = 0; j < dri; ++j) slice[j] *= inv_n;
    CountMults(dri);
  }
}

}  // namespace factorml::gmm
