#include "linreg/gram_cofactor.h"

#include <cmath>
#include <string>

#include "la/cholesky.h"
#include "la/kernels.h"

namespace factorml::linreg {

Status GramCofactor::Validate(const char* family) const {
  if (!std::isfinite(l2_) || l2_ < 0.0) {
    return Status::InvalidArgument(std::string(family) +
                                   ": l2 must be finite and >= 0 (got " +
                                   std::to_string(l2_) + ")");
  }
  return Status::OK();
}

void GramCofactor::Init(const core::pipeline::PipelineContext& ctx) {
  rel_ = ctx.rel;
  d_ = rel_->total_dims();
  ds_ = ctx.slice_cols;
  q_ = ctx.factored_tables;
  da_ = d_ + (intercept_ ? 1 : 0);
  attr_offset_.resize(q_);
  for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);
}

void GramCofactor::BeginPass(const core::pipeline::PipelineContext& ctx,
                             int workers) {
  views_ = ctx.views;
  const auto n_r0 =
      q_ > 0 ? static_cast<int64_t>((*ctx.views)[0].feats().rows()) : 0;
  // The merged per-rid masses stay full-domain; EndPass clears them, so
  // they are reallocated zeroed every pass (slots offset-add into them).
  Reset(ctx, static_cast<size_t>(n_r0), &merged_);
  slots_.assign(static_cast<size_t>(workers), Slot{});
  for (int w = 0; w < workers; ++w) {
    // Rid-span contract: size each slot's table-0 per-rid masses to the
    // contiguous rid span that slot actually scans, not the full table.
    const exec::Range span = core::pipeline::SlotRidSpan(ctx, w, n_r0);
    slot(w).base0 = static_cast<size_t>(span.begin);
    Reset(ctx, static_cast<size_t>(span.size()), &slot(w));
  }
}

void GramCofactor::Reset(const core::pipeline::PipelineContext& ctx,
                         size_t n_r0, Slot* acc) const {
  acc->gram.Resize(da_, da_);  // Resize zero-fills
  acc->cvec.assign(da_, 0.0);
  acc->scalar = 0.0;
  acc->wxsum.resize(q_);
  acc->wsum.resize(q_);
  acc->wzsum.resize(q_);
  for (size_t i = 0; i < q_; ++i) {
    const size_t n_ri = i == 0 ? n_r0 : (*ctx.views)[i].feats().rows();
    acc->wxsum[i].Resize(n_ri, ds_);
    acc->wsum[i].assign(n_ri, 0.0);
    acc->wzsum[i].assign(n_ri, 0.0);
  }
}

void GramCofactor::AddStrip(Slot& acc, const double* const* cols,
                            size_t rows, const double* w,
                            const double* wz) const {
  const la::Kernels& kern = la::Active();
  // A += X^T W X — the per-row AddOuter(w, x, x) stream, batched and
  // charged in full, though only the upper triangle is computed: EndPass
  // mirrors it over the lower one.
  kern.syrk_strip(cols, d_, rows, w, acc.gram.data(), acc.gram.cols(),
                  /*upper=*/true);
  CountMults(rows * (d_ * d_ + d_));
  CountAdds(rows * d_ * d_);
  // b += X^T (W z) — the per-row Axpy(wz, x) stream.
  kern.colsum_strip(cols, d_, rows, wz, acc.cvec.data());
  CountMults(rows * d_);
  CountAdds(rows * d_);
  if (intercept_) {
    // The intercept column (strided in the Gram) chains through a
    // contiguous copy seeded with its slot values.
    std::vector<double> icol(d_);
    for (size_t j = 0; j < d_; ++j) icol[j] = acc.gram(j, d_);
    kern.colsum_strip(cols, d_, rows, w, icol.data());
    for (size_t j = 0; j < d_; ++j) acc.gram(j, d_) = icol[j];
    if (w != nullptr) {
      kern.colsum_strip(&w, 1, rows, nullptr, &acc.gram(d_, d_));
      CountMults(rows * (d_ + 1));
    } else {
      acc.gram(d_, d_) += static_cast<double>(rows);  // exact: a row count
    }
    kern.colsum_strip(&wz, 1, rows, nullptr, &acc.cvec[d_]);
    CountAdds(rows * (d_ + 2));
  }
}

void GramCofactor::VisitSlot(
    int slot, const std::function<void(double*, double*, size_t)>& visit) {
  Slot& acc = slots_[static_cast<size_t>(slot)];
  Slot& m = merged_;
  visit(acc.gram.data(), m.gram.data(), acc.gram.rows() * acc.gram.cols());
  visit(acc.cvec.data(), m.cvec.data(), acc.cvec.size());
  visit(&acc.scalar, &m.scalar, 1);
  // Table 0 is span-scoped per slot: it lands at the slot's span base of
  // the full-domain merged masses. Tables i>=1 are full-domain.
  for (size_t i = 0; i < q_; ++i) {
    const size_t off = i == 0 ? acc.base0 : 0;
    visit(acc.wxsum[i].data(), m.wxsum[i].data() + off * ds_,
          acc.wxsum[i].rows() * acc.wxsum[i].cols());
    visit(acc.wsum[i].data(), m.wsum[i].data() + off, acc.wsum[i].size());
    visit(acc.wzsum[i].data(), m.wzsum[i].data() + off, acc.wzsum[i].size());
  }
}

void GramCofactor::EndPass(const core::pipeline::PipelineContext& ctx) {
  la::Matrix& gram = merged_.gram;
  std::vector<double>& cvec = merged_.cvec;
  if (q_ > 0) {
    const std::vector<la::Matrix>& wxsum = merged_.wxsum;
    const std::vector<std::vector<double>>& wsum = merged_.wsum;
    const std::vector<std::vector<double>>& wzsum = merged_.wzsum;
    // Deferred blocks: one rank-1 update per attribute tuple instead of
    // per fact tuple (the I/O and FLOP saving of the factorization).
    for (size_t i = 0; i < q_; ++i) {
      const la::Matrix& feats = (*ctx.views)[i].feats();
      const size_t dri = feats.cols();
      const size_t off = attr_offset_[i];
      for (size_t rid = 0; rid < feats.rows(); ++rid) {
        const double sw = wsum[i][rid];
        if (sw == 0.0) continue;
        const double* xr = feats.Row(rid).data();
        // S x Ri cross block from the weighted per-rid S-slice sums.
        la::AddOuter(1.0, wxsum[i].Row(rid).data(), ds_, xr, dri, &gram, 0,
                     off);
        // Ri-diagonal block, weighted by the per-rid mass.
        la::AddOuter(sw, xr, dri, xr, dri, &gram, off, off);
        // Ri slice of b from the per-rid response mass.
        la::Axpy(wzsum[i][rid], xr, cvec.data() + off, dri);
        if (intercept_) {
          for (size_t j = 0; j < dri; ++j) gram(off + j, da_ - 1) += sw * xr[j];
          CountMults(dri);
          CountAdds(dri);
        }
      }
    }
    if (intercept_) {
      // Intercept column, S part and total weight, recovered from the
      // table-0 per-rid masses (no extra per-fact-tuple work).
      for (size_t rid = 0; rid < wsum[0].size(); ++rid) {
        const double* ws = wxsum[0].Row(rid).data();
        for (size_t j = 0; j < ds_; ++j) gram(j, da_ - 1) += ws[j];
        gram(da_ - 1, da_ - 1) += wsum[0][rid];
        cvec[da_ - 1] += wzsum[0][rid];
        CountAdds(ds_ + 2);
      }
    }
    merged_.wxsum.clear();
    merged_.wsum.clear();
    merged_.wzsum.clear();
  }
  // The Gram matrix is symmetric; cross blocks were accumulated one-sided
  // (upper), so mirror once per pass — exact, like F-GMM's covariance
  // mirroring.
  for (size_t r = 0; r < da_; ++r) {
    for (size_t c = r + 1; c < da_; ++c) gram(c, r) = gram(r, c);
  }
}

Result<std::vector<double>> GramCofactor::Solve() const {
  la::Matrix a = merged_.gram;
  for (size_t j = 0; j < d_; ++j) a(j, j) += l2_;  // bias unpenalized
  la::Cholesky chol;
  FML_RETURN_IF_ERROR(chol.FactorWithJitter(a));
  std::vector<double> x(da_);
  chol.Solve(merged_.cvec.data(), x.data());
  return x;
}

void EncodeRidgeKnobs(double l2, bool intercept, net::ByteWriter* w) {
  w->F64(l2);
  w->U8(intercept ? 1 : 0);
}

Status DecodeRidgeKnobs(const char* family, net::ByteReader* r, double* l2,
                        bool* intercept) {
  uint8_t byte = 0;
  FML_RETURN_IF_ERROR(r->F64(l2));
  FML_RETURN_IF_ERROR(r->U8(&byte));
  if (byte > 1) {
    return Status::InvalidArgument(std::string(family) +
                                   " shard job: intercept byte " +
                                   std::to_string(byte) + " out of range");
  }
  *intercept = byte == 1;
  return Status::OK();
}

}  // namespace factorml::linreg
