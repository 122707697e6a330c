#include "linreg/gram_cofactor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/opcount.h"
#include "la/cholesky.h"
#include "la/kernels.h"
#include "la/ops.h"

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

void GramCofactor::AddStrip(Slot& acc, const core::pipeline::Block& block,
                            size_t strip, const double* w,
                            const double* wz) const {
  const la::Kernels& kern = la::Active();
  const storage::ColumnStrips& st = *block.strips;
  const size_t rows = st.RowsInStrip(strip);
  const size_t row0 = st.StripStart(strip);
  // Scratch per thread (Accumulate's slot is the chunk, and one thread runs
  // many chunk slots): the strip's and a run's columns, then the intercept
  // chains or the gathered table rows.
  thread_local std::vector<const double*> cols;
  thread_local std::vector<double> buf;
  cols.resize(2 * ds_);
  for (size_t j = 0; j < ds_; ++j) cols[j] = st.Col(strip, 1 + j);  // after Y
  // The S-diagonal block += X^T W X — the per-row AddOuter(w, x, x)
  // stream, batched and charged in full, though only the upper triangle is
  // computed: EndPass mirrors it over the lower one.
  kern.syrk_strip(cols.data(), ds_, rows, w, acc.gram.data(),
                  acc.gram.cols(), /*upper=*/true);
  CountMults(rows * (ds_ * ds_ + ds_));
  CountAdds(rows * ds_ * ds_);
  // b's slice += X^T (W z) — the per-row Axpy(wz, x) stream.
  kern.colsum_strip(cols.data(), ds_, rows, wz, acc.cvec.data());
  CountMults(rows * ds_);
  CountAdds(rows * ds_);
  // sum w*x, sum w and sum w*z over rows [lo, lo + n) into `wx`, `ws` and
  // `wzs`, each chaining from its slot value in row order like the per-row
  // Axpy and adds (unit weights sum to the exact row count).
  const auto add_sums = [&](size_t lo, size_t n, double* wx, double* ws,
                            double* wzs) {
    for (size_t j = 0; j < ds_; ++j) cols[ds_ + j] = cols[j] + lo;
    const double* wl = w != nullptr ? w + lo : nullptr;
    const double* wzl = wz + lo;
    kern.colsum_strip(&cols[ds_], ds_, n, wl, wx);
    if (wl != nullptr) {
      kern.colsum_strip(&wl, 1, n, nullptr, ws);
    } else {
      *ws += static_cast<double>(n);
    }
    kern.colsum_strip(&wzl, 1, n, nullptr, wzs);
  };
  if (q_ == 0) {
    if (!intercept_) return;
    // The intercept column (strided in the Gram) chains through a
    // contiguous copy seeded with its slot values.
    buf.resize(d_);
    for (size_t j = 0; j < d_; ++j) buf[j] = acc.gram(j, d_);
    add_sums(0, rows, buf.data(), &acc.gram(d_, d_), &acc.cvec[d_]);
    for (size_t j = 0; j < d_; ++j) acc.gram(j, d_) = buf[j];
    if (w != nullptr) CountMults(rows * (d_ + 1));
    CountAdds(rows * (d_ + 2));
    return;
  }
  // Table 0 per FK1 run of the block (the groups are in row order), split
  // at the strip's edges: the run shares one (span-relative) rid.
  const auto first = std::partition_point(
      block.groups.begin(), block.groups.end(),
      [&](const join::JoinGroup& g) { return g.offset + g.count <= row0; });
  for (auto g = first; g != block.groups.end() && g->offset < row0 + rows;
       ++g) {
    const size_t lo = std::max(g->offset, row0) - row0;
    const size_t n = std::min(g->offset + g->count, row0 + rows) - row0 - lo;
    const size_t rid = static_cast<size_t>(g->rid) - acc.base0;
    if (n == 0) continue;  // an empty group
    add_sums(lo, n, acc.wxsum[0].Row(rid).data(), &acc.wsum[0][rid],
             &acc.wzsum[0][rid]);
  }
  CountMults(rows * q_ * ds_);  // each table's Axpy(w, xs)
  CountAdds(rows * q_ * (ds_ + 2));
  if (q_ == 1) return;
  // Tables >= 1 have unordered rids: their masses stay a per-row scatter.
  // The attr x attr cross blocks take AddOuter(w, xr_i, xr_j) per fact
  // tuple: each table's rows are gathered column-major, plain (xr) and
  // times w as AddOuter scales its left operand (wxr; with unit weights
  // 1 * x = x, so xr serves), for one dot-form gemm_strip per table pair.
  const storage::RowBatch& s_rows = *block.s_rows;
  const size_t dr = d_ - ds_;
  // Columns one cache line apart beyond the strip height: at a
  // power-of-two stride every gathered column's writes share a few L1 sets.
  const size_t ld = rows + 8;
  buf.resize((w != nullptr ? 2 : 1) * dr * ld);
  double* xr = buf.data();
  double* wxr = w != nullptr ? xr + dr * ld : xr;  // unit weights: xr
  for (size_t r = 0; r < rows; ++r) {
    const int64_t* keys = s_rows.KeysOf(row0 + r);
    const double wr = w != nullptr ? w[r] : 1.0;
    for (size_t i = 0; i < q_; ++i) {
      const auto rid = static_cast<size_t>(keys[rel_->FkKeyIndex(i)]);
      if (i > 0) {
        kern.axpy(wr, s_rows.feats.Row(row0 + r).data() + 1,
                  acc.wxsum[i].Row(rid).data(), ds_);
        acc.wsum[i][rid] += wr;
        acc.wzsum[i][rid] += wz[r];
      }
      const auto x = (*views_)[i].feats().Row(rid);
      const size_t at = (attr_offset_[i] - ds_) * ld + r;
      for (size_t a = 0; a < x.size(); ++a) {
        xr[at + a * ld] = x[a];
        if (w != nullptr) wxr[at + a * ld] = wr * x[a];
      }
    }
  }
  for (size_t i = 0; i + 1 < q_; ++i) {
    for (size_t j = i + 1; j < q_; ++j) {
      const size_t dri = rel_->dr(i), drj = rel_->dr(j);
      kern.gemm_strip(wxr + (attr_offset_[i] - ds_) * ld, ld,
                      xr + (attr_offset_[j] - ds_) * ld, ld, dri, drj, rows,
                      &acc.gram(attr_offset_[i], attr_offset_[j]), da_,
                      /*trans_b=*/true, /*accumulate=*/true);
      CountMults(rows * (dri * drj + dri));
      CountAdds(rows * dri * drj);
    }
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
        // Ri-diagonal block, weighted by the per-rid mass: AddOuter's
        // (sw * x_i) * x_j on the upper triangle only, in place (the
        // mirror below fills the lower one). Charged as the full AddOuter.
        for (size_t a = 0; a < dri; ++a) {
          for (size_t b = a; b < dri; ++b) {
            gram(off + a, off + b) += (sw * xr[a]) * xr[b];
          }
        }
        CountMults(dri * dri + dri);
        CountAdds(dri * dri);
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

}  // namespace factorml::linreg
