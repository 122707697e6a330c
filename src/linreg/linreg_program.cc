// Ridge linear regression as a core/pipeline ModelProgram: one "gram"
// full pass accumulates G = X^T X, c = X^T y and sum(y^2); the closed-form
// solve happens in EndIteration. The dense path (M/S) pays the full d x d
// outer product per joined tuple. The factorized path mirrors the paper's
// decompositions: per fact tuple it touches only the S slice (S-diagonal
// block, per-rid S-slice sums, per-rid match counts and target mass); the
// S x Ri cross blocks, the Ri-diagonal blocks and the Ri slices of c are
// deferred to one rank-1 update per *attribute* tuple — the classic
// cofactor factorization of linear models over joins.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/opcount.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "la/cholesky.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "linreg/linreg.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace factorml::linreg {

namespace {

using core::pipeline::DenseBlock;
using core::pipeline::FactorizedBlock;
using core::pipeline::PipelineContext;
using la::Matrix;

class LinregProgram final : public core::pipeline::ModelProgram {
 public:
  explicit LinregProgram(const LinregOptions& options) : opt_(options) {}

  const char* Name() const override { return "LINREG"; }
  const char* TempStem() const override { return "linreg"; }
  std::string ShardJobBlob() const override {
    return EncodeShardJob(opt_);
  }
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass | core::pipeline::kFactorized |
           core::pipeline::kNeedsTarget;
  }
  int MaxIterations() const override { return 1; }  // closed form
  const char* PassName(int) const override { return "gram"; }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    factorized_ = ctx.factorized();
    d_ = rel_->total_dims();
    ds_ = rel_->ds();
    q_ = rel_->num_joins();
    da_ = d_ + (opt_.intercept ? 1 : 0);
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);
    gram_.Resize(da_, da_);
    cvec_.assign(da_, 0.0);
    yy_ = 0.0;
    // Pre-sized so VisitIterationState is a pure function of Init-time
    // shapes (the checkpoint seam's contract).
    model_.w.assign(d_, 0.0);
    model_.bias = 0.0;
    sse_ = 0.0;
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int, int, int workers) override {
    views_ = ctx.views;
    acc_.resize(static_cast<size_t>(workers));
    if (factorized_) {
      // Rid-span contract: size each slot's table-0 per-rid masses to the
      // contiguous rid span that slot actually scans, not the full table.
      const auto n_r0 = static_cast<int64_t>((*ctx.views)[0].feats().rows());
      slot_spans_.resize(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        slot_spans_[static_cast<size_t>(w)] =
            core::pipeline::SlotRidSpan(ctx, w, n_r0);
      }
      // Merged per-rid masses stay full-domain; EndPass clears them, so
      // reallocate zeroed every pass (slot states offset-add into them).
      vsum_.resize(q_);
      count_.resize(q_);
      ysum_.resize(q_);
      for (size_t i = 0; i < q_; ++i) {
        const size_t n_ri = (*ctx.views)[i].feats().rows();
        vsum_[i].Resize(n_ri, ds_);
        count_[i].assign(n_ri, 0.0);
        ysum_[i].assign(n_ri, 0.0);
      }
    }
    for (size_t w = 0; w < acc_.size(); ++w) {
      Acc& acc = acc_[w];
      acc.gram.Resize(da_, da_);
      acc.cvec.assign(da_, 0.0);
      acc.yy = 0.0;
      if (factorized_) {
        acc.vsum.resize(q_);
        acc.count.resize(q_);
        acc.ysum.resize(q_);
        for (size_t i = 0; i < q_; ++i) {
          const size_t n_ri =
              i == 0 ? static_cast<size_t>(slot_spans_[w].size())
                     : (*ctx.views)[i].feats().rows();
          acc.vsum[i].Resize(n_ri, ds_);
          acc.count[i].assign(n_ri, 0.0);
          acc.ysum[i].assign(n_ri, 0.0);
        }
      }
    }
    return Status::OK();
  }

  void AccumulateDense(int, int worker, const DenseBlock& block) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    if (block.strips != nullptr) {
      AccumulateDenseStrips(worker, block);
      return;
    }
    for (size_t r = 0; r < block.num_rows; ++r) {
      const double* x = block.X(r);
      const double y = block.Y(r);
      // Full redundancy of the joined representation: every tuple pays
      // the complete d x d outer product.
      la::AddOuter(1.0, x, d_, x, d_, &acc.gram, 0, 0);
      la::Axpy(y, x, acc.cvec.data(), d_);
      if (opt_.intercept) {
        for (size_t j = 0; j < d_; ++j) acc.gram(j, d_) += x[j];
        acc.gram(d_, d_) += 1.0;
        acc.cvec[d_] += y;
        CountAdds(d_ + 2);
      }
      acc.yy += y * y;
      CountMults(1);
      CountAdds(1);
    }
  }

  /// Batched (--kernels=simd) twin of the dense row loop: whole column
  /// strips through the la/ batch kernels. Each kernel call is charged the
  /// exact op-count stream of the per-row loop it replaces, so the
  /// measured counts are invariant across backends; only the summation
  /// order inside each accumulator entry moves (tolerance contract).
  void AccumulateDenseStrips(int worker, const DenseBlock& block) {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.strips;
    const la::Kernels& kern = la::Active();
    std::vector<const double*> cols(d_);
    std::vector<double> colsum(opt_.intercept ? d_ : 0);
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      for (size_t j = 0; j < d_; ++j) cols[j] = block.StripX(s, j);
      const double* y = block.StripY(s);
      // G += X^T X — the per-row AddOuter(1, x, x) stream, batched.
      kern.syrk_strip(cols.data(), d_, rows, nullptr, acc.gram.data(),
                      acc.gram.cols());
      CountMults(rows * (d_ * d_ + d_));
      CountAdds(rows * d_ * d_);
      // c += X^T y — the per-row Axpy(y, x) stream.
      kern.colsum_strip(cols.data(), d_, rows, y, acc.cvec.data());
      CountMults(rows * d_);
      CountAdds(rows * d_);
      if (opt_.intercept) {
        std::fill(colsum.begin(), colsum.end(), 0.0);
        kern.colsum_strip(cols.data(), d_, rows, nullptr, colsum.data());
        for (size_t j = 0; j < d_; ++j) acc.gram(j, d_) += colsum[j];
        acc.gram(d_, d_) += static_cast<double>(rows);
        double ysum = 0.0;
        kern.colsum_strip(&y, 1, rows, nullptr, &ysum);
        acc.cvec[d_] += ysum;
        CountAdds(rows * (d_ + 2));
      }
      acc.yy += kern.dot(y, y, rows);
      CountMults(rows);
      CountAdds(rows);
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  void AccumulateFactorized(int, int worker,
                            const FactorizedBlock& block) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    const storage::RowBatch& s_rows = *block.s_rows;
    const size_t y_off = 1;  // kNeedsTarget: S feature column 0 is Y
    for (size_t r = 0; r < s_rows.num_rows; ++r) {
      const double* xs = s_rows.feats.Row(r).data() + y_off;
      const double y = s_rows.feats(r, 0);
      const int64_t* keys = s_rows.KeysOf(r);
      // Per fact tuple: only the S-diagonal block and per-rid masses.
      la::AddOuter(1.0, xs, ds_, xs, ds_, &acc.gram, 0, 0);
      la::Axpy(y, xs, acc.cvec.data(), ds_);
      const int64_t base0 = slot_spans_[static_cast<size_t>(worker)].begin;
      for (size_t i = 0; i < q_; ++i) {
        const auto rid = static_cast<size_t>(keys[rel_->FkKeyIndex(i)]);
        // Table-0 per-rid masses are span-relative; i>=1 keep full rids.
        const size_t arid =
            i == 0 ? rid - static_cast<size_t>(base0) : rid;
        la::Axpy(1.0, xs, acc.vsum[i].Row(arid).data(), ds_);
        acc.count[i][arid] += 1.0;
        acc.ysum[i][arid] += y;
        CountAdds(2);
        // Attr-attr cross blocks (multi-way joins only) have no
        // single-table factorization; accumulate them per fact tuple like
        // F-GMM's covariance cross blocks.
        if (i + 1 < q_) {
          const auto xr_i =
              (*views_)[i].FeaturesOf(static_cast<int64_t>(rid));
          for (size_t j = i + 1; j < q_; ++j) {
            const auto rid_j = keys[rel_->FkKeyIndex(j)];
            const auto xr_j = (*views_)[j].FeaturesOf(rid_j);
            la::AddOuter(1.0, xr_i.data(), xr_i.size(), xr_j.data(),
                         xr_j.size(), &acc.gram, attr_offset_[i],
                         attr_offset_[j]);
          }
        }
      }
      acc.yy += y * y;
      CountMults(1);
      CountAdds(1);
    }
  }

  void VisitSlotState(
      int, int slot,
      const std::function<void(double*, double*, size_t)>& visit) override {
    // One slot's Gram/cofactor state (and, on the factorized path, its
    // deferred per-rid masses).
    Acc& acc = acc_[static_cast<size_t>(slot)];
    visit(acc.gram.data(), gram_.data(), acc.gram.rows() * acc.gram.cols());
    visit(acc.cvec.data(), cvec_.data(), acc.cvec.size());
    visit(&acc.yy, &yy_, 1);
    if (factorized_) {
      // Table 0 is span-scoped per slot: it lands at the slot's span base
      // of the full-domain merged masses. Tables i>=1 are full-domain.
      const auto off0 =
          static_cast<size_t>(slot_spans_[static_cast<size_t>(slot)].begin);
      for (size_t i = 0; i < q_; ++i) {
        const size_t off = i == 0 ? off0 : 0;
        visit(acc.vsum[i].data(), vsum_[i].data() + off * ds_,
              acc.vsum[i].rows() * acc.vsum[i].cols());
        visit(acc.count[i].data(), count_[i].data() + off, acc.count[i].size());
        visit(acc.ysum[i].data(), ysum_[i].data() + off, acc.ysum[i].size());
      }
    }
  }

  Status EndPass(const PipelineContext& ctx, int, int) override {
    if (factorized_) {
      // Deferred blocks: one rank-1 update per attribute tuple instead of
      // per fact tuple (the I/O and FLOP saving of the factorization).
      for (size_t i = 0; i < q_; ++i) {
        const Matrix& feats = (*ctx.views)[i].feats();
        const size_t dri = feats.cols();
        const size_t off = attr_offset_[i];
        for (size_t rid = 0; rid < feats.rows(); ++rid) {
          const double cnt = count_[i][rid];
          if (cnt == 0.0) continue;
          const double* xr = feats.Row(rid).data();
          // S x Ri cross block from the per-rid S-slice sums.
          la::AddOuter(1.0, vsum_[i].Row(rid).data(), ds_, xr, dri, &gram_,
                       0, off);
          // Ri-diagonal block, weighted by the match count.
          la::AddOuter(cnt, xr, dri, xr, dri, &gram_, off, off);
          // Ri slice of the cofactor vector from the per-rid target mass.
          la::Axpy(ysum_[i][rid], xr, cvec_.data() + off, dri);
          if (opt_.intercept) {
            for (size_t j = 0; j < dri; ++j) {
              gram_(off + j, da_ - 1) += cnt * xr[j];
            }
            CountMults(dri);
            CountAdds(dri);
          }
        }
      }
      if (opt_.intercept) {
        // Intercept column, S part and total count, recovered from the
        // table-0 per-rid masses (no extra per-fact-tuple work).
        for (size_t rid = 0; rid < count_[0].size(); ++rid) {
          const double* vs = vsum_[0].Row(rid).data();
          for (size_t j = 0; j < ds_; ++j) gram_(j, da_ - 1) += vs[j];
          gram_(da_ - 1, da_ - 1) += count_[0][rid];
          cvec_[da_ - 1] += ysum_[0][rid];
          CountAdds(ds_ + 2);
        }
      }
      vsum_.clear();
      count_.clear();
      ysum_.clear();
    }
    // The Gram matrix is symmetric; cross blocks were accumulated
    // one-sided (upper), so mirror once per run — exact, like F-GMM's
    // covariance mirroring.
    for (size_t r = 0; r < da_; ++r) {
      for (size_t c = r + 1; c < da_; ++c) gram_(c, r) = gram_(r, c);
    }
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext& ctx, int) override {
    // The closed-form Cholesky solve, reported as its own phase next to
    // the "gram" pass time.
    core::PhaseScope phase(ctx.report, "solve");
    Matrix a = gram_;
    for (size_t j = 0; j < d_; ++j) a(j, j) += opt_.l2;  // bias unpenalized
    la::Cholesky chol;
    FML_RETURN_IF_ERROR(chol.FactorWithJitter(a));
    std::vector<double> w_full(da_);
    chol.Solve(cvec_.data(), w_full.data());
    model_.w.assign(w_full.begin(), w_full.begin() + static_cast<long>(d_));
    model_.bias = opt_.intercept ? w_full[da_ - 1] : 0.0;
    // SSE = w^T G w - 2 w^T c + sum(y^2), no further data pass needed.
    const double wgw = la::QuadForm(gram_, w_full.data(), da_);
    const double wc = la::Dot(w_full.data(), cvec_.data(), da_);
    sse_ = wgw - 2.0 * wc + yy_;
    CountMults(1);
    CountSubs(2);
    return true;
  }

  double Objective() const override {
    return sse_ / (2.0 * static_cast<double>(n_));  // half-MSE, as NN
  }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    visit(model_.w.data(), model_.w.size());
    visit(&model_.bias, 1);
    visit(&sse_, 1);
  }

  LinregModel&& TakeModel() && { return std::move(model_); }

 private:
  struct Acc {
    Matrix gram;                // da x da (upper cross blocks only)
    std::vector<double> cvec;   // da
    double yy = 0.0;
    std::vector<Matrix> vsum;               // [i]: nRi x ds S-slice sums
    std::vector<std::vector<double>> count; // [i][rid] match count
    std::vector<std::vector<double>> ysum;  // [i][rid] target mass
  };

  LinregOptions opt_;
  const join::NormalizedRelations* rel_ = nullptr;
  const std::vector<join::AttributeTableView>* views_ = nullptr;
  bool factorized_ = false;
  size_t d_ = 0, ds_ = 0, q_ = 0, da_ = 0;
  int64_t n_ = 0;
  std::vector<size_t> attr_offset_;

  Matrix gram_;
  std::vector<double> cvec_;
  double yy_ = 0.0;
  std::vector<Matrix> vsum_;
  std::vector<std::vector<double>> count_;
  std::vector<std::vector<double>> ysum_;
  std::vector<Acc> acc_;
  std::vector<exec::Range> slot_spans_;  // table-0 rid span per slot

  LinregModel model_;
  double sse_ = 0.0;
};

}  // namespace

double LinregModel::Predict(const double* x) const {
  return la::Dot(x, w.data(), w.size()) + bias;
}

double LinregModel::MaxAbsDiff(const LinregModel& a, const LinregModel& b) {
  FML_CHECK_EQ(a.w.size(), b.w.size());
  double m = std::fabs(a.bias - b.bias);
  for (size_t j = 0; j < a.w.size(); ++j) {
    m = std::max(m, std::fabs(a.w[j] - b.w[j]));
  }
  return m;
}

Result<LinregModel> TrainLinreg(const join::NormalizedRelations& rel,
                                const LinregOptions& options,
                                core::Algorithm algorithm,
                                storage::BufferPool* pool,
                                core::TrainReport* report) {
  LinregProgram program(options);
  FML_RETURN_IF_ERROR(core::pipeline::RunTraining(rel, algorithm, options,
                                                  &program, pool, report));
  return std::move(program).TakeModel();
}

std::string EncodeShardJob(const LinregOptions& options) {
  net::ByteWriter w;
  w.F64(options.l2);
  w.U8(options.intercept ? 1 : 0);
  return w.Take();
}

Result<LinregOptions> DecodeShardJob(const std::string& blob) {
  LinregOptions options;
  net::ByteReader r(blob);
  uint8_t intercept = 0;
  FML_RETURN_IF_ERROR(r.F64(&options.l2));
  FML_RETURN_IF_ERROR(r.U8(&intercept));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("linreg shard job: trailing bytes");
  }
  options.intercept = intercept != 0;
  return options;
}

std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const LinregOptions& options) {
  return std::make_unique<LinregProgram>(options);
}

}  // namespace factorml::linreg
