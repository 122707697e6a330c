// Logistic regression as a core/pipeline ModelProgram: IRLS over the
// factorized Gram. Every iteration is one "irls" full pass accumulating
// the weighted normal equations A = X^T W X, b = X^T W z with
// W = diag(s_i), s_i = p_i (1 - p_i), z_i = eta_i + (y_i - p_i) / s_i —
// linreg's GramCofactor pass fed per-tuple weight s_i and response s_i z_i
// (so the factorized path defers the same per-attribute-tuple blocks,
// weighted). This program adds only the response: eta = beta . x + bias
// is itself factorized — per-rid dot products beta_Ri . xr are computed
// once per R tuple per pass (BeginPass), so a fact tuple costs O(dS + q)
// instead of O(d) — plus the reweighting, the NLL and the IRLS update.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/opcount.h"
#include "core/trainer.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "linreg/gram_cofactor.h"
#include "logreg/logreg.h"
#include "obs/metrics.h"

namespace factorml::logreg {

namespace {

using core::pipeline::Block;
using core::pipeline::PipelineContext;
using linreg::GramCofactor;

constexpr double kProbClamp = 1e-12;   // keeps log() finite
constexpr double kWeightFloor = 1e-10; // keeps z = eta + (y-p)/s finite

class LogregProgram final : public core::pipeline::ModelProgram {
 public:
  explicit LogregProgram(const LogregOptions& options)
      : opt_(options), normal_(options.l2, options.intercept) {}

  const char* Name() const override { return "LOGREG"; }
  const char* TempStem() const override { return "logreg"; }
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass | core::pipeline::kNeedsTarget;
  }
  Status ValidateOptions(const join::NormalizedRelations&) const override {
    if (opt_.max_iters < 1) {
      return Status::InvalidArgument("logreg: max_iters must be >= 1");
    }
    return normal_.Validate("logreg");
  }
  int MaxIterations() const override { return opt_.max_iters; }
  const char* PassName(int) const override { return "irls"; }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    normal_.Init(ctx);
    n_ = rel_->s.num_rows();
    // p = 0.5 everywhere: the canonical IRLS start.
    beta_.assign(normal_.da(), 0.0);
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int, int, int workers) override {
    normal_.BeginPass(ctx, workers);
    // eta's factored-table parts, once per R tuple per pass: the same
    // per-attribute-tuple reuse the Gram deferral exploits.
    rid_dot_.resize(ctx.factored_tables);
    for (size_t i = 0; i < ctx.factored_tables; ++i) {
      const la::Matrix& feats = (*ctx.views)[i].feats();
      const size_t n_ri = feats.rows();
      const size_t dri = feats.cols();
      const double* beta_ri = beta_.data() + rel_->FeatureOffset(i + 1);
      rid_dot_[i].resize(n_ri);
      for (size_t rid = 0; rid < n_ri; ++rid) {
        rid_dot_[i][rid] = la::Dot(feats.Row(rid).data(), beta_ri, dri);
      }
    }
    return Status::OK();
  }

  /// The IRLS pass over the block's strips: the linear response and the
  /// weighted normal equations go through the la/ batch kernels, each
  /// charged the exact op counts of the per-row loop it batches. Under F
  /// the response adds each factored table's cached rid dot after the S
  /// slice's. Reweight stays per-row so the exp/log stream (and its op
  /// charges) is the same on every backend.
  void Accumulate(int, int worker, const Block& block) override {
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const la::Kernels& kern = la::Active();
    GramCofactor::Slot& acc = normal_.slot(worker);
    const storage::ColumnStrips& st = *block.strips;
    const size_t d = st.num_cols - 1;  // the slice after Y
    const size_t q = rid_dot_.size();
    const double bias = Bias();
    std::vector<const double*> cols(d);
    std::vector<double> eta(st.strip_rows);
    std::vector<double> sw(st.strip_rows);
    std::vector<double> sz(st.strip_rows);
    std::vector<int64_t> rids(st.strip_rows);
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      for (size_t j = 0; j < d; ++j) cols[j] = st.Col(s, 1 + j);
      const double* y = st.Col(s, 0);  // kNeedsTarget: column 0 is Y
      // eta = X beta + bias — the per-row Dot stream, batched — then, in
      // table order, each factored table's beta_Ri . xr from the per-rid
      // cache (one add per join).
      kern.col_dot_strip(cols.data(), d, rows, beta_.data(), eta.data());
      CountMults(rows * d);
      CountAdds(rows * d);
      for (size_t r = 0; r < rows; ++r) eta[r] += bias;
      for (size_t i = 0; i < q; ++i) {
        const size_t key = rel_->FkKeyIndex(i);
        for (size_t r = 0; r < rows; ++r) {
          rids[r] = block.s_rows->KeysOf(st.StripStart(s) + r)[key];
        }
        kern.gather_add_rows_strip(rid_dot_[i].data(), 1, rids.data(), rows,
                                   1, eta.data(), 1);
      }
      CountAdds(rows * q);
      for (size_t r = 0; r < rows; ++r) {
        const auto [w, z] = Reweight(eta[r], y[r], &acc.scalar);
        sw[r] = w;
        sz[r] = w * z;
      }
      CountMults(rows);  // the per-row s * z products
      normal_.AddStrip(acc, block, s, sw.data(), sz.data());
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  void VisitSlotState(
      int, int slot,
      const std::function<void(double*, double*, size_t)>& visit) override {
    normal_.VisitSlot(slot, visit);
  }

  Status EndPass(const PipelineContext& ctx, int, int) override {
    normal_.EndPass(ctx);
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext& ctx, int) override {
    // The per-iteration weighted-normal-equations solve, reported as its
    // own phase next to the "irls" pass time.
    core::PhaseScope phase(ctx.report, "solve");
    FML_ASSIGN_OR_RETURN(std::vector<double> beta_new, normal_.Solve());
    double delta = 0.0;
    for (size_t j = 0; j < beta_.size(); ++j) {
      delta = std::max(delta, std::fabs(beta_new[j] - beta_[j]));
    }
    CountSubs(beta_.size());
    beta_ = std::move(beta_new);
    objective_ = normal_.scalar() / static_cast<double>(n_);
    return opt_.tol > 0.0 && delta < opt_.tol;
  }

  /// Mean negative log-likelihood under the parameters of the last
  /// completed IRLS pass (the solve that follows moves beta once more —
  /// like GMM's log-likelihood, which is one E-step behind the final
  /// M-step).
  double Objective() const override { return objective_; }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    visit(beta_.data(), beta_.size());
    visit(&objective_, 1);
  }

  LogregModel&& TakeModel() && {
    const size_t d = normal_.d();
    model_.w.assign(beta_.begin(), beta_.begin() + static_cast<long>(d));
    model_.bias = opt_.intercept ? beta_[d] : 0.0;
    return std::move(model_);
  }

 private:
  double Bias() const { return opt_.intercept ? beta_[normal_.d()] : 0.0; }

  /// IRLS per-tuple quantities from the linear response: weight
  /// s = p(1-p) (floored) and working response z; accrues the tuple's
  /// negative log-likelihood into *nll.
  std::pair<double, double> Reweight(double eta, double y, double* nll) const {
    const double p_raw = 1.0 / (1.0 + std::exp(-eta));
    CountExps(1);
    const double p = std::clamp(p_raw, kProbClamp, 1.0 - kProbClamp);
    const double s = std::max(p * (1.0 - p), kWeightFloor);
    const double z = eta + (y - p) / s;
    *nll -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
    CountMults(4);
    CountAdds(3);
    CountSubs(3);
    return {s, z};
  }

  LogregOptions opt_;
  GramCofactor normal_;  // scalar: the pass's negative log-likelihood
  const join::NormalizedRelations* rel_ = nullptr;
  int64_t n_ = 0;

  std::vector<double> beta_;  // da (bias last when intercept)
  double objective_ = 0.0;
  std::vector<std::vector<double>> rid_dot_;  // [i][rid] beta_Ri . xr

  LogregModel model_;
};

}  // namespace

double LogregModel::PredictProb(const double* x) const {
  return 1.0 / (1.0 + std::exp(-(la::Dot(x, w.data(), w.size()) + bias)));
}

double LogregModel::MaxAbsDiff(const LogregModel& a, const LogregModel& b) {
  FML_CHECK_EQ(a.w.size(), b.w.size());
  double m = std::fabs(a.bias - b.bias);
  for (size_t j = 0; j < a.w.size(); ++j) {
    m = std::max(m, std::fabs(a.w[j] - b.w[j]));
  }
  return m;
}

}  // namespace factorml::logreg

namespace factorml::core {

Result<logreg::LogregModel> TrainLogreg(const join::NormalizedRelations& rel,
                                        const logreg::LogregOptions& options,
                                        Algorithm algorithm,
                                        storage::BufferPool* pool,
                                        TrainReport* report) {
  logreg::LogregProgram program(options);
  FML_RETURN_IF_ERROR(
      pipeline::RunTraining(rel, algorithm, options, &program, pool, report));
  return std::move(program).TakeModel();
}

}  // namespace factorml::core
