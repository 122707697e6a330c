// Ridge linear regression as a core/pipeline ModelProgram: one "gram"
// full pass accumulates G = X^T X, c = X^T y (GramCofactor with unit
// weights) and sum(y^2); the closed-form solve happens in EndIteration.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/opcount.h"
#include "core/trainer.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "linreg/gram_cofactor.h"
#include "linreg/linreg.h"
#include "obs/metrics.h"

namespace factorml::linreg {

namespace {

using core::pipeline::Block;
using core::pipeline::PipelineContext;

class LinregProgram final : public core::pipeline::ModelProgram {
 public:
  explicit LinregProgram(const LinregOptions& options)
      : opt_(options), normal_(options.l2, options.intercept) {}

  const char* Name() const override { return "LINREG"; }
  const char* TempStem() const override { return "linreg"; }
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass | core::pipeline::kNeedsTarget;
  }
  Status ValidateOptions(const join::NormalizedRelations&) const override {
    return normal_.Validate("linreg");
  }
  int MaxIterations() const override { return 1; }  // closed form
  const char* PassName(int) const override { return "gram"; }

  Status Init(const PipelineContext& ctx) override {
    normal_.Init(ctx);
    n_ = ctx.rel->s.num_rows();
    // Pre-sized so VisitIterationState is a pure function of Init-time
    // shapes (the checkpoint seam's contract).
    model_.w.assign(normal_.d(), 0.0);
    model_.bias = 0.0;
    sse_ = 0.0;
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int, int, int workers) override {
    normal_.BeginPass(ctx, workers);
    return Status::OK();
  }

  /// The gram pass: every strip of the block through GramCofactor's one
  /// feed (whatever the strategy factors), plus sum(y^2), chained into the
  /// slot's scalar in row order (a 1 x 1 dot-form gemm_strip), each
  /// charged the row loop's exact op counts.
  void Accumulate(int, int worker, const Block& block) override {
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    GramCofactor::Slot& acc = normal_.slot(worker);
    const storage::ColumnStrips& st = *block.strips;
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      const double* y = st.Col(s, 0);  // kNeedsTarget: column 0 is Y
      normal_.AddStrip(acc, block, s, nullptr, y);
      la::Active().gemm_strip(y, rows, y, rows, 1, 1, rows, &acc.scalar, 1,
                              /*trans_b=*/true, /*accumulate=*/true);
      CountMults(rows);
      CountAdds(rows);
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
    // The closed-form Cholesky solve, reported as its own phase next to
    // the "gram" pass time.
    core::PhaseScope phase(ctx.report, "solve");
    FML_ASSIGN_OR_RETURN(const std::vector<double> w_full, normal_.Solve());
    const size_t d = normal_.d();
    const size_t da = normal_.da();
    model_.w.assign(w_full.begin(), w_full.begin() + static_cast<long>(d));
    model_.bias = opt_.intercept ? w_full[da - 1] : 0.0;
    // SSE = w^T G w - 2 w^T c + sum(y^2), no further data pass needed.
    const double wgw = la::QuadForm(normal_.gram(), w_full.data(), da);
    const double wc = la::Dot(w_full.data(), normal_.cvec().data(), da);
    sse_ = wgw - 2.0 * wc + normal_.scalar();
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
  LinregOptions opt_;
  GramCofactor normal_;
  int64_t n_ = 0;

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

}  // namespace factorml::linreg

namespace factorml::core {

Result<linreg::LinregModel> TrainLinreg(const join::NormalizedRelations& rel,
                                        const linreg::LinregOptions& options,
                                        Algorithm algorithm,
                                        storage::BufferPool* pool,
                                        TrainReport* report) {
  linreg::LinregProgram program(options);
  FML_RETURN_IF_ERROR(
      pipeline::RunTraining(rel, algorithm, options, &program, pool, report));
  return std::move(program).TakeModel();
}

}  // namespace factorml::core
