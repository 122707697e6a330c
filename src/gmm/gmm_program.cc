// GMM as a core/pipeline ModelProgram: the EM recurrence of the paper
// (Algorithm 1 / Sec. V) expressed as three full passes per iteration —
// e_step, m_step_mean, m_step_cov — written once as F-GMM (Eqs. 19-24):
// under M and S the slice is the whole joined row and no table is
// factored, where those equations are the dense EM updates.
// core::TrainGmm, at the end of this file, runs it under any strategy.
// F-GMM's per-rid responsibility mass (the Eq. 22 mean factorization,
// reused for the deferred covariance diagonal blocks) lives in
// gmm::RidMass, shared with k-means; the centered caches, the
// run-factored covariance and the log-likelihood stay here.

#include <climits>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/opcount.h"
#include "core/trainer.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "gmm/em_util.h"
#include "gmm/rid_mass.h"
#include "gmm/trainers.h"
#include "la/kernels.h"
#include "la/ops.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace factorml::gmm {

namespace {

using core::pipeline::Block;
using core::pipeline::PipelineContext;
using internal::Responsibilities;
using la::Matrix;

/// Subtracts mu (length d) from x into diff, counting the d subtractions
/// the paper's cost model charges per tuple (Sec. V-B).
inline void CenterInto(const double* x, const double* mu, size_t d,
                       double* diff) {
  for (size_t j = 0; j < d; ++j) diff[j] = x[j] - mu[j];
  CountSubs(d);
}

/// Centers the slice strip against mu into diff (ds x rows row-major,
/// diff[i*rows + r] = cols[i][r] - mu[i], the layout quadform_strip and
/// syrk_strip read), counting the per-row CenterInto stream. Out of line:
/// inlined into Accumulate, GCC kept a stack spill inside the cov pass's
/// copy of this loop, which then took 2.7x the cycles it takes without.
[[gnu::noinline]] void CenterStrip(const double* const* cols,
                                   const double* mu, size_t ds, size_t rows,
                                   double* diff) {
  for (size_t i = 0; i < ds; ++i) {
    const double* xi = cols[i];
    double* di = diff + i * rows;
    for (size_t r = 0; r < rows; ++r) di[r] = xi[r] - mu[i];
  }
  CountSubs(rows * ds);
}

/// Per-pass factorized state for one attribute table and one component:
/// the centered rows PD_Ri = x_Ri - mu[slice i] for every rid (Eq. 20),
/// computed once per R tuple per pass and reused for all matching S rows.
struct CenteredCache {
  // pd[c] is nRi x dRi.
  std::vector<Matrix> pd;
  // diag[c][rid] = PD^T * I_ii * PD, the reusable diagonal quadratic block
  // of the E-step (the LR term of Eq. 12 / i==j terms of Eq. 19).
  std::vector<std::vector<double>> diag;
};

/// Rebuilds the factored tables' centered caches against the current
/// means. `with_diag` additionally caches the diagonal quadratic form
/// (E-step only).
void BuildCenteredCaches(const PipelineContext& ctx, const GmmParams& params,
                         const std::vector<size_t>& attr_offset,
                         const GmmDensity* density, bool with_diag,
                         std::vector<CenteredCache>* caches) {
  const size_t k = params.num_components();
  caches->resize(ctx.factored_tables);
  for (size_t i = 0; i < ctx.factored_tables; ++i) {
    const Matrix& feats = (*ctx.views)[i].feats();
    const size_t n_ri = feats.rows();
    const size_t d_ri = feats.cols();
    auto& cache = (*caches)[i];
    cache.pd.assign(k, Matrix());
    cache.diag.assign(k, {});
    for (size_t c = 0; c < k; ++c) {
      Matrix& pd = cache.pd[c];
      pd.Resize(n_ri, d_ri);
      const double* mu_slice = params.mu.Row(c).data() + attr_offset[i];
      for (size_t rid = 0; rid < n_ri; ++rid) {
        CenterInto(feats.Row(rid).data(), mu_slice, d_ri, pd.Row(rid).data());
      }
      if (with_diag) {
        auto& diag = cache.diag[c];
        diag.resize(n_ri);
        for (size_t rid = 0; rid < n_ri; ++rid) {
          diag[rid] =
              la::Bilinear(density->precision[c], attr_offset[i],
                           attr_offset[i], pd.Row(rid).data(), d_ri,
                           pd.Row(rid).data(), d_ri);
        }
      }
    }
  }
}

class GmmProgram final : public core::pipeline::ModelProgram {
 public:
  explicit GmmProgram(const GmmOptions& options) : opt_(options) {}

  const char* Name() const override { return "GMM"; }
  const char* TempStem() const override { return "gmm"; }
  std::string ShardJobBlob() const override {
    return EncodeShardJob(opt_);
  }
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass;
  }
  int MaxIterations() const override { return opt_.max_iters; }
  Status ValidateOptions(const join::NormalizedRelations& rel) const override {
    if (opt_.num_components < 1 ||
        static_cast<int64_t>(opt_.num_components) > rel.s.num_rows()) {
      return Status::InvalidArgument(
          "gmm: num_components must be in [1, num data points] (got " +
          std::to_string(opt_.num_components) + ")");
    }
    if (opt_.max_iters < 1) {
      return Status::InvalidArgument("gmm: max_iters must be >= 1");
    }
    if (!std::isfinite(opt_.cov_reg) || opt_.cov_reg < 0.0) {
      return Status::InvalidArgument(
          "gmm: cov_reg must be finite and >= 0 (got " +
          std::to_string(opt_.cov_reg) + ")");
    }
    if (!std::isfinite(opt_.init_spread) || opt_.init_spread <= 0.0) {
      return Status::InvalidArgument(
          "gmm: init_spread must be finite and > 0 (got " +
          std::to_string(opt_.init_spread) + ")");
    }
    if (!std::isfinite(opt_.tol)) {
      return Status::InvalidArgument("gmm: tol must be finite");
    }
    return Status::OK();
  }
  int NumPasses(int) const override { return 3; }
  const char* PassName(int pass) const override {
    switch (pass) {
      case kEStep:
        return "e_step";
      case kMeanStep:
        return "m_step_mean";
      default:
        return "m_step_cov";
    }
  }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    k_ = opt_.num_components;
    d_ = rel_->total_dims();
    ds_ = ctx.slice_cols;
    q_ = ctx.factored_tables;
    y_off_ = rel_->has_target ? 1 : 0;
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);

    FML_ASSIGN_OR_RETURN(Matrix seeds,
                         internal::InitSeedRows(*rel_, ctx.pool, opt_));
    params_ = GmmParams::Init(seeds, opt_.init_spread);
    resp_.Reset(static_cast<size_t>(n_), k_);
    sigma_sum_.resize(k_);
    loglik_ = -std::numeric_limits<double>::infinity();
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int /*iter*/, int pass,
                   int workers) override {
    acc_.resize(static_cast<size_t>(workers));
    switch (pass) {
      case kEStep: {
        FML_ASSIGN_OR_RETURN(density_, GmmDensity::From(params_));
        // Once per R tuple: centered slices and diagonal quadratic blocks.
        BuildCenteredCaches(ctx, params_, attr_offset_, &density_,
                            /*with_diag=*/true, &caches_);
        ll_sum_ = 0.0;
        std::fill(resp_.n_k.begin(), resp_.n_k.end(), 0.0);
        for (auto& acc : acc_) {
          acc.ll = 0.0;
          acc.n_k.assign(k_, 0.0);
          acc.diff.resize(ds_);
        }
        break;
      }
      case kMeanStep: {
        mu_sum_.assign(k_ * ds_, 0.0);
        for (auto& acc : acc_) acc.mu_sum.assign(k_ * ds_, 0.0);
        mass_.BeginPass(ctx, k_, workers);
        break;
      }
      case kCovStep: {
        // Centered caches against the *updated* means; no diagonal quad
        // cache is needed here.
        BuildCenteredCaches(ctx, params_, attr_offset_, nullptr,
                            /*with_diag=*/false, &caches_);
        for (size_t c = 0; c < k_; ++c) sigma_sum_[c].Resize(d_, d_);
        for (auto& acc : acc_) {
          acc.sigma.assign(k_, Matrix());
          for (size_t c = 0; c < k_; ++c) acc.sigma[c].Resize(d_, d_);
          acc.diff.resize(ds_);
        }
        break;
      }
    }
    return Status::OK();
  }

  /// The three passes (Eqs. 19-24; with no factored table, Lines 4-8,
  /// 10-15 and 16-21 of Algorithm 1). The slice work runs on the
  /// driver-packed strips (`quadform_strip`, `colsum_strip`,
  /// `syrk_strip`); the FK1 group structure turns the table-0 attribute
  /// terms into per-run strip work (one precision-slice product per R1
  /// tuple, then `col_dot_strip` / a single outer product of the run's
  /// weighted centered sum, Eq. 18); per-rid responsibility mass is added
  /// in row order. Further tables (multi-way joins) and the cross blocks
  /// stay row-at-a-time over the centered strip. Every kernel call is
  /// charged the exact op counts of the per-row formula it replaces, so
  /// the posterior charges the same exp count on every backend.
  void Accumulate(int pass, int worker, const Block& block) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.strips;
    const la::Kernels& kern = la::Active();
    const size_t dr0 = q_ > 0 ? rel_->dr(0) : 0;

    std::vector<const double*> cols(ds_);  // slice feature strip columns
    std::vector<double> diffm;             // centered slice, ds x rows
    std::vector<const double*> dptr(ds_);  // row pointers into diffm
    std::vector<double> vbuf;              // per-run precision-slice product
    std::vector<double> ubuf;              // per-run col_dot output
    std::vector<double> lbuf;              // per-run LL col_dot (no symmetry)
    std::vector<double> wsum;              // per-run weighted column sum
    std::vector<double> lse;               // per-row log-likelihood terms
    Matrix qbuf;                           // k x rows quadratic forms
    if (pass != kMeanStep) diffm.resize(ds_ * st.strip_rows);
    if (pass == kEStep) {
      qbuf.Resize(k_, st.strip_rows);
      vbuf.resize(ds_);
      ubuf.resize(st.strip_rows);
      lse.resize(st.strip_rows);
      if (!opt_.exploit_symmetry) lbuf.resize(st.strip_rows);
    }
    if (pass == kCovStep) wsum.resize(ds_);

    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      const size_t row0 = st.StripStart(s);
      const int64_t base = block.start_row + static_cast<int64_t>(row0);
      for (size_t j = 0; j < ds_; ++j) cols[j] = st.Col(s, y_off_ + j);
      switch (pass) {
        case kEStep: {
          for (size_t c = 0; c < k_; ++c) {
            const Matrix& prec = density_.precision[c];
            CenterStrip(cols.data(), params_.mu.Row(c).data(), ds_, rows,
                        diffm.data());
            kern.quadform_strip(diffm.data(), ds_, rows, prec.data(),
                                prec.cols(), qbuf.Row(c).data());
            CountMults(rows * (ds_ * ds_ + ds_));  // the S-diag Bilinear
            CountAdds(rows * (ds_ * ds_ + ds_));
            // Table-0 terms per FK1 run: UR (and LL) collapse to one
            // precision-slice product per R1 tuple followed by a strip
            // col-dot over the run's centered rows; the cached diagonal
            // block adds per row. Charged with the per-row Bilinear
            // formulas the run replaces.
            double* qrow = qbuf.Row(c).data();
            for (const auto& g : block.groups) {
              const size_t lo = std::max(g.offset, row0);
              const size_t hi = std::min(g.offset + g.count, row0 + rows);
              if (lo >= hi) continue;
              const size_t rn = hi - lo;
              const size_t ll = lo - row0;  // strip-local run start
              const double* pdr = caches_[0].pd[c].Row(g.rid).data();
              for (size_t i = 0; i < ds_; ++i) {
                vbuf[i] = kern.dot(prec.Row(i).data() + attr_offset_[0],
                                   pdr, dr0);
              }
              for (size_t i = 0; i < ds_; ++i) {
                dptr[i] = diffm.data() + i * rows + ll;
              }
              kern.col_dot_strip(dptr.data(), ds_, rn, vbuf.data(),
                                 ubuf.data());
              CountMults(rn * (ds_ * dr0 + ds_));  // the UR Bilinear stream
              CountAdds(rn * (ds_ * dr0 + ds_));
              const double diag = caches_[0].diag[c][g.rid];
              if (opt_.exploit_symmetry) {
                for (size_t r = 0; r < rn; ++r) {
                  qrow[ll + r] += 2.0 * ubuf[r] + diag;
                }
                CountMults(rn);
              } else {
                // LL = pdr^T P[off0:, 0:ds] pds: fold pdr through the
                // precision rows once per run, then one more col-dot.
                std::fill(vbuf.begin(), vbuf.end(), 0.0);
                for (size_t j2 = 0; j2 < dr0; ++j2) {
                  kern.axpy(pdr[j2],
                            prec.Row(attr_offset_[0] + j2).data(),
                            vbuf.data(), ds_);
                }
                kern.col_dot_strip(dptr.data(), ds_, rn, vbuf.data(),
                                   lbuf.data());
                for (size_t r = 0; r < rn; ++r) {
                  qrow[ll + r] += ubuf[r] + lbuf[r] + diag;
                }
                CountMults(rn * (dr0 * ds_ + dr0));  // the LL Bilinear
                CountAdds(rn * (dr0 * ds_ + dr0));
              }
              CountAdds(3 * rn);
            }
          }
          // Multi-way tables and cross blocks row-at-a-time over the
          // centered strip (the centered S slice is gathered back from
          // diffm — pure data movement).
          if (q_ > 1) {
            for (size_t c = 0; c < k_; ++c) {
              const Matrix& prec = density_.precision[c];
              const double* mu = params_.mu.Row(c).data();
              for (size_t r = 0; r < rows; ++r) {
                double* pds = acc.diff.data();
                for (size_t i = 0; i < ds_; ++i) {
                  pds[i] = cols[i][r] - mu[i];
                }
                const int64_t* keys = block.s_rows->KeysOf(row0 + r);
                double extra = 0.0;
                for (size_t i = 0; i < q_; ++i) {
                  const int64_t rid = keys[rel_->FkKeyIndex(i)];
                  const double* pdr = caches_[i].pd[c].Row(rid).data();
                  const size_t dri = rel_->dr(i);
                  if (i >= 1) {
                    const double ur =
                        la::Bilinear(prec, 0, attr_offset_[i], pds, ds_,
                                     pdr, dri);
                    if (opt_.exploit_symmetry) {
                      extra += 2.0 * ur;
                      CountMults(1);
                    } else {
                      extra += ur + la::Bilinear(prec, attr_offset_[i], 0,
                                                 pdr, dri, pds, ds_);
                    }
                    extra += caches_[i].diag[c][rid];
                    CountAdds(3);
                  }
                  for (size_t j = i + 1; j < q_; ++j) {
                    const int64_t rid_j = keys[rel_->FkKeyIndex(j)];
                    const double* pdj = caches_[j].pd[c].Row(rid_j).data();
                    const size_t drj = rel_->dr(j);
                    const double cross =
                        la::Bilinear(prec, attr_offset_[i], attr_offset_[j],
                                     pdr, dri, pdj, drj);
                    if (opt_.exploit_symmetry) {
                      extra += 2.0 * cross;
                      CountMults(1);
                    } else {
                      extra += cross + la::Bilinear(prec, attr_offset_[j],
                                                    attr_offset_[i], pdj,
                                                    drj, pdr, dri);
                    }
                    CountAdds(2);
                  }
                }
                qbuf(c, r) += extra;
              }
            }
          }
          // Posterior over the strip, charged the per-row LogSumExp
          // (k + 1 exps, k adds) and exp(logp - lse) (k exps, k subs)
          // stream; ll and each n_k chain in row order.
          kern.posterior_strip(qbuf.data(), qbuf.cols(), k_, rows,
                               density_.log_coeff.data(),
                               resp_.Col(0) + base, resp_.n, lse.data());
          CountExps(rows * (2 * k_ + 1));
          CountAdds(rows * k_);
          CountSubs(rows * k_);
          for (size_t r = 0; r < rows; ++r) acc.ll += lse[r];
          for (size_t c = 0; c < k_; ++c) {
            const double* gc = resp_.Col(c) + base;
            for (size_t r = 0; r < rows; ++r) acc.n_k[c] += gc[r];
          }
          break;
        }
        case kMeanStep: {
          for (size_t c = 0; c < k_; ++c) {
            const double* gc = resp_.Col(c) + base;
            kern.colsum_strip(cols.data(), ds_, rows, gc,
                              acc.mu_sum.data() + c * ds_);
            CountMults(rows * ds_);  // the per-row Axpy(gamma, xs) stream
            CountAdds(rows * ds_);
            // Per-rid responsibility mass in row order, so every slot
            // accumulates its gamma sequence in a fixed order and the
            // merge (and the shard wire) stay bit-identical.
            for (size_t i = 0; i < q_; ++i) {
              for (size_t r = 0; r < rows; ++r) {
                mass_.Add(worker, i, c,
                          block.s_rows->KeysOf(row0 + r)[rel_->FkKeyIndex(i)],
                          gc[r]);
              }
            }
            CountAdds(rows * q_);
          }
          break;
        }
        case kCovStep: {
          for (size_t c = 0; c < k_; ++c) {
            CenterStrip(cols.data(), params_.mu.Row(c).data(), ds_, rows,
                        diffm.data());
            for (size_t i = 0; i < ds_; ++i) dptr[i] = diffm.data() + i * rows;
            const double* gc = resp_.Col(c) + base;
            Matrix& sg = acc.sigma[c];
            kern.syrk_strip(dptr.data(), ds_, rows, gc, sg.data(), sg.cols(),
                            /*upper=*/false);
            CountMults(rows * (ds_ * ds_ + ds_));  // the S-diag AddOuter
            CountAdds(rows * ds_ * ds_);
            // Table-0 cross blocks per FK1 run: the responsibility-
            // weighted centered-row sum collapses the run to ONE outer
            // product per R1 tuple (and its mirror without symmetry).
            for (const auto& g : block.groups) {
              const size_t lo = std::max(g.offset, row0);
              const size_t hi = std::min(g.offset + g.count, row0 + rows);
              if (lo >= hi) continue;
              const size_t rn = hi - lo;
              const size_t ll = lo - row0;
              const double* pdr = caches_[0].pd[c].Row(g.rid).data();
              for (size_t i = 0; i < ds_; ++i) {
                dptr[i] = diffm.data() + i * rows + ll;
              }
              std::fill(wsum.begin(), wsum.end(), 0.0);
              kern.colsum_strip(dptr.data(), ds_, rn, gc + ll, wsum.data());
              kern.add_outer(1.0, wsum.data(), ds_, pdr, dr0,
                             sg.data() + attr_offset_[0], sg.cols());
              CountMults(rn * (ds_ * dr0 + ds_));  // the S x R0 AddOuter
              CountAdds(rn * ds_ * dr0);
              if (!opt_.exploit_symmetry) {
                kern.add_outer(1.0, pdr, dr0, wsum.data(), ds_,
                               sg.data() + attr_offset_[0] * sg.cols(),
                               sg.cols());
                CountMults(rn * (dr0 * ds_ + dr0));
                CountAdds(rn * dr0 * ds_);
              }
            }
            // Multi-way tables and cross pairs row-at-a-time (gathered
            // centered S slice).
            if (q_ > 1) {
              for (size_t r = 0; r < rows; ++r) {
                double* pds = acc.diff.data();
                for (size_t i = 0; i < ds_; ++i) {
                  pds[i] = diffm[i * rows + r];
                }
                const double gamma_c = gc[r];
                const int64_t* keys = block.s_rows->KeysOf(row0 + r);
                for (size_t i = 0; i < q_; ++i) {
                  const int64_t rid = keys[rel_->FkKeyIndex(i)];
                  const double* pdr = caches_[i].pd[c].Row(rid).data();
                  const size_t dri = rel_->dr(i);
                  if (i >= 1) {
                    la::AddOuter(gamma_c, pds, ds_, pdr, dri, &sg, 0,
                                 attr_offset_[i]);
                    if (!opt_.exploit_symmetry) {
                      la::AddOuter(gamma_c, pdr, dri, pds, ds_, &sg,
                                   attr_offset_[i], 0);
                    }
                  }
                  for (size_t j = i + 1; j < q_; ++j) {
                    const int64_t rid_j = keys[rel_->FkKeyIndex(j)];
                    const double* pdj = caches_[j].pd[c].Row(rid_j).data();
                    const size_t drj = rel_->dr(j);
                    la::AddOuter(gamma_c, pdr, dri, pdj, drj, &sg,
                                 attr_offset_[i], attr_offset_[j]);
                    if (!opt_.exploit_symmetry) {
                      la::AddOuter(gamma_c, pdj, drj, pdr, dri, &sg,
                                   attr_offset_[j], attr_offset_[i]);
                    }
                  }
                }
              }
            }
          }
          break;
        }
      }
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  void VisitSlotState(
      int pass, int slot,
      const std::function<void(double*, double*, size_t)>& visit) override {
    // The merged state of one accumulator slot, per pass. diff is
    // scratch and the responsibilities (resp_) are per-rid state resident
    // with the rid's shard — neither is visited.
    Acc& acc = acc_[static_cast<size_t>(slot)];
    switch (pass) {
      case kEStep:
        visit(&acc.ll, &ll_sum_, 1);
        visit(acc.n_k.data(), resp_.n_k.data(), acc.n_k.size());
        break;
      case kMeanStep:
        visit(acc.mu_sum.data(), mu_sum_.data(), acc.mu_sum.size());
        mass_.VisitSlot(slot, visit);
        break;
      case kCovStep:
        for (size_t c = 0; c < k_; ++c) {
          visit(acc.sigma[c].data(), sigma_sum_[c].data(),
                acc.sigma[c].rows() * acc.sigma[c].cols());
        }
        break;
    }
  }

  /// The mean pass's EndPass (below) rewrites params_.mu mid-iteration,
  /// so a cov-pass rescan on a surviving shard worker would recompute the
  /// E-step's responsibilities against the NEW means — not the state the
  /// dead worker accumulated under. The e_step and m_step_mean passes
  /// only read BeginPass-time parameters and are exactly replayable.
  bool ShardRecoverableAtPass(int pass) const override {
    return pass <= kMeanStep;
  }

  Status EndPass(const PipelineContext& ctx, int /*iter*/, int pass) override {
    switch (pass) {
      case kEStep:
        break;
      case kMeanStep: {
        // Deferred m-step work outside the scan: reported as "finalize"
        // next to the e_step / m_step_* pass times.
        core::PhaseScope phase(ctx.report, "finalize");
        // The mean's slice from the per-tuple sums; the factored tables'
        // slices come from per-rid responsibility mass times the
        // attribute features (Eq. 22).
        for (size_t c = 0; c < k_; ++c) {
          const double inv_nk = 1.0 / std::max(resp_.n_k[c], 1e-300);
          double* mu_row = params_.mu.Row(c).data();
          for (size_t j = 0; j < ds_; ++j) {
            mu_row[j] = mu_sum_[c * ds_ + j] * inv_nk;
          }
          CountMults(ds_);
          mass_.MeanSlices(ctx, c, inv_nk, mu_row);
        }
        break;
      }
      case kCovStep: {
        core::PhaseScope phase(ctx.report, "finalize");
        if (opt_.exploit_symmetry) {
          // Mirror the cross blocks that were accumulated single-sided: the
          // covariance accumulator is symmetric, so LL = UR^T exactly (one
          // O(d^2) copy per component per pass instead of per fact tuple).
          for (size_t c = 0; c < k_; ++c) {
            Matrix& acc = sigma_sum_[c];
            for (size_t i = 0; i < q_; ++i) {
              const size_t dri = rel_->dr(i);
              for (size_t a = 0; a < ds_; ++a) {
                for (size_t b2 = 0; b2 < dri; ++b2) {
                  acc(attr_offset_[i] + b2, a) = acc(a, attr_offset_[i] + b2);
                }
              }
              for (size_t j = i + 1; j < q_; ++j) {
                const size_t drj = rel_->dr(j);
                for (size_t a = 0; a < dri; ++a) {
                  for (size_t b2 = 0; b2 < drj; ++b2) {
                    acc(attr_offset_[j] + b2, attr_offset_[i] + a) =
                        acc(attr_offset_[i] + a, attr_offset_[j] + b2);
                  }
                }
              }
            }
          }
        }
        // Deferred diagonal blocks: one outer product per R tuple, scaled
        // by the responsibility mass of its matching fact tuples (the mean
        // pass's merged mass — same gamma).
        for (size_t c = 0; c < k_; ++c) {
          for (size_t i = 0; i < q_; ++i) {
            const size_t dri = rel_->dr(i);
            const size_t n_ri = caches_[i].pd[c].rows();
            for (size_t rid = 0; rid < n_ri; ++rid) {
              const double* pdr = caches_[i].pd[c].Row(rid).data();
              la::AddOuter(mass_.merged(i)(c, rid), pdr, dri, pdr, dri,
                           &sigma_sum_[c], attr_offset_[i], attr_offset_[i]);
            }
          }
        }
        for (size_t c = 0; c < k_; ++c) {
          sigma_sum_[c].Scale(1.0 / std::max(resp_.n_k[c], 1e-300));
          for (size_t j = 0; j < d_; ++j) {
            sigma_sum_[c](j, j) += opt_.cov_reg;
          }
          params_.sigma[c] = sigma_sum_[c];
          params_.pi[c] = resp_.n_k[c] / static_cast<double>(n_);
        }
        break;
      }
    }
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext&, int) override {
    const bool stop = internal::Converged(loglik_, ll_sum_, opt_.tol);
    loglik_ = ll_sum_;
    return stop;
  }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    // Cross-iteration state: the parameters and the convergence scalar.
    // resp_ and every accumulator are rebuilt by the next e_step.
    visit(params_.mu.data(), params_.mu.rows() * params_.mu.cols());
    for (size_t c = 0; c < k_; ++c) {
      visit(params_.sigma[c].data(),
            params_.sigma[c].rows() * params_.sigma[c].cols());
    }
    visit(params_.pi.data(), params_.pi.size());
    visit(&loglik_, 1);
  }

  double Objective() const override { return loglik_; }

  GmmParams&& TakeParams() && { return std::move(params_); }

 private:
  enum Pass { kEStep = 0, kMeanStep = 1, kCovStep = 2 };

  /// Per-worker accumulators and scratch; merged in worker order.
  struct Acc {
    double ll = 0.0;
    std::vector<double> n_k;
    std::vector<double> diff;     // centered slice (q > 1 only)
    std::vector<double> mu_sum;   // k * ds
    std::vector<Matrix> sigma;    // k of d x d
  };

  GmmOptions opt_;
  const join::NormalizedRelations* rel_ = nullptr;
  // ds_ and q_ are what the strategy hands over: the slice width and the
  // factored table count (d and 0 under M/S, d_S and q under F).
  size_t k_ = 0, d_ = 0, ds_ = 0, q_ = 0, y_off_ = 0;
  int64_t n_ = 0;
  std::vector<size_t> attr_offset_;

  GmmParams params_;
  GmmDensity density_;
  Responsibilities resp_;
  std::vector<CenteredCache> caches_;
  std::vector<Acc> acc_;
  /// Per-rid responsibility mass of the mean pass; the merged
  /// mass also scales the cov pass's deferred diagonal blocks.
  RidMass mass_{/*skip_zero_mass=*/false};

  double ll_sum_ = 0.0;
  double loglik_ = 0.0;
  std::vector<double> mu_sum_;
  std::vector<Matrix> sigma_sum_;
};

}  // namespace

std::string EncodeShardJob(const GmmOptions& options) {
  net::ByteWriter w;
  w.U64(options.num_components);
  w.I64(options.max_iters);
  w.F64(options.tol);
  w.F64(options.init_spread);
  w.F64(options.cov_reg);
  w.U8(static_cast<uint8_t>(options.init));
  w.U64(options.seed);
  w.U8(options.exploit_symmetry ? 1 : 0);
  return w.Take();
}

Result<GmmOptions> DecodeShardJob(const std::string& blob) {
  GmmOptions options;
  net::ByteReader r(blob);
  uint64_t k = 0;
  int64_t max_iters = 0;
  uint8_t init = 0, symmetry = 0;
  FML_RETURN_IF_ERROR(r.U64(&k));
  FML_RETURN_IF_ERROR(r.I64(&max_iters));
  FML_RETURN_IF_ERROR(r.F64(&options.tol));
  FML_RETURN_IF_ERROR(r.F64(&options.init_spread));
  FML_RETURN_IF_ERROR(r.F64(&options.cov_reg));
  FML_RETURN_IF_ERROR(r.U8(&init));
  FML_RETURN_IF_ERROR(r.U64(&options.seed));
  FML_RETURN_IF_ERROR(r.U8(&symmetry));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("gmm shard job: trailing bytes");
  }
  if (max_iters < 1 || max_iters > INT_MAX) {
    return Status::InvalidArgument("gmm shard job: max_iters " +
                                   std::to_string(max_iters) +
                                   " out of range");
  }
  if (init > static_cast<uint8_t>(GmmInit::kRandomRows)) {
    return Status::InvalidArgument("gmm shard job: init byte " +
                                   std::to_string(init) + " out of range");
  }
  options.num_components = k;
  options.max_iters = static_cast<int>(max_iters);
  options.init = static_cast<GmmInit>(init);
  options.exploit_symmetry = symmetry != 0;
  return options;
}

std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const GmmOptions& options) {
  return std::make_unique<GmmProgram>(options);
}

}  // namespace factorml::gmm

namespace factorml::core {

Result<gmm::GmmParams> TrainGmm(const join::NormalizedRelations& rel,
                                const gmm::GmmOptions& options,
                                Algorithm algorithm,
                                storage::BufferPool* pool,
                                TrainReport* report) {
  gmm::GmmProgram program(options);
  FML_RETURN_IF_ERROR(
      pipeline::RunTraining(rel, algorithm, options, &program, pool, report));
  return std::move(program).TakeParams();
}

}  // namespace factorml::core
