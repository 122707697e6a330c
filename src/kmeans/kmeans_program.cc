// Lloyd's k-means as a core/pipeline ModelProgram: one "assign" full pass
// per iteration computes the nearest centroid, the inertia and the
// per-cluster statistics; EndPass recomputes the centroids. The pass is
// written once, factorized (under M and S no table is factored and it is
// plain Lloyd over the joined row). It reuses the F-GMM centered-cache
// idea in its purest form: squared
// Euclidean distance decomposes over the join's column blocks with no
// cross terms, so ||x - mu_c||^2 = ||xs - mu_c,S||^2 + sum_i D_i[c][rid_i]
// where D_i[c][rid] = ||x_Ri - mu_c,Ri||^2 is computed once per attribute
// tuple per pass and reused for every matching fact tuple. Centroid
// updates factorize like F-GMM's mean step, through the same gmm::RidMass:
// per-rid assignment mass replaces per-fact-tuple feature sums for the
// attribute slices. The program keeps only the argmin, the inertia and
// the S-slice sums.

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <vector>

#include "common/opcount.h"
#include "core/trainer.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "gmm/rid_mass.h"
#include "kmeans/kmeans.h"
#include "la/kernels.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace factorml::kmeans {

namespace {

using core::pipeline::Block;
using core::pipeline::PipelineContext;
using la::Matrix;

/// Squared distance between x and mu (length d), with the cost-model
/// charges: d subtractions, d multiplies, d adds.
inline double SquaredDistance(const double* x, const double* mu, size_t d) {
  double dist = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double diff = x[j] - mu[j];
    dist += diff * diff;
  }
  CountSubs(d);
  CountMults(d);
  CountAdds(d);
  return dist;
}

class KmeansProgram final : public core::pipeline::ModelProgram {
 public:
  explicit KmeansProgram(const KmeansOptions& options) : opt_(options) {}

  const char* Name() const override { return "KMEANS"; }
  const char* TempStem() const override { return "kmeans"; }
  std::string ShardJobBlob() const override {
    return EncodeShardJob(opt_);
  }
  uint32_t Capabilities() const override {
    return core::pipeline::kFullPass;
  }
  int MaxIterations() const override { return opt_.max_iters; }
  const char* PassName(int) const override { return "assign"; }

  Status ValidateOptions(const join::NormalizedRelations& rel) const override {
    if (opt_.num_clusters == 0 ||
        static_cast<int64_t>(opt_.num_clusters) > rel.s.num_rows()) {
      return Status::InvalidArgument(
          "num_clusters must be in [1, num data points]");
    }
    if (opt_.max_iters < 1) {
      return Status::InvalidArgument("kmeans: max_iters must be >= 1");
    }
    if (!std::isfinite(opt_.tol)) {
      return Status::InvalidArgument("kmeans: tol must be finite");
    }
    return Status::OK();
  }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    k_ = opt_.num_clusters;
    ds_ = ctx.slice_cols;
    q_ = ctx.factored_tables;
    y_off_ = rel_->has_target ? 1 : 0;
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);

    // Deterministic seeds: joined rows spread evenly through S — the same
    // initialization rule as GmmInit::kSpreadRows, shared via the pipeline.
    std::vector<int64_t> rows(k_);
    for (size_t c = 0; c < k_; ++c) {
      rows[c] = static_cast<int64_t>(c) * n_ / static_cast<int64_t>(k_);
    }
    FML_ASSIGN_OR_RETURN(model_.centroids,
                         core::pipeline::AssembleJoinedRows(*rel_, ctx.pool,
                                                            rows));
    model_.counts.assign(k_, 0.0);
    prev_inertia_ = std::numeric_limits<double>::infinity();
    return Status::OK();
  }

  Status BeginPass(const PipelineContext& ctx, int, int, int workers) override {
    // Once per attribute tuple per pass: the per-cluster squared distance
    // of its feature slice (the reusable diagonal block; cf. F-GMM's
    // centered caches, Eq. 20, but with no cross terms).
    dcache_.resize(q_);
    for (size_t i = 0; i < q_; ++i) {
      const Matrix& feats = (*ctx.views)[i].feats();
      const size_t n_ri = feats.rows();
      const size_t dri = feats.cols();
      dcache_[i].Resize(k_, n_ri);
      for (size_t c = 0; c < k_; ++c) {
        const double* mu_slice =
            model_.centroids.Row(c).data() + attr_offset_[i];
        for (size_t rid = 0; rid < n_ri; ++rid) {
          dcache_[i](c, rid) =
              SquaredDistance(feats.Row(rid).data(), mu_slice, dri);
        }
      }
    }
    inertia_sum_ = 0.0;
    counts_.assign(k_, 0.0);
    sums_.assign(k_ * ds_, 0.0);
    acc_.resize(static_cast<size_t>(workers));
    for (Acc& acc : acc_) {
      acc.inertia = 0.0;
      acc.counts.assign(k_, 0.0);
      acc.sums.assign(k_ * ds_, 0.0);
    }
    mass_.BeginPass(ctx, k_, workers);
    return Status::OK();
  }

  /// The assign pass: the slice distances come from dist_strip over the
  /// strip-packed slice columns, one distance block per centroid; the cached
  /// per-attribute-tuple distances are gathered onto the distance block
  /// over the FK rid columns (i-ascending per element, the block-separable
  /// distance in table order). A per-row argmin over the block with a
  /// strict-< first-wins tie rule picks the cluster; the per-column
  /// scatter into sums visits each accumulator entry in row order, and
  /// the per-rid assignment mass is added in row order. Charges are the
  /// exact per-row op counts.
  void Accumulate(int, int worker, const Block& block) override {
    Acc& acc = acc_[static_cast<size_t>(worker)];
    static obs::Histogram* batch_micros =
        obs::Registry::Instance().GetHistogram("la.batch_kernel_micros");
    const storage::ColumnStrips& st = *block.strips;
    const la::Kernels& kern = la::Active();
    std::vector<const double*> cols(ds_);
    Matrix dist(k_, st.strip_rows);
    // FK rid columns, one per attribute table (uncharged index movement).
    std::vector<std::vector<int64_t>> ridx(q_);
    for (size_t i = 0; i < q_; ++i) {
      ridx[i].resize(block.num_rows);
      for (size_t r = 0; r < block.num_rows; ++r) {
        ridx[i][r] = block.s_rows->KeysOf(r)[rel_->FkKeyIndex(i)];
      }
    }
    std::vector<size_t> best(st.strip_rows);
    for (size_t s = 0; s < st.num_strips; ++s) {
      const size_t rows = st.RowsInStrip(s);
      if (rows == 0) continue;
      const uint64_t t0 = obs::NowMicros();
      const size_t row0 = st.StripStart(s);
      for (size_t j = 0; j < ds_; ++j) cols[j] = st.Col(s, y_off_ + j);
      for (size_t c = 0; c < k_; ++c) {
        double* out = dist.Row(c).data();
        kern.dist_strip(cols.data(), ds_, rows, model_.centroids.Row(c).data(),
                        out);
        for (size_t i = 0; i < q_; ++i) {
          const double* src = dcache_[i].Row(c).data();
          const int64_t* idx = ridx[i].data() + row0;
          for (size_t r = 0; r < rows; ++r) out[r] += src[idx[r]];
        }
      }
      CountSubs(rows * k_ * ds_);
      CountMults(rows * k_ * ds_);
      CountAdds(rows * k_ * ds_);
      CountAdds(rows * k_ * q_);  // the cached per-join distance adds
      for (size_t r = 0; r < rows; ++r) {
        size_t b = 0;
        double best_dist = std::numeric_limits<double>::infinity();
        for (size_t c = 0; c < k_; ++c) {
          const double dc = dist(c, r);
          if (dc < best_dist) {
            best_dist = dc;
            b = c;
          }
        }
        best[r] = b;
        acc.inertia += best_dist;
        acc.counts[b] += 1.0;
        double* sum = acc.sums.data() + b * ds_;
        for (size_t j = 0; j < ds_; ++j) sum[j] += cols[j][r];
      }
      // Assignment mass per rid, in row order.
      for (size_t i = 0; i < q_; ++i) {
        for (size_t r = 0; r < rows; ++r) {
          mass_.Add(worker, i, best[r], ridx[i][row0 + r], 1.0);
        }
      }
      CountMults(rows * ds_);  // the per-row Axpy(1.0, xs) stream
      CountAdds(rows * ds_);
      CountAdds(rows * (2 + q_));
      batch_micros->Record(obs::NowMicros() - t0);
    }
  }

  void VisitSlotState(
      int, int slot,
      const std::function<void(double*, double*, size_t)>& visit) override {
    // One slot's assignment statistics and its per-rid assignment mass.
    Acc& acc = acc_[static_cast<size_t>(slot)];
    visit(&acc.inertia, &inertia_sum_, 1);
    visit(acc.counts.data(), counts_.data(), acc.counts.size());
    visit(acc.sums.data(), sums_.data(), acc.sums.size());
    mass_.VisitSlot(slot, visit);
  }

  Status EndPass(const PipelineContext& ctx, int, int) override {
    // Lloyd update; empty clusters keep their previous centroid (a
    // deterministic rule shared by all strategies). Reported as the
    // "update" phase next to the "assign" pass time.
    core::PhaseScope phase(ctx.report, "update");
    for (size_t c = 0; c < k_; ++c) {
      if (counts_[c] == 0.0) continue;
      const double inv = 1.0 / counts_[c];
      double* mu_row = model_.centroids.Row(c).data();
      for (size_t j = 0; j < ds_; ++j) {
        mu_row[j] = sums_[c * ds_ + j] * inv;
      }
      CountMults(ds_);
      // Factored tables' slices from per-rid assignment mass — F-GMM's
      // factorized mean update (Eq. 22) with hard assignments.
      mass_.MeanSlices(ctx, c, inv, mu_row);
    }
    sums_.clear();
    model_.counts = counts_;
    model_.inertia = inertia_sum_;
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext&, int) override {
    const bool stop = opt_.tol > 0.0 &&
                      std::isfinite(prev_inertia_) &&
                      std::fabs(inertia_sum_ - prev_inertia_) <
                          opt_.tol * std::fabs(inertia_sum_);
    prev_inertia_ = inertia_sum_;
    return stop;
  }

  double Objective() const override { return model_.inertia; }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    // Cross-iteration state: centroids, the per-cluster counts and the
    // inertia scalars; dcache_ and the accumulators are rebuilt by the
    // next BeginPass.
    visit(model_.centroids.data(),
          model_.centroids.rows() * model_.centroids.cols());
    visit(model_.counts.data(), model_.counts.size());
    visit(&model_.inertia, 1);
    visit(&inertia_sum_, 1);
    visit(&prev_inertia_, 1);
  }

  KmeansModel&& TakeModel() && { return std::move(model_); }

 private:
  struct Acc {
    double inertia = 0.0;
    std::vector<double> counts;  // k
    std::vector<double> sums;    // k * ds
  };

  KmeansOptions opt_;
  const join::NormalizedRelations* rel_ = nullptr;
  // ds_ and q_ are what the strategy hands over: the slice width and the
  // factored table count (d and 0 under M/S, d_S and q under F).
  size_t k_ = 0, ds_ = 0, q_ = 0, y_off_ = 0;
  int64_t n_ = 0;
  std::vector<size_t> attr_offset_;

  KmeansModel model_;
  std::vector<Matrix> dcache_;  // [i]: k x nRi squared slice distances
  std::vector<Acc> acc_;
  /// Per-rid assignment mass of the centroid update; rids with
  /// no assigned fact tuple are skipped by the deferral.
  gmm::RidMass mass_{/*skip_zero_mass=*/true};
  double inertia_sum_ = 0.0;
  double prev_inertia_ = 0.0;
  std::vector<double> counts_;
  std::vector<double> sums_;
};

}  // namespace

size_t KmeansModel::Assign(const double* x) const {
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids.rows(); ++c) {
    double dist = 0.0;
    const double* mu = centroids.Row(c).data();
    for (size_t j = 0; j < centroids.cols(); ++j) {
      const double diff = x[j] - mu[j];
      dist += diff * diff;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

double KmeansModel::MaxAbsDiff(const KmeansModel& a, const KmeansModel& b) {
  // Centroids only: inertia is a large sum compared with a relative
  // tolerance by the parity tests.
  return la::Matrix::MaxAbsDiff(a.centroids, b.centroids);
}

std::string EncodeShardJob(const KmeansOptions& options) {
  net::ByteWriter w;
  w.U64(options.num_clusters);
  w.I64(options.max_iters);
  w.F64(options.tol);
  return w.Take();
}

Result<KmeansOptions> DecodeShardJob(const std::string& blob) {
  KmeansOptions options;
  net::ByteReader r(blob);
  uint64_t k = 0;
  int64_t max_iters = 0;
  FML_RETURN_IF_ERROR(r.U64(&k));
  FML_RETURN_IF_ERROR(r.I64(&max_iters));
  FML_RETURN_IF_ERROR(r.F64(&options.tol));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("kmeans shard job: trailing bytes");
  }
  if (max_iters < 1 || max_iters > INT_MAX) {
    return Status::InvalidArgument("kmeans shard job: max_iters " +
                                   std::to_string(max_iters) +
                                   " out of range");
  }
  options.num_clusters = k;
  options.max_iters = static_cast<int>(max_iters);
  return options;
}

std::unique_ptr<core::pipeline::ModelProgram> MakeShardProgram(
    const KmeansOptions& options) {
  return std::make_unique<KmeansProgram>(options);
}

}  // namespace factorml::kmeans

namespace factorml::core {

Result<kmeans::KmeansModel> TrainKmeans(const join::NormalizedRelations& rel,
                                        const kmeans::KmeansOptions& options,
                                        Algorithm algorithm,
                                        storage::BufferPool* pool,
                                        TrainReport* report) {
  kmeans::KmeansProgram program(options);
  FML_RETURN_IF_ERROR(
      pipeline::RunTraining(rel, algorithm, options, &program, pool, report));
  return std::move(program).TakeModel();
}

}  // namespace factorml::core
