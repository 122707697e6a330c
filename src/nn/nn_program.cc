// The MLP as a core/pipeline ModelProgram on the mini-batch plane: one
// epoch = one ordered stream of whole-FK1-group batches (identical across
// M/S/F, which is what makes the strategies' outputs comparable exactly).
// The one batch step implements Sec. VI-A — partial first-layer inner
// products cached per attribute tuple per weight version, and the W1
// gradient formed from the base relations directly; under M and S no
// table is factored and it is standard BP over the assembled batch.
// core::TrainNn, at the end of this file, runs it under any strategy.

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/opcount.h"
#include "core/trainer.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "exec/parallel_for.h"
#include "join/batch_plan.h"
#include "la/kernels.h"
#include "nn/backprop.h"
#include "nn/trainers.h"

namespace factorml::nn {

namespace {

using core::pipeline::Block;
using core::pipeline::PipelineContext;

/// Per-attribute-table cache of first-layer partial inner products:
/// row rid holds W1[:, slice_i] * x_ri (plus the layer bias for table 0,
/// matching the paper's T2 = sum w x_R + b). An entry is valid for weight
/// version `stamp[rid]`; since mini-batch SGD changes W1 every update,
/// entries are recomputed on first use per version — "computed when one
/// tuple in R appears for the first time and reused for the remaining
/// matching tuples" (Sec. VI-A2).
struct PartialCache {
  la::Matrix c;                 // nRi x nh
  std::vector<uint64_t> stamp;  // nRi, last weight version computed
};

class NnProgram final : public core::pipeline::ModelProgram {
 public:
  explicit NnProgram(const NnOptions& options) : opt_(options) {}

  const char* Name() const override { return "NN"; }
  const char* TempStem() const override { return "nn"; }
  uint32_t Capabilities() const override {
    return core::pipeline::kMiniBatch | core::pipeline::kNeedsTarget;
  }
  int MaxIterations() const override { return opt_.epochs; }

  Status ValidateOptions(const join::NormalizedRelations&) const override {
    if (opt_.hidden.empty()) {
      return Status::InvalidArgument("at least one hidden layer required");
    }
    for (const size_t width : opt_.hidden) {
      if (width < 1) {
        return Status::InvalidArgument("nn: every hidden width must be >= 1");
      }
    }
    if (opt_.epochs < 1) {
      return Status::InvalidArgument("nn: epochs must be >= 1");
    }
    return Status::OK();
  }

  Status Init(const PipelineContext& ctx) override {
    rel_ = ctx.rel;
    q_ = ctx.factored_tables;
    ds_ = ctx.slice_cols;
    d_ = rel_->total_dims();
    nh_ = opt_.hidden[0];
    n_ = rel_->s.num_rows();
    attr_offset_.resize(q_);
    for (size_t i = 0; i < q_; ++i) attr_offset_[i] = rel_->FeatureOffset(i + 1);

    mlp_ = Mlp::Init(d_, opt_.hidden, opt_.activation, opt_.seed);
    engine_ = std::make_unique<internal::BackpropEngine>(&mlp_,
                                                         opt_.learning_rate);
    if (opt_.hidden_dropout > 0.0) {
      engine_->EnableDropout(opt_.hidden_dropout, opt_.seed ^ 0xD40);
    }
    engine_->ConfigureSgd(opt_.momentum, opt_.weight_decay);
    grad0_ = la::Matrix(mlp_.w[0].rows(), mlp_.w[0].cols());
    caches_.resize(q_);
    stale_.resize(q_);
    version_ = 1;  // bumped after every weight update while caches exist
    return Status::OK();
  }

  std::vector<int64_t> EpochRidOrder(const PipelineContext& ctx,
                                     int epoch) override {
    if (!opt_.shuffle) return {};
    return join::PermutedRids(ctx.rel->fk1_index.num_rids(), opt_.seed,
                              epoch);
  }

  Status BeginEpoch(const PipelineContext& ctx, int /*epoch*/) override {
    epoch_sse_ = 0.0;
    for (size_t i = 0; i < q_; ++i) {
      if (caches_[i].stamp.empty()) {
        const size_t n_ri = (*ctx.views)[i].feats().rows();
        caches_[i].c.Resize(n_ri, nh_);
        caches_[i].stamp.assign(n_ri, 0);
      }
    }
    return Status::OK();
  }

  /// The epoch step. The slice arrives as column strips (target at strip
  /// column 0, the ds features after it, contiguous — one ds-column panel
  /// per strip): the first-layer forward and the slice's W1 gradient run
  /// as `gemm_strip` products over them (axpy form and dot form). The
  /// pre-activation lands straight in the transposed epoch block a1t_
  /// (nh x batch) that Step consumes, and the gradient reads Step's
  /// delta1^T in place, so no layout shuffle sits between the first layer
  /// and the upper ones. Op counts are charged with the per-row formulas,
  /// and every strip/morsel boundary is schedule-determined, so
  /// iterations, op counters and page I/O are the same on every backend
  /// and at every thread count.
  Status OnBatch(const PipelineContext& ctx, const Block& block) override {
    const storage::ColumnStrips& st = *block.strips;
    const size_t b = block.num_rows;
    const int threads = ctx.threads;
    const la::Kernels& kern = la::Active();
    const size_t sr = st.strip_rows;  // row block height of the kernels

    // The targets as one contiguous run for Step (data movement, uncharged
    // like assembly).
    y_.resize(b);
    for (size_t s = 0; s < st.num_strips; ++s) {
      std::memcpy(y_.data() + st.StripStart(s), st.Col(s, 0),
                  sizeof(double) * st.RowsInStrip(s));
    }
    if (q_ > 0) RefreshPartials(ctx, block);

    // ---- First layer forward (Sec. VI-A1 / Eq. 31):
    // A1^T = W_S XS^T + sum_i cache_i(rid_i), written straight into the
    // transposed block over disjoint column ranges: the slice product as
    // one axpy-form gemm_strip per strip (W_S is the leading ds-column
    // slice of W1), then each entry adds the cached partials in table
    // order (no bias here — table 0's cache carries it). With no factored
    // table the bias is added over contiguous rows instead.
    a1t_.Reshape(nh_, b);
    {
      core::PhaseScope phase(ctx.report, "first_layer_fwd");
      exec::ParallelFor(
          threads, static_cast<int64_t>(st.num_strips), /*align=*/1,
          [&](exec::Range rg, int) {
            for (int64_t s = rg.begin; s < rg.end; ++s) {
              const auto sp = static_cast<size_t>(s);
              const size_t r0 = st.StripStart(sp);
              const size_t rows = st.RowsInStrip(sp);
              kern.gemm_strip(mlp_.w[0].data(), d_, st.Col(sp, 1), sr, nh_,
                              rows, ds_, a1t_.data() + r0, b,
                              /*trans_b=*/false, /*accumulate=*/false);
              if (q_ > 0) {
                AddCachedPartials(r0, rows);
              } else {
                internal::AddBias(mlp_.b[0], r0, rows, &a1t_);
              }
            }
          });
      // Per entry one add per table's cached partial — or, with no
      // factored table, the one bias add.
      CountMults(b * nh_ * ds_);
      CountAdds(b * nh_ * ds_ + b * nh_ * std::max<size_t>(q_, 1));
    }

    {
      core::PhaseScope phase(ctx.report, "upper_layers");
      epoch_sse_ += engine_->Step(a1t_, y_.data());
    }
    const la::Matrix& d1t = engine_->delta1t();

    // ---- Backward (Sec. VI-A3 / Eq. 32): the W1 gradient
    // [PG_S | PG_R1 | ... ] is formed from the base relations directly;
    // identical arithmetic, but x_Ri is never expanded to N rows on
    // disk. Parallelized over column morsels of grad0: every worker owns
    // a disjoint column range. Every element reads delta1^T's rows in
    // place: PG_S against the slice strips and PG_R against x_Ri gathered
    // into blocks of the strip height, both in dot form. Each element
    // adds its rows in order and no element depends on the partition, so
    // the gradient is bit-identical for any thread count.
    if (opt_.grouped_backward && q_ >= 1) {
      // Extension: per R1 group, sum the deltas first, then one outer
      // product per R1 tuple (nh*(b + |rids|*dR1) ops instead of
      // nh*b*dR1). Computed once, read by every column worker; charged as
      // the per-row Axpy it replays.
      dsums_.assign(block.groups.size() * nh_, 0.0);
      for (size_t g = 0; g < block.groups.size(); ++g) {
        const auto& grp = block.groups[g];
        if (grp.count == 0) continue;
        double* dsum = dsums_.data() + g * nh_;
        for (size_t u = 0; u < nh_; ++u) {
          const double* row = d1t.Row(u).data();
          double sum = 0.0;
          for (size_t r = grp.offset; r < grp.offset + grp.count; ++r) {
            sum += row[r];
          }
          dsum[u] = sum;
        }
        CountMults(grp.count * nh_);
        CountAdds(grp.count * nh_);
      }
    }
    grad0_.SetZero();
    {
      core::PhaseScope phase(ctx.report, "w1_grad");
      exec::ParallelFor(
          threads, static_cast<int64_t>(d_), /*align=*/1,
          [&](exec::Range rg, int) {
            const auto cb = static_cast<size_t>(rg.begin);
            const auto ce = static_cast<size_t>(rg.end);
            // PG_S: columns of the slice [0, ds) within this morsel.
            if (cb < ds_) {
              const size_t slen = std::min(ds_, ce) - cb;
              for (size_t s = 0; s < st.num_strips; ++s) {
                kern.gemm_strip(d1t.data() + st.StripStart(s), b,
                                st.Col(s, 1 + cb), sr, nh_, slen,
                                st.RowsInStrip(s), grad0_.data() + cb, d_,
                                /*trans_b=*/true, /*accumulate=*/true);
              }
              CountMults(b * nh_ * slen);
              CountAdds(b * nh_ * slen);
            }
            // PG_Ri: the slice of each attribute block inside the
            // morsel. The overlap is loop-invariant over the batch
            // rows, so clip once per table; tables (and whole row
            // sweeps) with no overlap cost this worker nothing.
            std::vector<size_t> lo(q_);
            std::vector<size_t> len(q_, 0);
            bool any_overlap = false;
            for (size_t i = 0; i < q_; ++i) {
              const size_t block_lo = attr_offset_[i];
              const size_t block_hi = block_lo + rel_->dr(i);
              const size_t s = std::max(block_lo, cb);
              const size_t e = std::min(block_hi, ce);
              if (s < e) {
                lo[i] = s - block_lo;
                len[i] = e - s;
                any_overlap = true;
              }
            }
            if (!any_overlap) return;
            // AddOuter's alpha * u scaling (nh per outer product) is
            // charged once per table, by the morsel holding the block's
            // first column, so the count does not depend on the split.
            const auto scale_charge = [&](size_t i) {
              return lo[i] == 0 ? nh_ : size_t{0};
            };
            const size_t row_first_table = opt_.grouped_backward ? 1 : 0;
            if (opt_.grouped_backward && len[0] > 0) {
              double* g = grad0_.data() + attr_offset_[0] + lo[0];
              size_t outers = 0;
              for (size_t gi = 0; gi < block.groups.size(); ++gi) {
                const auto& grp = block.groups[gi];
                if (grp.count == 0) continue;
                const auto xr = (*ctx.views)[0].FeaturesOf(grp.rid);
                kern.add_outer(1.0, dsums_.data() + gi * nh_, nh_,
                               xr.data() + lo[0], len[0], g, d_);
                ++outers;
              }
              CountMults(outers * (nh_ * len[0] + scale_charge(0)));
              CountAdds(outers * nh_ * len[0]);
            }
            size_t max_len = 0;  // widest row-table slice in the morsel
            for (size_t i = row_first_table; i < q_; ++i) {
              max_len = std::max(max_len, len[i]);
            }
            if (max_len == 0) return;
            // PG_Ri in dot form: per block of sr rows, gather the morsel's
            // x_Ri columns of the block's rows into a len_i x sr block
            // (rows contiguous, like delta1^T), then one trans_b
            // gemm_strip against delta1^T's block columns, as PG_S does.
            // The charge is the per-row AddOuter formula it replaces.
            std::vector<double> xg(max_len * sr);
            for (size_t i = row_first_table; i < q_; ++i) {
              if (len[i] == 0) continue;
              const la::Matrix& feats = (*ctx.views)[i].feats();
              const double* x_base = feats.data() + lo[i];
              const size_t ldx = feats.cols();
              double* g = grad0_.data() + attr_offset_[i] + lo[i];
              for (size_t row0 = 0; row0 < b; row0 += sr) {
                const size_t rows = std::min(sr, b - row0);
                const int64_t* rids = ridbuf_[i].data() + row0;
                for (size_t j = 0; j < len[i]; ++j) {
                  double* dst = xg.data() + j * sr;
                  for (size_t r = 0; r < rows; ++r) {
                    dst[r] = x_base[static_cast<size_t>(rids[r]) * ldx + j];
                  }
                }
                kern.gemm_strip(d1t.data() + row0, b, xg.data(), sr, nh_,
                                len[i], rows, g, d_, /*trans_b=*/true,
                                /*accumulate=*/true);
              }
              CountMults(b * (nh_ * len[i] + scale_charge(i)));
              CountAdds(b * nh_ * len[i]);
            }
          });
    }
    engine_->UpdateW0(grad0_);
    // The engine updated b0 and layers >= 1, W1 updated above: the caches
    // are stale. With none, version_ stays 1 (checkpoints carry it).
    if (q_ > 0) ++version_;
    return Status::OK();
  }

  Result<bool> EndIteration(const PipelineContext&, int) override {
    return false;  // NN always runs the full epoch budget
  }

  double Objective() const override {
    return epoch_sse_ / (2.0 * static_cast<double>(n_));
  }

  void VisitIterationState(
      const std::function<void(double*, size_t)>& visit) override {
    // Cross-epoch state: every layer's weights and biases, the momentum
    // velocities, the dropout generator cursor, and the epoch objective.
    // version_ rides along as a bit pattern so restored partial-feature
    // caches are invalidated exactly as an uninterrupted run would have
    // them (stamps never match a bumped version). The caches and scratch
    // matrices rebuild lazily per batch and must not be visited.
    for (auto& w : mlp_.w) visit(w.data(), w.rows() * w.cols());
    for (auto& b : mlp_.b) visit(b.data(), b.size());
    for (auto& v : engine_->vel_w()) visit(v.data(), v.rows() * v.cols());
    for (auto& v : engine_->vel_b()) visit(v.data(), v.size());
    if (Rng* rng = engine_->dropout_rng()) {
      double st[Rng::kStateDoubles];
      rng->SaveState(st);
      visit(st, Rng::kStateDoubles);
      rng->RestoreState(st);
    }
    double version_bits = 0.0;
    std::memcpy(&version_bits, &version_, sizeof(version_bits));
    visit(&version_bits, 1);
    std::memcpy(&version_, &version_bits, sizeof(version_));
    visit(&epoch_sse_, 1);
  }

  Mlp&& TakeMlp() && { return std::move(mlp_); }

 private:
  /// Gathers the per-table rid index buffers (pure data movement,
  /// uncharged like assembly), then refreshes the partial caches for this
  /// weight version: collect the stale rids the batch touches (table 0
  /// straight from the rid groups; further tables by scanning the FK
  /// columns), then fill the collected rows in parallel — rows are
  /// disjoint, and the identical arithmetic runs whether filled here or
  /// lazily, so results and op totals match the serial path exactly.
  void RefreshPartials(const PipelineContext& ctx, const Block& block) {
    const storage::RowBatch& s_rows = *block.s_rows;
    const std::vector<join::AttributeTableView>& views = *ctx.views;
    const size_t b = block.num_rows;
    const int threads = ctx.threads;
    ridbuf_.resize(q_);
    for (size_t i = 0; i < q_; ++i) ridbuf_[i].resize(b);
    exec::ParallelFor(
        threads, static_cast<int64_t>(b), /*align=*/1,
        [&](exec::Range rg, int) {
          for (int64_t rr = rg.begin; rr < rg.end; ++rr) {
            const auto r = static_cast<size_t>(rr);
            const int64_t* keys = s_rows.KeysOf(r);
            for (size_t i = 0; i < q_; ++i) {
              ridbuf_[i][r] = keys[rel_->FkKeyIndex(i)];
            }
          }
        });
    core::PhaseScope phase(ctx.report, "partial_cache");
    for (size_t i = 0; i < q_; ++i) stale_[i].clear();
    for (const auto& g : block.groups) {
      if (g.count == 0) continue;
      const auto rid = static_cast<size_t>(g.rid);
      if (caches_[0].stamp[rid] != version_) {
        caches_[0].stamp[rid] = version_;
        stale_[0].push_back(g.rid);
      }
    }
    for (size_t r = 0; q_ > 1 && r < b; ++r) {
      const int64_t* keys = s_rows.KeysOf(r);
      for (size_t i = 1; i < q_; ++i) {
        const auto rid = static_cast<size_t>(keys[rel_->FkKeyIndex(i)]);
        if (caches_[i].stamp[rid] != version_) {
          caches_[i].stamp[rid] = version_;
          stale_[i].push_back(static_cast<int64_t>(rid));
        }
      }
    }
    for (size_t i = 0; i < q_; ++i) {
      PartialCache& cache = caches_[i];
      const std::vector<int64_t>& todo = stale_[i];
      if (todo.empty()) continue;
      exec::ParallelFor(
          threads, static_cast<int64_t>(todo.size()), /*align=*/1,
          [&](exec::Range rg, int) {
            for (int64_t s = rg.begin; s < rg.end; ++s) {
              const auto rid =
                  static_cast<size_t>(todo[static_cast<size_t>(s)]);
              const auto xr = views[i].FeaturesOf(static_cast<int64_t>(rid));
              const size_t dri = xr.size();
              double* c_row = cache.c.Row(rid).data();
              const size_t ldw = mlp_.w[0].cols();
              const double* w_base = mlp_.w[0].data() + attr_offset_[i];
              for (size_t u = 0; u < nh_; ++u) {
                double sum = 0.0;
                const double* w_row = w_base + u * ldw;
                for (size_t j = 0; j < dri; ++j) sum += w_row[j] * xr[j];
                // The paper's T2 carries the bias with the first partial sum.
                c_row[u] = (i == 0) ? sum + mlp_.b[0][u] : sum;
              }
              CountMults(nh_ * dri);
              CountAdds(nh_ * dri + (i == 0 ? nh_ : 0));
            }
          });
    }
  }

  /// a1t[:, r0:r0+rows] += cache_i(rid_i) for every table, in table order.
  /// Rows of one FK1 group are contiguous and share table 0's partial, so
  /// that one is a broadcast add per run per unit; further tables gather
  /// one cached entry per row and unit.
  void AddCachedPartials(size_t r0, size_t rows) {
    const size_t b = a1t_.cols();
    const size_t end = r0 + rows;
    const int64_t* rid0 = ridbuf_[0].data();
    for (size_t r = r0; r < end;) {
      size_t run_end = r + 1;
      while (run_end < end && rid0[run_end] == rid0[r]) ++run_end;
      const double* c = caches_[0].c.Row(static_cast<size_t>(rid0[r])).data();
      for (size_t u = 0; u < nh_; ++u) {
        const double v = c[u];
        double* row = a1t_.data() + u * b;
        for (size_t t = r; t < run_end; ++t) row[t] += v;
      }
      r = run_end;
    }
    const la::Kernels& kern = la::Active();
    for (size_t i = 1; i < q_; ++i) {
      for (size_t u = 0; u < nh_; ++u) {
        kern.gather_add_rows_strip(caches_[i].c.data() + u, nh_,
                                   ridbuf_[i].data() + r0, rows, /*n=*/1,
                                   a1t_.data() + u * b + r0, /*ldo=*/1);
      }
    }
  }

  NnOptions opt_;
  const join::NormalizedRelations* rel_ = nullptr;
  // q_ and ds_ are what the strategy hands over: the factored table count
  // and the slice width (0 and d under M/S, q and d_S under F).
  size_t q_ = 0, ds_ = 0, d_ = 0, nh_ = 0;
  int64_t n_ = 0;
  std::vector<size_t> attr_offset_;

  Mlp mlp_;
  std::unique_ptr<internal::BackpropEngine> engine_;
  la::Matrix a1t_;  // nh x batch: first-layer pre-activation, transposed
  la::Matrix grad0_;
  std::vector<double> y_;
  std::vector<double> dsums_;  // grouped-backward scratch, n_groups x nh
  std::vector<std::vector<int64_t>> ridbuf_;  // per-table rid of each row
  std::vector<PartialCache> caches_;
  std::vector<std::vector<int64_t>> stale_;  // rids to refill per batch
  uint64_t version_ = 1;
  double epoch_sse_ = 0.0;
};

}  // namespace

}  // namespace factorml::nn

namespace factorml::core {

Result<nn::Mlp> TrainNn(const join::NormalizedRelations& rel,
                        const nn::NnOptions& options, Algorithm algorithm,
                        storage::BufferPool* pool, TrainReport* report) {
  nn::NnProgram program(options);
  FML_RETURN_IF_ERROR(
      pipeline::RunTraining(rel, algorithm, options, &program, pool, report));
  return std::move(program).TakeMlp();
}

}  // namespace factorml::core
