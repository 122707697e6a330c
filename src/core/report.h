#ifndef FACTORML_CORE_REPORT_H_
#define FACTORML_CORE_REPORT_H_

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/opcount.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_stats.h"

namespace factorml::core {

/// Wall time accumulated by one (possibly parallel) phase of a training
/// run — e.g. the GMM E-step across all iterations, or the NN first-layer
/// forward across all mini-batches.
struct PhaseTiming {
  std::string name;
  double seconds = 0.0;
};

/// Measured cost of one training run: wall time, physical page I/O and
/// floating-point operation counts. Every trainer fills one of these; the
/// benchmark harness prints them side by side for M/S/F, which is exactly
/// the comparison in the paper's figures and tables.
struct TrainReport {
  std::string algorithm;
  double wall_seconds = 0.0;
  double materialize_seconds = 0.0;  // M-* only: join + write of T
  int iterations = 0;                // EM iterations or NN epochs run
  double final_objective = 0.0;      // log-likelihood (GMM) or MSE (NN)
  int threads = 1;                   // exec/ workers used by the run
  /// Chunk count of the full-pass morsel plan (0 on the mini-batch
  /// plane, which has no plan).
  int64_t morsel_chunks = 0;
  /// Chunks executed by a worker other than their static owner, summed
  /// over all passes (always 0 with --steal=off).
  uint64_t steals = 0;
  /// Effective rid-range shard count of the full-pass plane (1 =
  /// unsharded; bounded above by morsel_chunks when --shards exceeds the
  /// chunk count).
  int shards = 1;
  /// Per-shard breakdown, --shards > 1 only: each shard's chunk span of
  /// the morsel plan, the wall time of its scan windows (its busy share of
  /// every pass) and the I/O charged inside them — demand and prefetch
  /// counters both, including the crew reads the prefetcher folds in at
  /// drain, so the shard entries sum exactly to the run's scan-phase
  /// totals (storage_test pins this).
  struct ShardStat {
    int64_t chunk_begin = 0;
    int64_t chunk_end = 0;
    double scan_seconds = 0.0;
    storage::IoStats io;
  };
  std::vector<ShardStat> shard_stats;
  storage::IoStats io;               // delta over the run
  OpCounters ops;                    // delta over the run
  std::vector<PhaseTiming> phases;   // per-phase parallel wall timings
  /// Wall time each worker spent executing morsels, summed over all full
  /// passes — the load-balance evidence (spread shrinks when stealing
  /// works; wall-clock speedup additionally needs multi-core hardware).
  std::vector<double> worker_busy_seconds;
  /// Delta of the obs::Registry over the run (counters, gauges, fixed-
  /// bucket histograms — chunk counts, demand-stall and morsel-execution
  /// latencies, prefetch drain waits). Timings and schedule evidence
  /// only: nothing here feeds the bitwise parity contract. Emitted into
  /// the bench --json schema as the "metrics" object.
  obs::MetricsSnapshot metrics;

  /// Min/max of worker_busy_seconds ({0, 0} when empty) — the one
  /// reduction behind ToString, the bench tables and the JSON records.
  std::pair<double, double> BusyRange() const {
    if (worker_busy_seconds.empty()) return {0.0, 0.0};
    double lo = worker_busy_seconds[0], hi = worker_busy_seconds[0];
    for (const double b : worker_busy_seconds) {
      lo = b < lo ? b : lo;
      hi = b > hi ? b : hi;
    }
    return {lo, hi};
  }

  /// Accumulates wall time under `name` (phases repeat across EM
  /// iterations / epochs; one entry per distinct name).
  void AddPhaseSeconds(const std::string& name, double seconds) {
    for (auto& p : phases) {
      if (p.name == name) {
        p.seconds += seconds;
        return;
      }
    }
    phases.push_back(PhaseTiming{name, seconds});
  }

  std::string ToString() const {
    std::ostringstream os;
    os << algorithm << ": " << wall_seconds << "s";
    if (materialize_seconds > 0.0) {
      os << " (materialize " << materialize_seconds << "s)";
    }
    os << " iters=" << iterations << " objective=" << final_objective;
    if (threads > 1) os << " threads=" << threads;
    if (morsel_chunks > 0) {
      os << " morsels=" << morsel_chunks << " steals=" << steals;
    }
    if (shards > 1) {
      // Per-shard busy/stall breakdown: scan wall time and demand-stall
      // time of each shard's scan windows, in shard-id order.
      os << " shards=" << shards << " shard_busy=[";
      for (size_t k = 0; k < shard_stats.size(); ++k) {
        os << (k > 0 ? "," : "") << shard_stats[k].scan_seconds;
      }
      os << "]s shard_stall=[";
      for (size_t k = 0; k < shard_stats.size(); ++k) {
        os << (k > 0 ? "," : "")
           << static_cast<double>(shard_stats[k].io.stall_micros) * 1e-6;
      }
      os << "]s";
    }
    if (worker_busy_seconds.size() > 1) {
      const auto [lo, hi] = BusyRange();
      os << " busy=" << lo << ".." << hi << "s";
    }
    os << " | " << io.ToString();
    if (io.prefetch_reads > 0 || io.prefetch_hits > 0) {
      // Useful-prefetch ratio: fraction of asynchronously landed pages a
      // demand read went on to consume.
      const double rate =
          io.prefetch_reads > 0
              ? static_cast<double>(io.prefetch_hits) /
                    static_cast<double>(io.prefetch_reads)
              : 0.0;
      os << " prefetch_hit_rate=" << rate;
    }
    if (io.stall_micros > 0) {
      os << " stall=" << static_cast<double>(io.stall_micros) * 1e-6 << "s";
    }
    os << " | " << ops.ToString();
    if (!phases.empty()) {
      os << " |";
      for (const auto& p : phases) {
        os << " " << p.name << "=" << p.seconds << "s";
      }
    }
    return os.str();
  }
};

/// RAII accumulation of one phase's wall time into a report (null-safe):
/// construct at phase entry, destroy at exit; repeated phases sum. Every
/// phase is also a trace span (category "phase") when --trace is on, so
/// the model programs' named phases land in the timeline for free.
class PhaseScope {
 public:
  PhaseScope(TrainReport* report, const char* name)
      : report_(report), name_(name), span_(obs::kCatPhase, name) {}
  ~PhaseScope() {
    if (report_ != nullptr) {
      report_->AddPhaseSeconds(name_, watch_.ElapsedSeconds());
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  TrainReport* report_;
  const char* name_;
  Stopwatch watch_;
  obs::TraceSpan span_;
};

/// RAII measurement of a training run: snapshots wall clock, I/O and op
/// counters at construction; Finish() stores the deltas in the report.
/// A null report disables measurement (the trainer still runs).
class ReportScope {
 public:
  ReportScope(TrainReport* report, std::string algorithm)
      : report_(report),
        io_before_(storage::GlobalIo()),
        ops_before_(GlobalOps()) {
    if (report_ != nullptr) {
      *report_ = TrainReport{};
      report_->algorithm = std::move(algorithm);
      metrics_before_ = obs::Registry::Instance().Snap();
    }
  }

  void Finish(int iterations, double objective) {
    if (report_ == nullptr) return;
    report_->wall_seconds = watch_.ElapsedSeconds();
    report_->iterations = iterations;
    report_->final_objective = objective;
    report_->io = storage::GlobalIo() - io_before_;
    report_->ops = GlobalOps() - ops_before_;
    report_->metrics =
        obs::SnapshotDelta(obs::Registry::Instance().Snap(), metrics_before_);
  }

 private:
  TrainReport* report_;
  Stopwatch watch_;
  storage::IoStats io_before_;
  OpCounters ops_before_;
  obs::MetricsSnapshot metrics_before_;
};

}  // namespace factorml::core

#endif  // FACTORML_CORE_REPORT_H_
