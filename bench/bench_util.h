#ifndef FACTORML_BENCH_BENCH_UTIL_H_
#define FACTORML_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "core/factorml.h"
#include "exec/thread_pool.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace factorml::bench {

/// Applies the flags every bench binary shares: `--threads` (worker count
/// for the exec/ parallel runtime; default 1 = the exact serial
/// reproduction), `--io_delay_us` (simulated device latency per page
/// transfer) and `--trace=PATH` / `--trace-buffer-kb=N` (span tracing;
/// the Chrome trace-event JSON — with the run manifest as otherData — is
/// flushed at exit). Call first thing in main(). A bench whose
/// `--morsel-rows` or `--threads` default differs from the engine's passes
/// it as `default_morsel_rows` / `default_threads`, so the trace manifest
/// records the chunk size and thread count it ran.
inline void ApplyCommonBenchFlags(
    const ArgParser& args, const char* bench_name = "bench",
    int64_t default_morsel_rows = exec::kDefaultMorselRows,
    int default_threads = 1) {
  exec::SetDefaultThreads(args.GetThreads(1));
  if (args.Has("io_delay_us")) {
    const auto us = static_cast<uint64_t>(args.GetIoDelayUs());
    storage::SetSimulatedIoLatencyMicros(us, us);
  }
  const std::string trace_path = args.GetTracePath();
  if (!trace_path.empty()) {
    // atexit keeps the flush after every sweep row, whichever return or
    // Die() path ends the binary. The statics hand the lambda its state
    // (atexit takes a plain function pointer).
    static std::string path, manifest;
    path = trace_path;
    manifest = obs::RunManifest::FromArgs(bench_name, args,
                                          default_morsel_rows, default_threads)
                   .ToJson();
    obs::Tracer::Instance().Start(
        static_cast<size_t>(args.GetTraceBufferKb()));
    std::atexit([] {
      obs::Tracer::Instance().Stop();
      const Status st = obs::Tracer::Instance().WriteJson(path, manifest);
      if (!st.ok()) {
        std::fprintf(stderr, "trace flush failed: %s\n",
                     st.ToString().c_str());
      }
    });
  }
}

/// Scratch directory for generated relations and materialized tables;
/// removed on destruction.
class BenchDir {
 public:
  BenchDir() {
    std::random_device rd;
    path_ = std::filesystem::temp_directory_path() /
            ("factorml_bench_" + std::to_string(rd()));
    std::filesystem::create_directories(path_);
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Reports for one M/S/F comparison (one row of a paper figure/table).
struct Trio {
  core::TrainReport m, s, f;
};

inline void Die(const Status& st) {
  std::fprintf(stderr, "bench failed: %s\n", st.ToString().c_str());
  std::exit(1);
}

/// Runs one model family under all three strategies on the same relations
/// (`pool` cleared between runs so every algorithm starts cold) and
/// self-checks M/F parameter drift — the exactness property the
/// factorization promises: drift above 1e-4, or NaN, fails the bench.
/// `train` is a core::Train* entry point; `max_abs_diff` compares the M
/// and F models.
template <typename Options, typename TrainFn, typename DiffFn>
inline Trio RunAllStrategies(const join::NormalizedRelations& rel,
                             const Options& options,
                             storage::BufferPool* pool, TrainFn train,
                             DiffFn max_abs_diff) {
  Trio t;
  pool->Clear();
  auto m = train(rel, options, core::Algorithm::kMaterialized, pool, &t.m);
  if (!m.ok()) Die(m.status());
  pool->Clear();
  auto s = train(rel, options, core::Algorithm::kStreaming, pool, &t.s);
  if (!s.ok()) Die(s.status());
  pool->Clear();
  auto f = train(rel, options, core::Algorithm::kFactorized, pool, &t.f);
  if (!f.ok()) Die(f.status());
  const double diff = max_abs_diff(m.value(), f.value());
  if (!(diff <= 1e-4)) {  // NaN fails too
    std::ostringstream msg;
    msg << "M/F parameter drift " << diff << " exceeds 1e-4 ("
        << t.f.algorithm << ")";
    Die(Status::Internal(msg.str()));
  }
  return t;
}

inline Trio RunGmmAll(const join::NormalizedRelations& rel,
                      const gmm::GmmOptions& options,
                      storage::BufferPool* pool) {
  return RunAllStrategies(rel, options, pool, &core::TrainGmm,
                          &gmm::GmmParams::MaxAbsDiff);
}

inline Trio RunNnAll(const join::NormalizedRelations& rel,
                     const nn::NnOptions& options,
                     storage::BufferPool* pool) {
  return RunAllStrategies(rel, options, pool, &core::TrainNn,
                          &nn::Mlp::MaxAbsDiffParams);
}

/// Machine-readable run recorder behind the shared `--json=PATH` flag:
/// every recorded TrainReport becomes one JSON object, written as an array
/// on destruction. Lets CI and scripts track perf trajectories as
/// BENCH_*.json without parsing the human tables.
///
/// Schema — the file is a JSON array; every element is one training run:
///   bench                string   bench binary name (constructor arg)
///   section, value       string   sweep coordinates (e.g. dataset, knob)
///   algorithm            string   report tag, "<M|S|F>-<MODEL>"
///   wall_seconds         number   whole-run wall time
///   materialize_seconds  number   M-* join+write share of wall_seconds
///   threads              int      exec/ workers used
///   iterations           int      EM iterations / SGD epochs run
///   objective            number|null  final objective (null = non-finite)
///   mults, adds, subs, exps   int   op-count deltas over the run
///   pages_read, pages_written int   physical page I/O over the run
///   prefetch_reads, prefetch_hits int  async I/O plane split
///   stall_seconds        number   demand-read stall time
///   morsel_chunks        int      full-pass chunk count (0 = mini-batch)
///   steals               int      cross-worker chunk acquisitions
///   shards               int      effective rid-range shard count (1 =
///                                 unsharded; field always present)
///   busy_min_seconds, busy_max_seconds  number  per-worker busy range
///                                 (present when the run recorded it)
///   shard_scan_seconds   [number] per-shard scan wall time, shard-id
///                                 order (present when shards > 1)
///   shard_stall_seconds  [number] per-shard demand-stall time (ditto)
///   shard_pages_read     [int]    per-shard physical reads (ditto)
///   phases               object   per-phase parallel wall seconds keyed
///                                 by phase name (present when the run
///                                 recorded phase timings)
///   manifest             object   RunManifest::ToJson() — the resolved
///                                 config + git describe of this invocation
///                                 (identical across the file's rows)
///   metrics              object   obs registry delta over the run
///                                 (SnapshotToJson: counters flat,
///                                 histograms as .count/.sum_micros/
///                                 .mean_micros — timings only, never
///                                 compared bitwise)
class JsonReport {
 public:
  JsonReport(const char* bench_name, const ArgParser& args,
             int64_t default_morsel_rows = exec::kDefaultMorselRows,
             int default_threads = 1)
      : bench_(bench_name),
        path_(args.GetString("json", "")),
        manifest_(obs::RunManifest::FromArgs(bench_name, args,
                                             default_morsel_rows,
                                             default_threads)
                      .ToJson()) {}
  ~JsonReport() { Write(); }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  bool enabled() const { return !path_.empty(); }

  /// Rows recorded from now on carry `"family": family` (none when empty).
  void SetFamily(const std::string& family) { family_ = family; }

  /// Records one TrainReport under a sweep section and value. The file is
  /// rewritten after every row, so rows recorded before a Die()/exit on a
  /// later sweep run survive.
  void Add(const std::string& section, const std::string& value,
           const core::TrainReport& r) {
    if (!enabled()) return;
    std::ostringstream row;
    row << "  {\"bench\": \"" << bench_ << "\", ";
    if (!family_.empty()) row << "\"family\": \"" << family_ << "\", ";
    row << "\"section\": \"" << section
        << "\", \"value\": \"" << value << "\", \"algorithm\": \""
        << r.algorithm << "\", \"wall_seconds\": " << JsonDouble(r.wall_seconds)
        << ", \"materialize_seconds\": " << JsonDouble(r.materialize_seconds)
        << ", \"threads\": " << r.threads
        << ", \"iterations\": " << r.iterations << ", \"objective\": "
        // JSON has no inf/nan literals; a diverged run records null.
        << JsonDouble(r.final_objective);
    row << ", \"mults\": " << r.ops.mults << ", \"adds\": " << r.ops.adds
        << ", \"subs\": " << r.ops.subs << ", \"exps\": " << r.ops.exps
        << ", \"pages_read\": " << r.io.pages_read
        << ", \"pages_written\": " << r.io.pages_written
        << ", \"prefetch_reads\": " << r.io.prefetch_reads
        << ", \"prefetch_hits\": " << r.io.prefetch_hits
        << ", \"stall_seconds\": "
        << JsonDouble(static_cast<double>(r.io.stall_micros) * 1e-6)
        << ", \"morsel_chunks\": " << r.morsel_chunks
        << ", \"steals\": " << r.steals << ", \"shards\": " << r.shards;
    if (!r.worker_busy_seconds.empty()) {
      const auto [lo, hi] = r.BusyRange();
      row << ", \"busy_min_seconds\": " << JsonDouble(lo)
          << ", \"busy_max_seconds\": " << JsonDouble(hi);
    }
    if (r.shards > 1 && !r.shard_stats.empty()) {
      row << ", \"shard_scan_seconds\": [";
      for (size_t k = 0; k < r.shard_stats.size(); ++k) {
        row << (k > 0 ? ", " : "")
            << JsonDouble(r.shard_stats[k].scan_seconds);
      }
      row << "], \"shard_stall_seconds\": [";
      for (size_t k = 0; k < r.shard_stats.size(); ++k) {
        row << (k > 0 ? ", " : "")
            << JsonDouble(static_cast<double>(r.shard_stats[k].io.stall_micros) *
                          1e-6);
      }
      row << "], \"shard_pages_read\": [";
      for (size_t k = 0; k < r.shard_stats.size(); ++k) {
        row << (k > 0 ? ", " : "") << r.shard_stats[k].io.pages_read;
      }
      row << "]";
    }
    if (!r.phases.empty()) {
      // Per-phase parallel wall timings (first_layer_fwd, w1_grad, e_step,
      // ...) — what the kernel-plane sweeps compare across backends.
      row << ", \"phases\": {";
      for (size_t k = 0; k < r.phases.size(); ++k) {
        row << (k > 0 ? ", " : "") << "\"" << r.phases[k].name
            << "\": " << JsonDouble(r.phases[k].seconds);
      }
      row << "}";
    }
    row << ", \"manifest\": " << manifest_
        << ", \"metrics\": " << obs::SnapshotToJson(r.metrics) << "}";
    rows_.push_back(row.str());
    Write();
  }

  /// Records all three strategies of one sweep row.
  void Add(const std::string& section, const std::string& value,
           const Trio& t) {
    Add(section, value, t.m);
    Add(section, value, t.s);
    Add(section, value, t.f);
  }

  void Write() {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --json=%s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  std::string bench_;
  std::string path_;
  std::string manifest_;
  std::string family_;
  std::vector<std::string> rows_;
};

inline void PrintTrioHeader(const char* sweep_col) {
  std::printf("%-14s %10s %10s %10s %8s %8s %10s %12s\n", sweep_col,
              "M(s)", "S(s)", "F(s)", "S/F", "M/F", "mult S/F",
              "pages M/F");
}

inline void PrintTrioRow(const std::string& sweep_val, const Trio& t) {
  const double sf = t.f.wall_seconds > 0 ? t.s.wall_seconds / t.f.wall_seconds
                                         : 0.0;
  const double mf = t.f.wall_seconds > 0 ? t.m.wall_seconds / t.f.wall_seconds
                                         : 0.0;
  const double mult_ratio =
      t.f.ops.mults > 0 ? static_cast<double>(t.s.ops.mults) /
                              static_cast<double>(t.f.ops.mults)
                        : 0.0;
  const double page_ratio =
      t.f.io.pages_read > 0
          ? static_cast<double>(t.m.io.pages_read + t.m.io.pages_written) /
                static_cast<double>(t.f.io.pages_read)
          : 0.0;
  std::printf("%-14s %10.3f %10.3f %10.3f %8.2f %8.2f %10.2f %12.2f\n",
              sweep_val.c_str(), t.m.wall_seconds, t.s.wall_seconds,
              t.f.wall_seconds, sf, mf, mult_ratio, page_ratio);
}

/// Prints one sweep row and records it under `--json` in one call.
inline void EmitTrioRow(JsonReport* json, const std::string& section,
                        const std::string& value, const Trio& t) {
  PrintTrioRow(value, t);
  if (json != nullptr) json->Add(section, value, t);
}

}  // namespace factorml::bench

#endif  // FACTORML_BENCH_BENCH_UTIL_H_
