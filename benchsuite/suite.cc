// The repository benchmark's measuring process: runs ONE workload and
// writes every raw sample as JSON (`--out=PATH`); benchmark.py turns the
// samples into the named metrics and checks correctness.
//
// Steps, in order:
//   1. generate the relations;
//   2. kWarmupRounds M/S/F rounds, kept for the correctness checks but
//      never timed (the first round after one warm-up still ran
//      measurably faster than the rest, which made a minimum unsteady);
//   3. interleaved M/S/F rounds with tracing off until `--seconds` have
//      passed (at least three rounds); the order rotates MSF, SFM, FMS so
//      no strategy always runs first or last. The relations are generated
//      again before a round every `--seconds`/kSetupSamples: on a shared
//      host, set-up time can switch between two speeds every few seconds,
//      and back-to-back samples then all land in one of them;
//   4. with `--trace=1` only: the layer probes (public storage/join entry
//      points timed by this file, 5 reps each, min, cold pool), then one
//      traced M/S/F round, each run wrapped in a `bench.train` span.
// The buffer pool is cleared before every run and every probe rep, so
// each starts cold, as a fresh training job would.
//
//   bench_suite --workload=gmm-fit --seed=1 --seconds=20 --trace=0
//               --dir=SCRATCH --out=RESULT.json

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "core/factorml.h"
#include "join/assemble.h"
#include "join/attribute_view.h"
#include "join/join_cursor.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace factorml::benchsuite {
namespace {

using core::Algorithm;

enum class Family { kGmm, kLinreg, kNn, kKmeans };

/// One workload: the relation shapes, the pool, and the strategy knobs.
/// README.md says why each one exists, and why only linreg-spill runs two
/// threads and no workload runs shard worker processes.
struct Workload {
  const char* name;
  Family family;
  int64_t s_rows;
  size_t s_feats;
  std::vector<data::AttributeSpec> attrs;
  bool target;
  size_t pool_pages;
  int threads;
  bool steal;
  int64_t morsel_rows;
  int shards;
  la::KernelMode kernels;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"gmm-fit", Family::kGmm, 300000, 5, {{6000, 15}}, false, 16384,
       /*threads=*/1, /*steal=*/false, /*morsel_rows=*/0, /*shards=*/1,
       la::KernelMode::kSimd},
      {"linreg-spill", Family::kLinreg, 750000, 5, {{15000, 15}, {1500, 10}},
       true, 512, 2, true, 4096, 1, la::KernelMode::kScalar},
      {"nn-epochs", Family::kNn, 200000, 5, {{2000, 15}}, true, 8192, 1,
       false, 0, 1, la::KernelMode::kSimd},
      {"kmeans-shards", Family::kKmeans, 500000, 5, {{10000, 15}}, false,
       8192, 1, false, 0, 2, la::KernelMode::kSimd},
  };
  return workloads;
}

constexpr Algorithm kAlgos[3] = {Algorithm::kMaterialized,
                                 Algorithm::kStreaming,
                                 Algorithm::kFactorized};
constexpr int kSetupSamples = 5;
constexpr int kWarmupRounds = 2;
constexpr int kProbeReps = 5;
constexpr int kMinRounds = 3;
// 466k events per thread. The largest traced round (kmeans-shards) records
// ~120k; a full ring drops every later event, which would corrupt every
// self time, so benchmark.py fails a run that drops any.
constexpr int64_t kTraceBufferKb = 32 * 1024;

double CpuSeconds() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

int64_t PeakRssKb() {
  struct rusage ru;
  return getrusage(RUSAGE_SELF, &ru) == 0 ? ru.ru_maxrss : 0;
}

/// The strategy knobs every family's options struct carries.
template <typename Options>
void ApplyStrategy(const Workload& w, const std::string& temp_dir,
                   Options* o) {
  o->threads = w.threads;
  o->steal = w.steal;
  o->morsel_rows = w.morsel_rows;
  o->shards = w.shards;
  o->kernels = w.kernels;
  o->temp_dir = temp_dir;
}

/// Appends the JSON object of one training run to `os`.
void AppendRun(std::ostringstream& os, bool first, char strategy,
               const char* phase, int round, const Status& st, double wall,
               double cpu, const core::TrainReport& r) {
  os << (first ? "" : ",\n") << "  {\"strategy\": \"" << strategy
     << "\", \"phase\": \"" << phase << "\", \"round\": " << round
     << ", \"ok\": " << (st.ok() ? "true" : "false") << ", \"error\": \""
     << JsonEscape(st.ok() ? "" : st.ToString()) << "\""
     << ", \"wall_s\": " << JsonDouble(wall)
     << ", \"cpu_s\": " << JsonDouble(cpu)
     << ", \"objective\": " << JsonDouble(r.final_objective)
     << ", \"mults\": " << r.ops.mults
     << ", \"adds\": " << r.ops.adds << ", \"subs\": " << r.ops.subs
     << ", \"exps\": " << r.ops.exps
     << ", \"pages_read\": " << r.io.pages_read
     << ", \"pages_written\": " << r.io.pages_written
     << ", \"pool_hits\": " << r.io.pool_hits
     << ", \"pool_misses\": " << r.io.pool_misses << ", \"stall_s\": "
     << JsonDouble(static_cast<double>(r.io.stall_micros) * 1e-6)
     << ", \"materialize_s\": " << JsonDouble(r.materialize_seconds)
     << ", \"metrics\": " << obs::SnapshotToJson(r.metrics) << "}";
}

/// Minimum over kProbeReps cold-pool calls of `fn`, which returns false on
/// failure; NaN (JSON null) then.
double ProbeMin(storage::BufferPool* pool, const std::function<bool()>& fn) {
  double best = INFINITY;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    pool->Clear();
    Stopwatch watch;
    if (!fn()) return NAN;
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// Times the public storage and join entry points the training runs sit
/// on, over this workload's relations.
std::string RunProbes(join::NormalizedRelations* rel,
                      storage::BufferPool* pool) {
  const int64_t n = rel->s.num_rows();
  const size_t batch = 8192;
  const auto scan_rows = [&] {
    storage::TableScanner scanner(&rel->s, pool, batch);
    storage::RowBatch b;
    int64_t rows = 0;
    while (scanner.Next(&b)) rows += static_cast<int64_t>(b.num_rows);
    return scanner.status().ok() && rows == n;
  };
  const auto scan_strips = [&] {
    storage::TableScanner scanner(&rel->s, pool, batch);
    storage::ColumnStrips strips;
    int64_t rows = 0;
    while (scanner.NextStrips(core::pipeline::kDefaultStripRows, &strips)) {
      rows += static_cast<int64_t>(strips.num_rows);
    }
    return scanner.status().ok() && rows == n;
  };
  const auto index = [&] { return rel->BuildIndex(pool).ok(); };
  std::vector<join::AttributeTableView> views(rel->num_joins());
  const auto view_load = [&] {
    for (size_t i = 0; i < views.size(); ++i) {
      if (!views[i].Load(rel->attrs[i], pool).ok()) return false;
    }
    return true;
  };
  // Join assembly alone: views are loaded once outside the timing, as the
  // S strategy loads them once per pass.
  const auto assemble = [&] {
    join::JoinCursor cursor(rel, pool, batch);
    join::JoinBatch jb;
    std::vector<double> row(rel->total_dims());
    int64_t rows = 0;
    double sink = 0.0;
    while (cursor.Next(&jb)) {
      for (size_t r = 0; r < jb.s_rows.num_rows; ++r) {
        join::AssembleJoinedRow(*rel, jb.s_rows, r, views, row.data());
        sink += row.back();
      }
      rows += static_cast<int64_t>(jb.s_rows.num_rows);
    }
    return cursor.status().ok() && rows == n && std::isfinite(sink);
  };
  std::ostringstream os;
  os << "{\"storage.scan_rows_s\": " << JsonDouble(ProbeMin(pool, scan_rows))
     << ", \"storage.scan_strips_s\": "
     << JsonDouble(ProbeMin(pool, scan_strips))
     << ", \"join.index_s\": " << JsonDouble(ProbeMin(pool, index))
     << ", \"join.view_load_s\": " << JsonDouble(ProbeMin(pool, view_load));
  view_load();
  os << ", \"join.assemble_s\": " << JsonDouble(ProbeMin(pool, assemble))
     << "}";
  return os.str();
}

struct Flags {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string dir;
  std::string out;
};

/// The configuration the workload trains with, for the trace file. The
/// flags of bench_suite name none of it, so RunManifest::FromArgs would
/// record its defaults instead.
obs::RunManifest Manifest(const Flags& f) {
  const Workload& w = *f.workload;
  const bool simd = w.kernels == la::KernelMode::kSimd;
  obs::RunManifest m;
  m.binary = "bench_suite";
  m.git_describe = obs::GitDescribe();
  m.threads = w.threads;
  m.steal = w.steal;
  m.morsel_rows = w.morsel_rows;
  m.shards = w.shards;
  m.kernels = simd ? "simd" : "scalar";
  m.kernel_backend = simd ? la::SimdBackendName() : "scalar";
  m.cpu_features = la::CpuFeatures();
  m.buffer_pages = static_cast<int64_t>(w.pool_pages);
  m.seed = f.seed;
  m.schema = w.name;
  m.trace_buffer_kb = kTraceBufferKb;
  return m;
}

template <typename Options, typename Model>
int RunWorkload(const Flags& f, Options options,
                Result<Model> (*train)(const join::NormalizedRelations&,
                                       const Options&, Algorithm,
                                       storage::BufferPool*,
                                       core::TrainReport*),
                double (*param_diff)(const Model&, const Model&)) {
  const Workload& w = *f.workload;
  ApplyStrategy(w, f.dir, &options);
  storage::BufferPool pool(w.pool_pages);

  // Set-up: write the tables and build the FK1 index. Same seed, same
  // relations, so regenerating between rounds changes no result.
  data::SyntheticSpec spec;
  spec.dir = f.dir;
  spec.name = "wl";
  spec.s_rows = w.s_rows;
  spec.s_feats = w.s_feats;
  spec.attrs = w.attrs;
  spec.with_target = w.target;
  spec.seed = f.seed;
  std::vector<double> setup_s;
  std::optional<join::NormalizedRelations> rel;
  const auto setup = [&] {
    rel.reset();
    pool.Clear();
    Stopwatch watch;
    auto generated = data::GenerateSynthetic(spec, &pool);
    if (!generated.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   generated.status().ToString().c_str());
      return false;
    }
    setup_s.push_back(watch.ElapsedSeconds());
    rel.emplace(std::move(generated).value());
    return true;
  };
  if (!setup()) return 1;

  std::ostringstream runs, diffs;
  bool first_run = true, first_diff = true;
  // One M/S/F round, starting `rotation` places into MSF; records every
  // run and the M/F parameter diff.
  const auto round = [&](const char* phase, int r, int rotation) {
    std::optional<Model> m_model, f_model;
    for (int k = 0; k < 3; ++k) {
      const Algorithm algo = kAlgos[(k + rotation) % 3];
      const char strategy = core::AlgorithmPrefix(algo);
      pool.Clear();
      core::TrainReport report;
      const double cpu0 = CpuSeconds();
      Stopwatch watch;
      Result<Model> model = [&] {
        obs::TraceSpan span("bench", "bench.train");
        span.Arg("strategy", static_cast<int64_t>(algo));
        return train(*rel, options, algo, &pool, &report);
      }();
      const double wall = watch.ElapsedSeconds();
      const double cpu = CpuSeconds() - cpu0;
      AppendRun(runs, first_run, strategy, phase, r, model.status(), wall,
                cpu, report);
      first_run = false;
      if (!model.ok()) continue;
      if (algo == Algorithm::kMaterialized) m_model = std::move(model).value();
      if (algo == Algorithm::kFactorized) f_model = std::move(model).value();
    }
    if (m_model && f_model) {
      diffs << (first_diff ? "" : ", ") << "{\"phase\": \"" << phase
            << "\", \"round\": " << r << ", \"diff\": "
            << JsonDouble(param_diff(*m_model, *f_model)) << "}";
      first_diff = false;
    }
  };

  // 2-3. Warm-up, then the timed rounds.
  for (int r = 0; r < kWarmupRounds; ++r) round("warmup", r, r % 3);
  Stopwatch timed;
  int rounds = 0;
  double next_setup = 0.0;
  while (rounds < kMinRounds || timed.ElapsedSeconds() < f.seconds) {
    if (timed.ElapsedSeconds() >= next_setup) {
      if (!setup()) return 1;
      next_setup += f.seconds / kSetupSamples;
    }
    round("timed", rounds, rounds % 3);
    ++rounds;
  }
  const int64_t peak_rss_kb = PeakRssKb();

  // 4. Probes and the traced round.
  std::string probes = "{}";
  std::string trace_json = "null";
  if (f.trace) {
    probes = RunProbes(&*rel, &pool);
    obs::Tracer& tracer = obs::Tracer::Instance();
    tracer.Start(static_cast<size_t>(kTraceBufferKb));
    round("traced", 0, 0);
    tracer.Stop();
    const std::string path = f.dir + "/trace.json";
    const Status st = tracer.WriteJson(path, Manifest(f).ToJson());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    trace_json = "{\"path\": \"" + JsonEscape(path) +
                 "\", \"events\": " + std::to_string(tracer.TotalEvents()) +
                 ", \"dropped\": " + std::to_string(tracer.TotalDropped()) +
                 "}";
  }

  std::ofstream out(f.out);
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << f.seed
      << ", \"timed_rounds\": " << rounds << ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonDouble(setup_s[i]);
  }
  out << "], \"peak_rss_kb\": " << peak_rss_kb << ",\n\"probes\": " << probes
      << ",\n\"trace\": " << trace_json << ",\n\"mf_param_diff\": ["
      << diffs.str() << "],\n\"runs\": [\n"
      << runs.str() << "\n]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write --out=%s\n", f.out.c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  Flags f;
  const std::string name = args.GetString("workload", "");
  for (const Workload& w : Workloads()) {
    if (name == w.name) f.workload = &w;
  }
  f.dir = args.GetString("dir", "");
  f.out = args.GetString("out", "");
  if (f.workload == nullptr || f.dir.empty() || f.out.empty()) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload=NAME --dir=SCRATCH "
                 "--out=RESULT.json [--seed=N] [--seconds=S] [--trace=0|1]\n"
                 "workloads:");
    for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  f.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  f.seconds = args.GetDouble("seconds", 20.0);
  f.trace = args.GetInt("trace", 0) != 0;

  const Workload& w = *f.workload;
  switch (w.family) {
    case Family::kGmm: {
      gmm::GmmOptions o;
      o.num_components = 5;
      o.max_iters = 3;
      return RunWorkload(f, o, &core::TrainGmm, &gmm::GmmParams::MaxAbsDiff);
    }
    case Family::kLinreg:
      return RunWorkload(f, linreg::LinregOptions{}, &core::TrainLinreg,
                         &linreg::LinregModel::MaxAbsDiff);
    case Family::kNn: {
      nn::NnOptions o;
      o.hidden = {50};
      o.activation = nn::Activation::kSigmoid;
      o.epochs = 2;
      o.batch_rows = 1024;
      return RunWorkload(f, o, &core::TrainNn, &nn::Mlp::MaxAbsDiffParams);
    }
    case Family::kKmeans: {
      kmeans::KmeansOptions o;
      o.num_clusters = 8;
      o.max_iters = 10;
      return RunWorkload(f, o, &core::TrainKmeans,
                         &kmeans::KmeansModel::MaxAbsDiff);
    }
  }
  return 2;
}

}  // namespace
}  // namespace factorml::benchsuite

int main(int argc, char** argv) {
  return factorml::benchsuite::Main(argc, argv);
}
