// factorml_cli — command-line delivery of the factorized trainers (the
// paper's closing question of how to deliver factorization to end users:
// here, as a standalone tool over the library).
//
// Subcommands:
//   generate   --dir=D [--ns=N --nr=N1[,N2..] --ds=D --dr=D1[,D2..]]
//              [--target] [--one_hot] [--seed=S]
//              Creates s.fml / r1.fml ... under --dir (or --shape=<name>
//              for a published real-dataset shape, with --scale).
//   import     --s_csv=F --r_csv=F1[,F2..] --dir=D [--target]
//              Imports normalized relations from CSV files (S keys first:
//              SID, FK1..FKq; attribute keys: RID).
//   stats      --dir=D [--target]
//              Prints joined-table feature statistics computed without
//              joining (factorized aggregates).
//   train      --dir=D --model=gmm|nn|linreg|kmeans|logreg
//              [--algo=f|s|m|all] (model-specific flags as below)
//   train-gmm  --dir=D [--algo=f|s|m|all] [--k=5 --iters=10] [--target]
//   train-nn   --dir=D [--algo=f|s|m|all] [--nh=50 --epochs=10
//              --lr=0.05 --batch=1024 --act=sigmoid|tanh|relu|identity
//              --dropout=0 --momentum=0 --shuffle]
//   train-linreg --dir=D [--algo=f|s|m|all] [--l2=1e-3 --no_intercept]
//   train-kmeans --dir=D [--algo=f|s|m|all] [--k=5 --iters=10 --tol=0]
//              [--target]
//   train-logreg --dir=D [--algo=f|s|m|all] [--l2=1e-3 --iters=4 --tol=0
//              --no_intercept]
//   export     --dir=D --out=F.csv [--table=s|r1|r2...]
//
// Every train run prints a TrainReport (wall time, page I/O, flops).
// Train subcommands take no `--seed` (exit 2): every trainer fixes its
// own initialization. The retired shard-backend flags `--shard-backend`,
// `--shard-timeout-ms` and `--factormld` also exit 2: shards always run
// in this process, and a flag that was silently ignored would look like
// it still picked a backend.
// `--threads=N` (any subcommand, default 1) runs the trainers on the
// exec/ morsel-driven parallel runtime; --threads=1 is bit-identical to
// the serial reproduction. `--buffer-pages=N` (train subcommands, default
// 8192) sizes the buffer pool. `--io_delay_us=N` (any subcommand, default
// 0, at most 1000000) adds simulated device latency to every page
// transfer; values outside that range exit 2.
//
// `--morsel-rows=N` (any train subcommand, default 4096) sizes the chunks
// of every full pass: the pass becomes fixed N-row chunks (whole FK1 runs
// for the S/F strategies) reduced in chunk order, so results depend on
// the data and N but not on --threads. `--steal=on` additionally lets
// idle workers take chunks from busy ones — same bits, better balance on
// skewed FK1 runs.
//
// `--prefetch=on` (any train subcommand, default off) turns on the
// unified I/O cursor plane's asynchronous double-buffered prefetch: while
// a worker computes on one morsel, a background I/O crew lands the pages
// of its next scheduled morsel (and the next `--prefetch-depth=N`
// batches, default 2) in its buffer pool. Residency-only — same bits
// either way; the TrainReport gains the prefetch hit rate and demand
// stall time.
//
// `--shards=N` (any full-pass train subcommand, default 1) runs the pass
// through the rid-range shard plane: the chunk plan is split into N
// contiguous spans, each span is scanned as its own shard (own IoStats
// window and busy time in the TrainReport), its accumulator slots are
// round-tripped through serialized ShardDelta bytes — so each shard's
// contribution is provably whole — and the deltas merge in shard-id
// order. Objectives, params and op counts are bit-identical to
// --shards=1 at the same --morsel-rows for any --threads, --steal and
// --prefetch, and total page I/O matches too when steal and prefetch are
// off. The NN family (mini-batch SGD) rejects --shards > 1.
//
// `--kernels=scalar|simd` (any train subcommand, default scalar) selects
// the compute kernel table and nothing else: under both, pages are
// decoded (or joined rows assembled) into cache-blocked column-major
// strips and the models consume whole strips per kernel call. `scalar`
// replays the seed's per-row expressions in row order — bit-identical
// objectives, params, op counts and page I/O. `simd` swaps in the
// runtime-dispatched vector kernels (AVX2+FMA where the CPU has it,
// portable 32-byte vector lanes otherwise). Op counts and page I/O stay
// exactly equal to scalar at the same schedule; floating-point results
// agree to reassociation tolerance. Unknown values exit 2 listing the
// choices.
//
// `--trace=PATH` (any subcommand) records per-worker runtime spans —
// parallel regions, morsel executions (owner vs stolen), demand reads,
// prefetch requests, shard scans and delta merges, model phases — and
// writes Chrome trace-event JSON to PATH at exit (open in Perfetto or
// chrome://tracing), plus the run manifest as PATH.manifest.json.
// `--trace-buffer-kb=N` (default 1024) sizes each worker's ring buffer;
// overflow drops events (counted, with a `warning:` line on stderr at
// exit), never blocks. Tracing does not perturb results: objectives, op
// counts and page I/O stay bit-identical to the untraced run (obs_test
// pins this).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/factorml.h"
#include "data/csv.h"
#include "exec/thread_pool.h"
#include "obs/manifest.h"
#include "obs/trace.h"

namespace factorml {
namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "factorml_cli: %s\n", msg.c_str());
  return 1;
}

int FailStatus(const Status& st) { return Fail(st.ToString()); }

/// Loads relations previously written by `generate` or `import`:
/// <dir>/s.fml plus <dir>/r1.fml, r2.fml, ... (as many as exist).
Result<join::NormalizedRelations> LoadRelations(const std::string& dir,
                                                bool has_target,
                                                storage::BufferPool* pool) {
  FML_ASSIGN_OR_RETURN(storage::Table s, storage::Table::Open(dir + "/s.fml"));
  std::vector<storage::Table> attrs;
  for (int i = 1;; ++i) {
    auto t = storage::Table::Open(dir + "/r" + std::to_string(i) + ".fml");
    if (!t.ok()) break;
    attrs.push_back(std::move(t).value());
  }
  if (attrs.empty()) {
    return Status::NotFound("no attribute tables (r1.fml, ...) in " + dir);
  }
  join::NormalizedRelations rel(std::move(s), std::move(attrs), has_target);
  FML_RETURN_IF_ERROR(rel.Validate());
  FML_RETURN_IF_ERROR(rel.BuildIndex(pool));
  return rel;
}

/// Fills the strategy half of a family's options from the shared flags
/// (core::pipeline::StrategyOptionsFromArgs); an absent flag keeps the
/// family's default, like NN's 1024-row --batch. The M strategy
/// materializes under the data dir.
template <typename Options>
void SetStrategy(const ArgParser& args, const std::string& dir, Options* opt) {
  core::pipeline::StrategyOptions& strategy = *opt;
  strategy = core::pipeline::StrategyOptionsFromArgs(args, strategy);
  strategy.temp_dir = dir;
}

/// Parses `--algo`; unknown values list the valid choices instead of
/// silently falling back.
Result<std::vector<core::Algorithm>> ParseAlgos(const std::string& spec) {
  if (spec == "m") {
    return std::vector<core::Algorithm>{core::Algorithm::kMaterialized};
  }
  if (spec == "s") {
    return std::vector<core::Algorithm>{core::Algorithm::kStreaming};
  }
  if (spec == "f") {
    return std::vector<core::Algorithm>{core::Algorithm::kFactorized};
  }
  if (spec == "all") {
    return std::vector<core::Algorithm>{core::Algorithm::kMaterialized,
                                        core::Algorithm::kStreaming,
                                        core::Algorithm::kFactorized};
  }
  return Status::InvalidArgument(
      "unknown --algo '" + spec +
      "' (valid: m = materialized, s = streaming, f = factorized, all)");
}

int CmdGenerate(const ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Fail("generate requires --dir");
  const auto seed = static_cast<uint64_t>(
      args.GetBoundedInt("seed", 42, 0, INT64_MAX, "must be an integer >= 0"));
  storage::BufferPool pool(1024);

  const std::string shape_name = args.GetString("shape", "");
  if (!shape_name.empty()) {
    auto shape = data::FindRealShape(shape_name);
    if (!shape.ok()) return FailStatus(shape.status());
    auto rel = data::GenerateRealShape(
        shape.value(), dir, &pool, args.GetDouble("scale", 1.0), seed,
        args.GetBool("target", false));
    if (!rel.ok()) return FailStatus(rel.status());
    std::printf("generated shape %s under %s (nS=%lld)\n",
                shape_name.c_str(), dir.c_str(),
                static_cast<long long>(rel->s.num_rows()));
    return 0;
  }

  data::SyntheticSpec spec;
  spec.dir = dir;
  spec.name = "cli";
  spec.s_rows = args.GetPositiveInt("ns", 100000);
  spec.s_feats = static_cast<size_t>(args.GetPositiveInt("ds", 5));
  const auto nr = args.GetPositiveIntList("nr", {1000});
  const auto dr = args.GetPositiveIntList("dr", {15});
  if (nr.size() != dr.size()) {
    return Fail("--nr and --dr must have the same number of entries");
  }
  for (size_t i = 0; i < nr.size(); ++i) {
    spec.attrs.push_back(
        data::AttributeSpec{nr[i], static_cast<size_t>(dr[i])});
  }
  spec.with_target = args.GetBool("target", false);
  spec.one_hot = args.GetBool("one_hot", false);
  spec.seed = seed;
  auto rel = data::GenerateSynthetic(spec, &pool);
  if (!rel.ok()) return FailStatus(rel.status());
  // Rename to the canonical s.fml / rI.fml layout expected by LoadRelations.
  std::rename((dir + "/cli_s.fml").c_str(), (dir + "/s.fml").c_str());
  for (size_t i = 1; i <= nr.size(); ++i) {
    std::rename((dir + "/cli_r" + std::to_string(i) + ".fml").c_str(),
                (dir + "/r" + std::to_string(i) + ".fml").c_str());
  }
  std::printf("generated %lld fact rows, %zu attribute table(s) under %s\n",
              static_cast<long long>(spec.s_rows), spec.attrs.size(),
              dir.c_str());
  return 0;
}

int CmdImport(const ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  const std::string s_csv = args.GetString("s_csv", "");
  const std::string r_csvs = args.GetString("r_csv", "");
  if (dir.empty() || s_csv.empty() || r_csvs.empty()) {
    return Fail("import requires --dir, --s_csv and --r_csv");
  }
  std::vector<std::string> r_list;
  std::string cur;
  for (const char c : r_csvs + ",") {
    if (c == ',') {
      if (!cur.empty()) r_list.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  data::CsvImportOptions s_opt;
  s_opt.num_keys = 1 + r_list.size();  // SID + one FK per attribute table
  s_opt.skip_bad_rows = args.GetBool("skip_bad_rows", false);
  auto s = data::ImportCsv(s_csv, dir + "/s.fml", s_opt);
  if (!s.ok()) return FailStatus(s.status());
  data::CsvImportOptions r_opt;
  r_opt.num_keys = 1;
  r_opt.skip_bad_rows = s_opt.skip_bad_rows;
  for (size_t i = 0; i < r_list.size(); ++i) {
    auto r = data::ImportCsv(r_list[i],
                             dir + "/r" + std::to_string(i + 1) + ".fml",
                             r_opt);
    if (!r.ok()) return FailStatus(r.status());
  }
  std::printf("imported %lld fact rows and %zu attribute table(s)\n",
              static_cast<long long>(s->num_rows()), r_list.size());
  return 0;
}

int CmdStats(const ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Fail("stats requires --dir");
  storage::BufferPool pool(4096);
  auto rel = LoadRelations(dir, args.GetBool("target", false), &pool);
  if (!rel.ok()) return FailStatus(rel.status());
  auto stats = core::ComputeJoinedFeatureStats(rel.value(), &pool);
  if (!stats.ok()) return FailStatus(stats.status());
  std::printf("joined feature statistics (d=%zu), computed factorized:\n",
              stats->dims());
  std::printf("%6s %14s %14s\n", "col", "mean", "stddev");
  for (size_t j = 0; j < stats->dims(); ++j) {
    std::printf("%6zu %14.6f %14.6f\n", j, stats->mean[j],
                stats->stddev[j]);
  }
  return 0;
}

/// The one train body: rejects --seed and the retired shard-backend flags
/// (exit 2), checks --dir, sizes the pool, loads the relations
/// (`has_target` is the family's target rule), fills the strategy half of
/// `options`, parses --algo, then trains with the family's core::Train*
/// entry and prints one TrainReport per strategy.
template <typename Options, typename Model>
int RunTrain(const ArgParser& args, const std::string& cmd, bool has_target,
             Options options,
             Result<Model> (*train)(const join::NormalizedRelations&,
                                    const Options&, core::Algorithm,
                                    storage::BufferPool*,
                                    core::TrainReport*)) {
  // Every trainer fixes its own initialization, so a seed would only be
  // recorded in the run manifest while the run ignored it.
  if (args.Has("seed")) {
    std::fprintf(stderr,
                 "factorml_cli: invalid --seed=%s (%s takes no seed: its "
                 "initialization is fixed)\n",
                 args.GetString("seed", "").c_str(), cmd.c_str());
    return 2;
  }
  // The process shard backend is gone; ArgParser keeps unknown flags, so
  // without this a --shard-backend=process run would train in-process.
  for (const char* retired :
       {"shard-backend", "shard-timeout-ms", "factormld"}) {
    if (args.Has(retired)) {
      std::fprintf(stderr,
                   "factorml_cli: invalid --%s=%s (retired: shards always "
                   "run in this process; drop the flag)\n",
                   retired, args.GetString(retired, "").c_str());
      return 2;
    }
  }
  const std::string dir = args.GetString("dir", "");
  if (dir.empty()) return Fail(cmd + " requires --dir");
  storage::BufferPool pool(static_cast<size_t>(args.GetBufferPages(8192)));
  auto rel = LoadRelations(dir, has_target, &pool);
  if (!rel.ok()) return FailStatus(rel.status());
  SetStrategy(args, dir, &options);
  auto algos = ParseAlgos(args.GetString("algo", "all"));
  if (!algos.ok()) return FailStatus(algos.status());
  for (const auto algo : algos.value()) {
    pool.Clear();
    core::TrainReport report;
    auto model = train(rel.value(), options, algo, &pool, &report);
    if (!model.ok()) return FailStatus(model.status());
    std::printf("%s\n", report.ToString().c_str());
  }
  return 0;
}

int CmdTrainGmm(const ArgParser& args) {
  gmm::GmmOptions opt;
  opt.num_components = static_cast<size_t>(args.GetPositiveInt("k", 5));
  opt.max_iters = args.GetIterations("iters", 10);
  opt.tol = args.GetDouble("tol", 0.0);
  return RunTrain(args, "train-gmm", args.GetBool("target", false), opt,
                  &core::TrainGmm);
}

int CmdTrainNn(const ArgParser& args) {
  nn::NnOptions opt;
  opt.hidden = {static_cast<size_t>(args.GetPositiveInt("nh", 50))};
  opt.epochs = args.GetIterations("epochs", 10);
  opt.learning_rate = args.GetDouble("lr", 0.05);
  opt.shuffle = args.GetBool("shuffle", false);
  opt.hidden_dropout = args.GetDouble("dropout", 0.0);
  opt.momentum = args.GetDouble("momentum", 0.0);
  opt.weight_decay = args.GetDouble("weight_decay", 0.0);
  const std::string act = args.GetString("act", "sigmoid");
  if (act == "tanh") opt.activation = nn::Activation::kTanh;
  else if (act == "relu") opt.activation = nn::Activation::kRelu;
  else if (act == "identity") opt.activation = nn::Activation::kIdentity;
  else if (act != "sigmoid") {
    return Fail("unknown --act '" + act +
                "' (valid: sigmoid, tanh, relu, identity)");
  }
  return RunTrain(args, "train-nn", /*has_target=*/true, opt, &core::TrainNn);
}

int CmdTrainLinreg(const ArgParser& args) {
  linreg::LinregOptions opt;
  opt.l2 = args.GetDouble("l2", 1e-3);
  opt.intercept = !args.GetBool("no_intercept", false);
  return RunTrain(args, "train-linreg", /*has_target=*/true, opt,
                  &core::TrainLinreg);
}

int CmdTrainKmeans(const ArgParser& args) {
  kmeans::KmeansOptions opt;
  opt.num_clusters = static_cast<size_t>(args.GetPositiveInt("k", 5));
  opt.max_iters = args.GetIterations("iters", 10);
  opt.tol = args.GetDouble("tol", 0.0);
  return RunTrain(args, "train-kmeans", args.GetBool("target", false), opt,
                  &core::TrainKmeans);
}

int CmdTrainLogreg(const ArgParser& args) {
  logreg::LogregOptions opt;
  opt.l2 = args.GetDouble("l2", 1e-3);
  opt.intercept = !args.GetBool("no_intercept", false);
  opt.max_iters = args.GetIterations("iters", 4);
  opt.tol = args.GetDouble("tol", 0.0);
  return RunTrain(args, "train-logreg", /*has_target=*/true, opt,
                  &core::TrainLogreg);
}

/// Unified entry point: `train --model=<family>` dispatches to the family
/// trainer; unknown families list the valid choices.
int CmdTrain(const ArgParser& args) {
  const std::string model = args.GetString("model", "");
  if (model == "gmm") return CmdTrainGmm(args);
  if (model == "nn") return CmdTrainNn(args);
  if (model == "linreg") return CmdTrainLinreg(args);
  if (model == "kmeans") return CmdTrainKmeans(args);
  if (model == "logreg") return CmdTrainLogreg(args);
  return Fail("unknown --model '" + model +
              "' (valid: gmm, nn, linreg, kmeans, logreg)");
}

int CmdExport(const ArgParser& args) {
  const std::string dir = args.GetString("dir", "");
  const std::string out = args.GetString("out", "");
  if (dir.empty() || out.empty()) return Fail("export requires --dir, --out");
  const std::string which = args.GetString("table", "s");
  const std::string path = dir + "/" + which + ".fml";
  auto t = storage::Table::Open(path);
  if (!t.ok()) return FailStatus(t.status());
  storage::BufferPool pool(1024);
  const Status st = data::ExportCsv(t.value(), &pool, out);
  if (!st.ok()) return FailStatus(st);
  std::printf("exported %lld rows to %s\n",
              static_cast<long long>(t->num_rows()), out.c_str());
  return 0;
}

int Dispatch(const std::string& cmd, const ArgParser& args,
             const char* usage) {
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "import") return CmdImport(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "train") return CmdTrain(args);
  if (cmd == "train-gmm") return CmdTrainGmm(args);
  if (cmd == "train-nn") return CmdTrainNn(args);
  if (cmd == "train-linreg") return CmdTrainLinreg(args);
  if (cmd == "train-kmeans") return CmdTrainKmeans(args);
  if (cmd == "train-logreg") return CmdTrainLogreg(args);
  if (cmd == "export") return CmdExport(args);
  std::fprintf(stderr, "%s", usage);
  return Fail("unknown command: " + cmd);
}

int Main(int argc, char** argv) {
  static constexpr const char kUsage[] =
      "usage: factorml_cli "
      "<generate|import|stats|train|train-gmm|train-nn|train-linreg|"
      "train-kmeans|train-logreg|export> [--flags]\n";
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 1;
  }
  const std::string cmd = argv[1];
  ArgParser args(argc, argv);
  if (args.Has("io_delay_us")) {
    const auto us = static_cast<uint64_t>(args.GetIoDelayUs());
    storage::SetSimulatedIoLatencyMicros(us, us);
  }
  exec::SetDefaultThreads(args.GetThreads(1));
  // --trace=PATH: span tracing around the whole subcommand. The flush
  // happens after the dispatch returns (pool idle), writing the Chrome
  // trace-event JSON with the run manifest embedded as otherData plus the
  // sibling <PATH>.manifest.json artifact.
  const std::string trace_path = args.GetTracePath();
  if (!trace_path.empty()) {
    obs::Tracer::Instance().Start(
        static_cast<size_t>(args.GetTraceBufferKb()));
  }
  const int rc = Dispatch(cmd, args, kUsage);
  if (!trace_path.empty()) {
    obs::Tracer::Instance().Stop();
    const obs::RunManifest manifest =
        obs::RunManifest::FromArgs("factorml_cli " + cmd, args);
    Status st = obs::Tracer::Instance().WriteJson(trace_path,
                                                  manifest.ToJson());
    if (st.ok()) st = manifest.WriteTo(trace_path + ".manifest.json");
    if (!st.ok()) {
      std::fprintf(stderr, "trace flush failed: %s\n",
                   st.ToString().c_str());
      return rc == 0 ? 1 : rc;
    }
    const uint64_t dropped = obs::Tracer::Instance().TotalDropped();
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(
                    obs::Tracer::Instance().TotalEvents()),
                static_cast<unsigned long long>(dropped));
    if (dropped > 0) {
      std::fprintf(stderr,
                   "warning: trace dropped %llu events: the per-thread "
                   "buffer (--trace-buffer-kb=%lld) filled; rerun with a "
                   "larger value for a complete trace\n",
                   static_cast<unsigned long long>(dropped),
                   static_cast<long long>(args.GetTraceBufferKb()));
    }
  }
  return rc;
}

}  // namespace
}  // namespace factorml

int main(int argc, char** argv) { return factorml::Main(argc, argv); }
