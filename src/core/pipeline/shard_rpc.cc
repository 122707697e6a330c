// The process shard backend: coordinator (parent) and worker sides of the
// lockstep-replica protocol described in shard_rpc.h. Determinism rests on
// three facts: (1) every node applies every ShardDelta and runs
// MergeSlots in global chunk order — the exact reduction of the unsharded
// run; (2) a requeued span's rescan produces the same chunk-slot values on
// any worker (chunk slots are worker-count invariant); (3) all control
// decisions (EndPass, EndIteration, convergence) are pure functions of the
// merged state, so replicas never diverge. The DONE objective check at the
// end verifies (3) bitwise on every run.

#include "core/pipeline/shard_rpc.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "core/algorithm.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

extern char** environ;

namespace factorml::core::pipeline {

namespace {

constexpr const char* kRestartPrefix = "shard-restart: attempt ";

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Counter* RpcCounter(const char* name) {
  return obs::Registry::Instance().GetCounter(name);
}

void WriteIoStats(net::ByteWriter* w, const storage::IoStats& io) {
  w->U64(io.pages_read);
  w->U64(io.pages_written);
  w->U64(io.pool_hits);
  w->U64(io.pool_misses);
  w->U64(io.prefetch_reads);
  w->U64(io.prefetch_hits);
  w->U64(io.stall_micros);
}

Status ReadIoStats(net::ByteReader* r, storage::IoStats* io) {
  FML_RETURN_IF_ERROR(r->U64(&io->pages_read));
  FML_RETURN_IF_ERROR(r->U64(&io->pages_written));
  FML_RETURN_IF_ERROR(r->U64(&io->pool_hits));
  FML_RETURN_IF_ERROR(r->U64(&io->pool_misses));
  FML_RETURN_IF_ERROR(r->U64(&io->prefetch_reads));
  FML_RETURN_IF_ERROR(r->U64(&io->prefetch_hits));
  return r->U64(&io->stall_micros);
}

void WriteOps(net::ByteWriter* w, const OpCounters& ops) {
  w->U64(ops.mults);
  w->U64(ops.adds);
  w->U64(ops.subs);
  w->U64(ops.exps);
}

Status ReadOps(net::ByteReader* r, OpCounters* ops) {
  FML_RETURN_IF_ERROR(r->U64(&ops->mults));
  FML_RETURN_IF_ERROR(r->U64(&ops->adds));
  FML_RETURN_IF_ERROR(r->U64(&ops->subs));
  return r->U64(&ops->exps);
}

/// Coordinator-side twin of ShardWorkerDriver::MaybeInjectFault:
/// FACTORMLD_FAULT_KILL="coord:<pass_seq>" SIGKILLs the coordinating
/// parent right before it sends the PASS frames of that sequence number —
/// the checkpoint kill-resume tests' way of dying mid-iteration. The
/// "coord" prefix fails the workers' numeric sscanf, so they ignore it.
void MaybeInjectCoordinatorFault(uint64_t pass_seq) {
  const char* spec = std::getenv("FACTORMLD_FAULT_KILL");
  if (spec == nullptr || std::strncmp(spec, "coord:", 6) != 0) return;
  char* end = nullptr;
  const long long seq = std::strtoll(spec + 6, &end, 10);
  if (end == spec + 6 || seq != static_cast<long long>(pass_seq)) return;
  raise(SIGKILL);
}

/// Resolves the factormld worker binary: explicit option, $FACTORMLD, a
/// sibling of the running executable (every binary lands in the build
/// root), then $PATH via posix_spawnp.
std::string ResolveWorkerBinary(const std::string& explicit_path) {
  if (!explicit_path.empty()) return explicit_path;
  if (const char* env = std::getenv("FACTORMLD");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::string self(buf);
    const size_t slash = self.rfind('/');
    if (slash != std::string::npos) {
      const std::string sibling = self.substr(0, slash + 1) + "factormld";
      if (access(sibling.c_str(), X_OK) == 0) return sibling;
    }
  }
  return "factormld";
}

}  // namespace

// ------------------------------------------------------------- sentinel

Status ShardRestartStatus(uint32_t next_attempt) {
  return Status::FailedPrecondition(kRestartPrefix +
                                    std::to_string(next_attempt));
}

bool IsShardRestart(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind(kRestartPrefix, 0) == 0;
}

// ------------------------------------------------------------- job spec

std::string EncodeShardJobSpec(const ShardJobSpec& spec) {
  const StrategyOptions& o = spec.strategy;
  net::ByteWriter w;
  w.U32(spec.version);
  w.Str(spec.s_path);
  w.U64(spec.attr_paths.size());
  for (const auto& p : spec.attr_paths) w.Str(p);
  w.U8(spec.has_target ? 1 : 0);
  w.U64(spec.pool_pages);
  w.U8(static_cast<uint8_t>(AlgorithmPrefix(spec.algorithm)));
  w.U64(o.batch_rows);
  w.I64(o.threads);
  w.I64(o.morsel_rows);
  w.U8(o.steal ? 1 : 0);
  w.U8(o.prefetch ? 1 : 0);
  w.I64(o.prefetch_depth);
  w.I64(o.shards);
  w.U8(static_cast<uint8_t>(o.kernels));
  w.Str(o.temp_dir);
  w.U8(static_cast<uint8_t>(o.shard_backend));
  w.I64(o.shard_timeout_ms);
  w.Str(o.shard_worker_path);
  w.Str(o.checkpoint_dir);
  w.I64(o.checkpoint_every);
  w.I64(spec.worker_id);
  w.Str(spec.family);
  w.Str(spec.family_blob);
  return w.Take();
}

Result<ShardJobSpec> DecodeShardJobSpec(const std::string& bytes) {
  ShardJobSpec spec;
  StrategyOptions& o = spec.strategy;
  net::ByteReader r(bytes);
  FML_RETURN_IF_ERROR(r.U32(&spec.version));
  if (spec.version != kShardProtocolVersion) {
    return Status::InvalidArgument(
        "shard job: protocol version mismatch (got " +
        std::to_string(spec.version) + ", want " +
        std::to_string(kShardProtocolVersion) + ")");
  }
  FML_RETURN_IF_ERROR(r.Str(&spec.s_path));
  uint64_t nattrs = 0;
  FML_RETURN_IF_ERROR(r.U64(&nattrs));
  // Every path carries an 8-byte length prefix, so a count the remaining
  // bytes cannot hold is corrupt — reject it before allocating.
  if (nattrs > r.remaining() / 8) {
    return Status::InvalidArgument(
        "shard job: attr_paths count " + std::to_string(nattrs) +
        " exceeds the " + std::to_string(r.remaining()) +
        " remaining bytes");
  }
  spec.attr_paths.resize(nattrs);
  for (uint64_t i = 0; i < nattrs; ++i) {
    FML_RETURN_IF_ERROR(r.Str(&spec.attr_paths[i]));
  }
  uint8_t b = 0;
  FML_RETURN_IF_ERROR(r.U8(&b));
  spec.has_target = b != 0;
  FML_RETURN_IF_ERROR(r.U64(&spec.pool_pages));
  FML_RETURN_IF_ERROR(r.U8(&b));
  switch (b) {
    case 'M':
      spec.algorithm = Algorithm::kMaterialized;
      break;
    case 'S':
      spec.algorithm = Algorithm::kStreaming;
      break;
    case 'F':
      spec.algorithm = Algorithm::kFactorized;
      break;
    default:
      return Status::InvalidArgument("shard job: algorithm byte " +
                                     std::to_string(b) +
                                     " is not M, S or F");
  }
  uint64_t batch_rows = 0;
  int64_t threads = 0, prefetch_depth = 0, shards = 0;
  FML_RETURN_IF_ERROR(r.U64(&batch_rows));
  FML_RETURN_IF_ERROR(r.I64(&threads));
  FML_RETURN_IF_ERROR(r.I64(&o.morsel_rows));
  FML_RETURN_IF_ERROR(r.U8(&b));
  o.steal = b != 0;
  FML_RETURN_IF_ERROR(r.U8(&b));
  o.prefetch = b != 0;
  FML_RETURN_IF_ERROR(r.I64(&prefetch_depth));
  FML_RETURN_IF_ERROR(r.I64(&shards));
  // The coordinator ships resolved knobs: morsel_rows >= 1 and int counts
  // >= 1. Anything else is corrupt, never "unset".
  if (o.morsel_rows < 1) {
    return Status::InvalidArgument("shard job: morsel_rows " +
                                   std::to_string(o.morsel_rows) +
                                   " out of range");
  }
  const std::pair<const char*, int64_t> counts[] = {
      {"threads", threads},
      {"prefetch_depth", prefetch_depth},
      {"shards", shards}};
  for (const auto& [name, value] : counts) {
    if (value < 1 || value > INT_MAX) {
      return Status::InvalidArgument(std::string("shard job: ") + name +
                                     " " + std::to_string(value) +
                                     " out of range");
    }
  }
  o.batch_rows = static_cast<size_t>(batch_rows);
  o.threads = static_cast<int>(threads);
  o.prefetch_depth = static_cast<int>(prefetch_depth);
  o.shards = static_cast<int>(shards);
  FML_RETURN_IF_ERROR(r.U8(&b));
  if (b > static_cast<uint8_t>(la::KernelMode::kSimd)) {
    return Status::InvalidArgument("shard job: kernels byte " +
                                   std::to_string(b) + " out of range");
  }
  o.kernels = static_cast<la::KernelMode>(b);
  FML_RETURN_IF_ERROR(r.Str(&o.temp_dir));
  FML_RETURN_IF_ERROR(r.U8(&b));
  if (b > static_cast<uint8_t>(ShardBackend::kProcess)) {
    return Status::InvalidArgument("shard job: shard_backend byte " +
                                   std::to_string(b) + " out of range");
  }
  o.shard_backend = static_cast<ShardBackend>(b);
  FML_RETURN_IF_ERROR(r.I64(&o.shard_timeout_ms));
  FML_RETURN_IF_ERROR(r.Str(&o.shard_worker_path));
  FML_RETURN_IF_ERROR(r.Str(&o.checkpoint_dir));
  FML_RETURN_IF_ERROR(r.I64(&o.checkpoint_every));
  FML_RETURN_IF_ERROR(r.I64(&spec.worker_id));
  FML_RETURN_IF_ERROR(r.Str(&spec.family));
  FML_RETURN_IF_ERROR(r.Str(&spec.family_blob));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("shard job: trailing bytes");
  }
  return spec;
}

// ------------------------------------------------------ worker driver

Status ShardWorkerDriver::Init(AccessStrategy* strategy,
                               const StrategyOptions& options,
                               TrainReport* report) {
  // The identical deterministic split the parent computes — PlanShards is
  // a pure function of (morsel plan, shard count), and the morsel plan is
  // a pure function of (data, morsel_rows). Every PASS frame's spans are
  // verified against it.
  plan_ = exec::PlanShards(strategy->MorselPlan(), options.shards);
  report_ = report;
  if (report_ != nullptr) {
    report_->shards = std::max(plan_.num_shards(), 1);
    report_->shard_stats.assign(static_cast<size_t>(plan_.num_shards()),
                                TrainReport::ShardStat{});
    for (int k = 0; k < plan_.num_shards(); ++k) {
      report_->shard_stats[static_cast<size_t>(k)].chunk_begin =
          plan_.ChunkSpan(k).begin;
      report_->shard_stats[static_cast<size_t>(k)].chunk_end =
          plan_.ChunkSpan(k).end;
    }
  }
  return Status::OK();
}

void ShardWorkerDriver::MaybeInjectFault(uint64_t pass_seq) {
  const auto match = [&](const char* env, int64_t* extra_ms) -> bool {
    const char* spec = std::getenv(env);
    if (spec == nullptr || spec[0] == '\0') return false;
    // "<worker_id>:<pass_seq>[:<ms>]"
    long long id = -1, seq = -1, ms = 0;
    const int n = std::sscanf(spec, "%lld:%lld:%lld", &id, &seq, &ms);
    if (n < 2) return false;
    if (extra_ms != nullptr) *extra_ms = ms;
    return id == link_->worker_id() &&
           seq == static_cast<long long>(pass_seq);
  };
  if (match("FACTORMLD_FAULT_KILL", nullptr)) {
    raise(SIGKILL);
  }
  int64_t stall_ms = 0;
  static bool stalled_once = false;
  if (!stalled_once && match("FACTORMLD_FAULT_STALL", &stall_ms)) {
    stalled_once = true;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(stall_ms > 0 ? stall_ms : 3600000));
  }
}

Status ShardWorkerDriver::DecodePass(const std::string& payload,
                                     PassCmd* cmd) {
  net::ByteReader r(payload);
  FML_RETURN_IF_ERROR(r.U32(&cmd->attempt));
  FML_RETURN_IF_ERROR(r.U64(&cmd->pass_seq));
  FML_RETURN_IF_ERROR(r.I64(&cmd->pass));
  FML_RETURN_IF_ERROR(r.U32(&cmd->recover_passes));
  uint64_t nspans = 0;
  FML_RETURN_IF_ERROR(r.U64(&nspans));
  cmd->spans.resize(nspans);
  for (uint64_t i = 0; i < nspans; ++i) {
    FML_RETURN_IF_ERROR(r.I64(&cmd->spans[i].shard));
    FML_RETURN_IF_ERROR(r.I64(&cmd->spans[i].chunks.begin));
    FML_RETURN_IF_ERROR(r.I64(&cmd->spans[i].chunks.end));
  }
  // Verify every span against the locally computed plan — any mismatch
  // means the two nodes derived different shard splits, which would break
  // bit-identity silently if allowed through.
  for (const AssignedSpan& s : cmd->spans) {
    if (s.shard < 0 || s.shard >= plan_.num_shards()) {
      return Status::Internal("shard worker: span for unknown shard " +
                              std::to_string(s.shard));
    }
    const exec::Range local = plan_.ChunkSpan(static_cast<int>(s.shard));
    if (local.begin != s.chunks.begin || local.end != s.chunks.end) {
      return Status::Internal("shard worker: plan drift on shard " +
                              std::to_string(s.shard));
    }
  }
  return Status::OK();
}

Status ShardWorkerDriver::OnShardScanned(int local_shard) {
  const int64_t global = scan_shards_[static_cast<size_t>(local_shard)];
  const exec::Range chunks = scan_plan_.ChunkSpan(local_shard);
  if (discard_scan_) {
    // Recovery prologue: the rescan only exists to rebuild per-row state
    // (e.g. GMM responsibilities) on this worker. Extract-and-zero the
    // slots so no accumulator state leaks, and drop the bytes — the real
    // values were applied when this pass's APPLY originally arrived.
    ExtractShardDelta(model_, pass_, static_cast<int>(global), chunks);
    return Status::OK();
  }
  const storage::IoStats io_now = storage::GlobalIo();
  const OpCounters ops_now = GlobalOps();
  SpanResult res;
  res.shard = global;
  res.scan_seconds = scan_watch_.ElapsedSeconds();
  res.io = io_now - io_mark_;
  res.ops = ops_now - ops_mark_;
  {
    obs::TraceSpan extract_span(obs::kCatPipeline, "delta_extract");
    extract_span.Arg("shard", static_cast<int64_t>(global));
    res.delta =
        ExtractShardDelta(model_, pass_, static_cast<int>(global), chunks);
  }
  if (report_ != nullptr) {
    auto& stat = report_->shard_stats[static_cast<size_t>(global)];
    stat.io += res.io;
    stat.scan_seconds += res.scan_seconds;
  }
  results_.push_back(std::move(res));
  io_mark_ = io_now;
  ops_mark_ = ops_now;
  scan_watch_.Restart();
  return Status::OK();
}

Status ShardWorkerDriver::RunAssigned(AccessStrategy* strategy,
                                      const PipelineContext& ctx,
                                      ModelProgram* model, int pass,
                                      const PassCmd& cmd) {
  model_ = model;
  scan_plan_.spans.clear();
  scan_shards_.clear();
  for (const AssignedSpan& s : cmd.spans) {
    scan_plan_.spans.push_back(s.chunks);
    scan_shards_.push_back(s.shard);
  }
  // Recovery prologue: rescan the earlier passes of this iteration over
  // just these spans — no BeginPass replay (replaying BeginPass would
  // clobber cross-pass state like GMM's merged log-likelihood), slots
  // extracted and discarded. ModelProgram::ShardRecoverableAtPass has
  // already vouched that this reproduces the per-row state bit-exactly.
  for (uint32_t rp = 0; rp < cmd.recover_passes; ++rp) {
    discard_scan_ = true;
    pass_ = static_cast<int>(rp);
    strategy->SetShardScan(&scan_plan_, this);
    const Status st = strategy->RunPass(ctx, model, static_cast<int>(rp));
    strategy->SetShardScan(nullptr, nullptr);
    discard_scan_ = false;
    FML_RETURN_IF_ERROR(st);
  }
  // The real scan. Marks reset here so recovery work is excluded from the
  // DELTA windows — the op windows the parent folds in must match what
  // the lost worker's fault-free scan would have reported.
  pass_ = pass;
  results_.clear();
  io_mark_ = storage::GlobalIo();
  ops_mark_ = GlobalOps();
  scan_watch_.Restart();
  strategy->SetShardScan(&scan_plan_, this);
  const Status st = strategy->RunPass(ctx, model, pass);
  strategy->SetShardScan(nullptr, nullptr);
  FML_RETURN_IF_ERROR(st);
  // Ship one DELTA per scanned span.
  for (SpanResult& res : results_) {
    net::ByteWriter w;
    w.U32(link_->attempt());
    w.U64(cmd.pass_seq);
    w.I64(res.shard);
    w.F64(res.scan_seconds);
    WriteIoStats(&w, res.io);
    WriteOps(&w, res.ops);
    w.Bytes(res.delta.bytes);
    obs::TraceSpan send_span(obs::kCatRpc, "delta_send");
    send_span.Arg("shard", res.shard);
    FML_RETURN_IF_ERROR(link_->conn()->SendFrame(kFrameDelta, w.Take()));
  }
  return Status::OK();
}

Status ShardWorkerDriver::RunPass(AccessStrategy* strategy,
                                  const PipelineContext& ctx,
                                  ModelProgram* model, int pass) {
  const uint64_t seq = next_seq_;
  bool scanned_any = false;
  while (true) {
    net::Frame frame;
    {
      obs::TraceSpan wait_span(obs::kCatRpc, "worker_wait");
      FML_RETURN_IF_ERROR(link_->conn()->RecvFrame(&frame, /*timeout_ms=*/-1));
    }
    switch (frame.type) {
      case kFramePass: {
        PassCmd cmd;
        FML_RETURN_IF_ERROR(DecodePass(frame.payload, &cmd));
        if (cmd.attempt < link_->attempt()) break;  // stale, drop
        if (cmd.attempt != link_->attempt() || cmd.pass_seq != seq ||
            cmd.pass != pass) {
          return Status::Internal(
              "shard worker: PASS out of lockstep (attempt " +
              std::to_string(cmd.attempt) + " seq " +
              std::to_string(cmd.pass_seq) + " pass " +
              std::to_string(cmd.pass) + ")");
        }
        MaybeInjectFault(seq);
        FML_RETURN_IF_ERROR(RunAssigned(strategy, ctx, model, pass, cmd));
        scanned_any = true;
        break;
      }
      case kFrameApply: {
        net::ByteReader r(frame.payload);
        uint32_t attempt = 0;
        uint64_t pass_seq = 0, count = 0;
        FML_RETURN_IF_ERROR(r.U32(&attempt));
        FML_RETURN_IF_ERROR(r.U64(&pass_seq));
        if (attempt < link_->attempt()) break;  // stale, drop
        if (attempt != link_->attempt() || pass_seq != seq || !scanned_any) {
          return Status::Internal("shard worker: APPLY out of lockstep");
        }
        FML_RETURN_IF_ERROR(r.U64(&count));
        obs::TraceSpan merge_span(obs::kCatPipeline, "delta_merge");
        merge_span.Arg("shards", static_cast<int64_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
          ShardDelta delta;
          int64_t shard = 0;
          FML_RETURN_IF_ERROR(r.I64(&shard));
          FML_RETURN_IF_ERROR(r.I64(&delta.chunk_begin));
          FML_RETURN_IF_ERROR(r.I64(&delta.chunk_end));
          FML_RETURN_IF_ERROR(r.Bytes(&delta.bytes));
          delta.shard = static_cast<int>(shard);
          obs::TraceSpan apply_span(obs::kCatPipeline, "delta_apply");
          apply_span.Arg("shard", shard);
          FML_RETURN_IF_ERROR(ApplyShardDelta(model, pass, delta));
          MergeSlots(model, pass,
                     exec::Range{delta.chunk_begin, delta.chunk_end});
        }
        ++next_seq_;
        return Status::OK();
      }
      case kFrameRestart: {
        net::ByteReader r(frame.payload);
        uint32_t new_attempt = 0;
        FML_RETURN_IF_ERROR(r.U32(&new_attempt));
        link_->set_attempt(new_attempt);
        next_seq_ = 0;
        return ShardRestartStatus(new_attempt);
      }
      case kFrameBye:
        return Status::Internal("shard worker: BYE before training finished");
      default:
        return Status::Internal("shard worker: unexpected frame type " +
                                std::to_string(frame.type));
    }
  }
}

Status ShardWorkerDriver::Finish(ModelProgram* model, TrainReport* report) {
  net::ByteWriter w;
  w.U32(link_->attempt());
  w.F64(model->Objective());
  w.I64(report != nullptr ? report->iterations : 0);
  FML_RETURN_IF_ERROR(link_->conn()->SendFrame(kFrameDone, w.Take()));
  while (true) {
    net::Frame frame;
    const Status st = link_->conn()->RecvFrame(&frame, /*timeout_ms=*/-1);
    // The parent exiting (EOF) is as good as a BYE at this point: the
    // training result is already final on every node.
    if (!st.ok()) return Status::OK();
    if (frame.type == kFrameBye) return Status::OK();
    if (frame.type == kFrameRestart) {
      net::ByteReader r(frame.payload);
      uint32_t new_attempt = 0;
      FML_RETURN_IF_ERROR(r.U32(&new_attempt));
      link_->set_attempt(new_attempt);
      next_seq_ = 0;
      return ShardRestartStatus(new_attempt);
    }
    // Anything else here is a stale frame from this attempt; drop it.
  }
}

// --------------------------------------------------------- coordinator

ProcessShardCoordinator::ProcessShardCoordinator(
    const StrategyOptions& options, Algorithm algorithm,
    const join::NormalizedRelations* rel, storage::BufferPool* pool,
    std::string family, std::string family_blob)
    : options_(options),
      algorithm_(algorithm),
      rel_(rel),
      pool_(pool),
      family_(std::move(family)),
      family_blob_(std::move(family_blob)) {}

ProcessShardCoordinator::~ProcessShardCoordinator() {
  for (Worker& w : workers_) {
    if (w.pid > 0 && w.alive) {
      kill(w.pid, SIGKILL);
      int wstatus = 0;
      waitpid(w.pid, &wstatus, 0);
    }
    w.conn.Close();
  }
  listener_.Close();
}

int ProcessShardCoordinator::live_workers() const {
  int n = 0;
  for (const Worker& w : workers_) n += w.alive ? 1 : 0;
  return n;
}

Status ProcessShardCoordinator::SendJob(Worker* w) {
  ShardJobSpec spec;
  spec.s_path = rel_->s.path();
  for (const auto& a : rel_->attrs) spec.attr_paths.push_back(a.path());
  spec.has_target = rel_->has_target;
  spec.pool_pages = pool_->capacity_pages();
  spec.algorithm = algorithm_;
  spec.strategy = options_;
  spec.strategy.temp_dir =
      options_.temp_dir + "/w" + std::to_string(w->id);  // worker-private
  spec.worker_id = w->id;
  spec.family = family_;
  spec.family_blob = family_blob_;
  return w->conn.SendFrame(kFrameJob, EncodeShardJobSpec(spec));
}

Status ProcessShardCoordinator::SpawnWorkers(int shards) {
  const std::string binary = ResolveWorkerBinary(options_.shard_worker_path);
  // One socket endpoint for the whole crew: Unix-domain under the run's
  // temp dir, falling back to TCP loopback when the socket path does not
  // fit sun_path.
  const std::string sock_path =
      options_.temp_dir + "/fmld." + std::to_string(getpid()) + ".sock";
  if (!listener_.ListenUnix(sock_path).ok()) {
    FML_RETURN_IF_ERROR(listener_.ListenTcpLoopback());
  }
  static obs::Counter* spawned = RpcCounter("shard_rpc.workers_spawned");
  workers_.resize(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    Worker& w = workers_[static_cast<size_t>(i)];
    w.id = i;
    const std::string connect_arg = "--connect=" + listener_.address();
    const std::string id_arg = "--worker-id=" + std::to_string(i);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    argv.push_back(const_cast<char*>(connect_arg.c_str()));
    argv.push_back(const_cast<char*>(id_arg.c_str()));
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawnp(&pid, binary.c_str(), nullptr, nullptr,
                                argv.data(), environ);
    if (rc != 0) {
      return Status::IoError("failed to spawn shard worker '" + binary +
                             "': " + std::string(strerror(rc)));
    }
    w.pid = pid;
    spawned->Add();
  }
  // Accept + HELLO handshake. Connections arrive in arbitrary order; the
  // HELLO's worker id routes each to its slot.
  const int accept_timeout =
      static_cast<int>(std::max<int64_t>(options_.shard_timeout_ms, 10000));
  for (int i = 0; i < shards; ++i) {
    net::FrameConn conn;
    FML_RETURN_IF_ERROR(listener_.Accept(&conn, accept_timeout));
    net::Frame hello;
    FML_RETURN_IF_ERROR(conn.RecvFrame(&hello, accept_timeout));
    if (hello.type != kFrameHello) {
      return Status::Internal("shard worker handshake: expected HELLO");
    }
    net::ByteReader r(hello.payload);
    uint32_t version = 0;
    int64_t worker_id = 0, pid = 0;
    FML_RETURN_IF_ERROR(r.U32(&version));
    FML_RETURN_IF_ERROR(r.I64(&worker_id));
    FML_RETURN_IF_ERROR(r.I64(&pid));
    if (version != kShardProtocolVersion) {
      return Status::InvalidArgument("shard worker protocol mismatch");
    }
    if (worker_id < 0 || worker_id >= shards ||
        workers_[static_cast<size_t>(worker_id)].alive) {
      return Status::Internal("shard worker handshake: bad worker id " +
                              std::to_string(worker_id));
    }
    Worker& w = workers_[static_cast<size_t>(worker_id)];
    w.conn = std::move(conn);
    w.alive = true;
  }
  for (Worker& w : workers_) {
    FML_RETURN_IF_ERROR(SendJob(&w));
  }
  return Status::OK();
}

Status ProcessShardCoordinator::Init(AccessStrategy* strategy,
                                     const StrategyOptions& options,
                                     TrainReport* report) {
  FML_CHECK_GT(options.shards, 1);
  plan_ = exec::PlanShards(strategy->MorselPlan(), options.shards);
  report_ = report;
  if (report_ != nullptr) {
    report_->shards = std::max(plan_.num_shards(), 1);
    report_->shard_stats.assign(static_cast<size_t>(plan_.num_shards()),
                                TrainReport::ShardStat{});
    for (int k = 0; k < plan_.num_shards(); ++k) {
      report_->shard_stats[static_cast<size_t>(k)].chunk_begin =
          plan_.ChunkSpan(k).begin;
      report_->shard_stats[static_cast<size_t>(k)].chunk_end =
          plan_.ChunkSpan(k).end;
    }
  }
  if (!spawned_) {
    // One worker per effective shard, spawned once; restart attempts
    // reuse the surviving crew (dead workers stay dead — a deterministic
    // fault injection must not re-trigger on a respawned replacement).
    shard_owner_.resize(static_cast<size_t>(plan_.num_shards()));
    for (int s = 0; s < plan_.num_shards(); ++s) shard_owner_[s] = s;
    FML_RETURN_IF_ERROR(SpawnWorkers(plan_.num_shards()));
    spawned_ = true;
  }
  return Status::OK();
}

void ProcessShardCoordinator::MarkDead(Worker* w, const char* reason) {
  static obs::Counter* deaths = RpcCounter("shard_rpc.worker_deaths");
  deaths->Add();
  obs::TraceSpan death_span(obs::kCatRpc, "worker_death");
  death_span.Arg("worker", w->id);
  (void)reason;
  if (w->pid > 0) {
    kill(w->pid, SIGKILL);
    int wstatus = 0;
    waitpid(w->pid, &wstatus, 0);
    w->pid = -1;
  }
  w->conn.Close();
  w->alive = false;
}

std::vector<std::pair<int, std::vector<int>>>
ProcessShardCoordinator::ReassignDeadOwners() {
  static obs::Counter* requeues = RpcCounter("shard_rpc.requeues");
  // Owned-shard counts of the live workers.
  std::vector<int> owned(workers_.size(), 0);
  for (int s = 0; s < plan_.num_shards(); ++s) {
    const int o = shard_owner_[static_cast<size_t>(s)];
    if (workers_[static_cast<size_t>(o)].alive) ++owned[o];
  }
  std::vector<std::pair<int, std::vector<int>>> moved;
  for (int s = 0; s < plan_.num_shards(); ++s) {
    int& o = shard_owner_[static_cast<size_t>(s)];
    if (workers_[static_cast<size_t>(o)].alive) continue;
    // Fewest-owned live worker, lowest id tie-break — deterministic.
    int best = -1;
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].alive) continue;
      if (best < 0 || owned[i] < owned[static_cast<size_t>(best)]) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return moved;  // no live workers; caller handles
    o = best;
    ++owned[static_cast<size_t>(best)];
    requeues->Add();
    bool found = false;
    for (auto& [dst, list] : moved) {
      if (dst == best) {
        list.push_back(s);
        found = true;
      }
    }
    if (!found) moved.push_back({best, {s}});
  }
  return moved;
}

Status ProcessShardCoordinator::SendPassFrame(Worker* w, uint64_t seq,
                                              int pass,
                                              const std::vector<int>& shards,
                                              uint32_t recover_passes) {
  net::ByteWriter wr;
  wr.U32(attempt_);
  wr.U64(seq);
  wr.I64(pass);
  wr.U32(recover_passes);
  wr.U64(shards.size());
  for (const int s : shards) {
    wr.I64(s);
    wr.I64(plan_.ChunkSpan(s).begin);
    wr.I64(plan_.ChunkSpan(s).end);
  }
  return w->conn.SendFrame(kFramePass, wr.Take());
}

Status ProcessShardCoordinator::InitiateRestart() {
  static obs::Counter* restarts = RpcCounter("shard_rpc.restarts");
  restarts->Add();
  ++attempt_;
  next_seq_ = 0;
  net::ByteWriter w;
  w.U32(attempt_);
  const std::string payload = w.Take();
  for (Worker& worker : workers_) {
    if (!worker.alive) continue;
    if (!worker.conn.SendFrame(kFrameRestart, payload).ok()) {
      MarkDead(&worker, "restart send failed");
    }
  }
  if (live_workers() == 0) {
    return Status::Internal(
        "process shard backend: all workers died; cannot restart");
  }
  return ShardRestartStatus(attempt_);
}

Status ProcessShardCoordinator::RunPass(AccessStrategy* strategy,
                                        const PipelineContext& ctx,
                                        ModelProgram* model, int pass) {
  (void)strategy;
  static obs::Counter* timeouts = RpcCounter("shard_rpc.timeouts");
  if (live_workers() == 0) {
    return Status::Internal("process shard backend: no live workers");
  }
  // Shards whose owner died since their last scan move to a healthy
  // worker now. Mid-iteration the new owner is missing the per-row state
  // of the earlier passes, so its first PASS carries a recovery prologue
  // — possible only while the model vouches for a bare rescan.
  const auto moved = ReassignDeadOwners();
  if (!moved.empty() && pass > 0 && !model->ShardRecoverableAtPass(pass)) {
    return InitiateRestart();
  }
  const uint32_t recover_on_move =
      pass > 0 ? static_cast<uint32_t>(pass) : 0;
  std::vector<bool> moved_shard(static_cast<size_t>(plan_.num_shards()),
                                false);
  for (const auto& [dst, list] : moved) {
    for (const int s : list) moved_shard[static_cast<size_t>(s)] = true;
  }

  const uint64_t seq = next_seq_++;
  MaybeInjectCoordinatorFault(seq);
  obs::TraceSpan pass_span(obs::kCatRpc, "rpc_pass");
  pass_span.Arg("seq", static_cast<int64_t>(seq));
  pass_span.Arg2("pass", pass);

  // Stable spans (recover 0) and freshly moved spans (recover prologue)
  // go out in separate PASS frames; a worker handles any number of PASS
  // frames per seq before the APPLY.
  for (size_t wi = 0; wi < workers_.size(); ++wi) {
    Worker& w = workers_[wi];
    if (!w.alive) continue;
    std::vector<int> stable, acquired;
    for (int s = 0; s < plan_.num_shards(); ++s) {
      if (shard_owner_[static_cast<size_t>(s)] != static_cast<int>(wi)) {
        continue;
      }
      (moved_shard[static_cast<size_t>(s)] ? acquired : stable).push_back(s);
    }
    Status st = Status::OK();
    if (!stable.empty() && st.ok()) {
      st = SendPassFrame(&w, seq, pass, stable, 0);
    }
    if (!acquired.empty() && st.ok()) {
      st = SendPassFrame(&w, seq, pass, acquired, recover_on_move);
    }
    if (!st.ok()) {
      MarkDead(&w, "PASS send failed");
      // Re-enter: reassign this worker's shards and resend. Rare path;
      // recursion depth is bounded by the worker count.
      return RunPass(strategy, ctx, model, pass);
    }
    w.deadline_ms = NowMs() + options_.shard_timeout_ms;
  }

  // Collect one DELTA per shard, detecting death (EOF) and hangs
  // (deadline) as we go.
  std::vector<ShardDelta> deltas(static_cast<size_t>(plan_.num_shards()));
  std::vector<bool> received(static_cast<size_t>(plan_.num_shards()), false);
  int64_t missing = plan_.num_shards();

  const auto handle_death = [&](Worker* w, const char* why) -> Status {
    MarkDead(w, why);
    if (!model->ShardRecoverableAtPass(pass)) {
      return InitiateRestart();
    }
    // Requeue the dead worker's unfinished spans on the least-loaded
    // survivor; already-received deltas from it stay valid.
    const auto groups = ReassignDeadOwners();
    if (live_workers() == 0) {
      return Status::Internal(
          "process shard backend: all workers died mid-pass");
    }
    for (const auto& [dst, list] : groups) {
      std::vector<int> todo;
      for (const int s : list) {
        if (!received[static_cast<size_t>(s)]) todo.push_back(s);
      }
      if (todo.empty()) continue;
      Worker& v = workers_[static_cast<size_t>(dst)];
      const Status st = SendPassFrame(&v, seq, pass, todo,
                                      static_cast<uint32_t>(pass));
      if (!st.ok()) {
        MarkDead(&v, "requeue send failed");
        return Status::Internal(
            "process shard backend: requeue target died; giving up pass");
      }
      v.deadline_ms = NowMs() + options_.shard_timeout_ms;
    }
    return Status::OK();
  };

  while (missing > 0) {
    // Workers we still expect frames from, with the nearest deadline.
    std::vector<net::FrameConn*> conns;
    std::vector<size_t> conn_worker;
    int64_t nearest = INT64_MAX;
    for (size_t wi = 0; wi < workers_.size(); ++wi) {
      Worker& w = workers_[wi];
      if (!w.alive) continue;
      bool awaiting = false;
      for (int s = 0; s < plan_.num_shards(); ++s) {
        if (shard_owner_[static_cast<size_t>(s)] == static_cast<int>(wi) &&
            !received[static_cast<size_t>(s)]) {
          awaiting = true;
          break;
        }
      }
      if (!awaiting) continue;
      conns.push_back(&w.conn);
      conn_worker.push_back(wi);
      nearest = std::min(nearest, w.deadline_ms);
    }
    if (conns.empty()) {
      return Status::Internal(
          "process shard backend: deltas missing with no worker to await");
    }
    const int64_t wait = std::max<int64_t>(1, nearest - NowMs());
    std::vector<size_t> ready;
    FML_RETURN_IF_ERROR(net::PollReadable(
        conns, static_cast<int>(std::min<int64_t>(wait, 60000)), &ready));
    for (const size_t ci : ready) {
      Worker& w = workers_[conn_worker[ci]];
      if (!w.alive) continue;  // killed earlier in this ready sweep
      const Status rd = w.conn.ReadAvailable();
      if (!rd.ok()) {
        FML_RETURN_IF_ERROR(handle_death(&w, rd.message().c_str()));
        continue;
      }
      // Drain every complete frame that arrived.
      while (w.alive) {
        net::Frame frame;
        bool got = false;
        const Status fr = w.conn.NextFrame(&frame, &got);
        if (!fr.ok()) {
          FML_RETURN_IF_ERROR(handle_death(&w, "corrupt frame stream"));
          break;
        }
        if (!got) break;
        w.deadline_ms = NowMs() + options_.shard_timeout_ms;
        if (frame.type == kFrameError) {
          return Status::Internal("shard worker " + std::to_string(w.id) +
                                  " failed: " + frame.payload);
        }
        if (frame.type != kFrameDelta) {
          return Status::Internal(
              "process shard backend: unexpected frame type " +
              std::to_string(frame.type));
        }
        net::ByteReader r(frame.payload);
        uint32_t attempt = 0;
        uint64_t pass_seq = 0;
        int64_t shard = 0;
        double scan_seconds = 0.0;
        storage::IoStats io;
        OpCounters ops;
        ShardDelta delta;
        FML_RETURN_IF_ERROR(r.U32(&attempt));
        FML_RETURN_IF_ERROR(r.U64(&pass_seq));
        FML_RETURN_IF_ERROR(r.I64(&shard));
        FML_RETURN_IF_ERROR(r.F64(&scan_seconds));
        FML_RETURN_IF_ERROR(ReadIoStats(&r, &io));
        FML_RETURN_IF_ERROR(ReadOps(&r, &ops));
        FML_RETURN_IF_ERROR(r.Bytes(&delta.bytes));
        if (attempt != attempt_ || pass_seq != seq) continue;  // stale
        if (shard < 0 || shard >= plan_.num_shards() ||
            received[static_cast<size_t>(shard)]) {
          return Status::Internal(
              "process shard backend: duplicate or bad DELTA shard " +
              std::to_string(shard));
        }
        delta.shard = static_cast<int>(shard);
        delta.chunk_begin = plan_.ChunkSpan(static_cast<int>(shard)).begin;
        delta.chunk_end = plan_.ChunkSpan(static_cast<int>(shard)).end;
        deltas[static_cast<size_t>(shard)] = std::move(delta);
        received[static_cast<size_t>(shard)] = true;
        --missing;
        // Remote op windows fold into this process's counters so the
        // run's op totals match the in-process backend bit-for-bit. The
        // io windows stay per-node: they land in shard_stats only.
        GlobalOps() += ops;
        if (report_ != nullptr) {
          auto& stat = report_->shard_stats[static_cast<size_t>(shard)];
          stat.io += io;
          stat.scan_seconds += scan_seconds;
        }
        static obs::Counter* delta_count =
            RpcCounter("pipeline.shard_deltas");
        static obs::Counter* delta_bytes =
            RpcCounter("pipeline.delta_bytes");
        delta_count->Add();
        delta_bytes->Add(deltas[static_cast<size_t>(shard)].bytes.size());
      }
      // EOF is recorded (not errored) by ReadAvailable; act on it here
      // or the closed socket stays poll-readable and the loop would spin
      // until the deadline. Only a death while deltas are still owed is
      // handled now — a worker that delivered everything and then died
      // is caught by the next pass's send failure.
      if (w.alive && w.conn.eof()) {
        bool owed = false;
        for (int s = 0; s < plan_.num_shards(); ++s) {
          if (shard_owner_[static_cast<size_t>(s)] ==
                  static_cast<int>(conn_worker[ci]) &&
              !received[static_cast<size_t>(s)]) {
            owed = true;
            break;
          }
        }
        if (owed) {
          FML_RETURN_IF_ERROR(handle_death(&w, "peer closed connection"));
        }
      }
    }
    // Deadline sweep: anything silent past its deadline is hung — kill
    // and requeue. (A worker that just produced frames had its deadline
    // refreshed above.)
    const int64_t now = NowMs();
    for (size_t wi = 0; wi < workers_.size(); ++wi) {
      Worker& w = workers_[wi];
      if (!w.alive || now < w.deadline_ms) continue;
      bool awaiting = false;
      for (int s = 0; s < plan_.num_shards(); ++s) {
        if (shard_owner_[static_cast<size_t>(s)] == static_cast<int>(wi) &&
            !received[static_cast<size_t>(s)]) {
          awaiting = true;
          break;
        }
      }
      if (!awaiting) continue;
      timeouts->Add();
      FML_RETURN_IF_ERROR(handle_death(&w, "deadline exceeded"));
    }
  }

  // Broadcast APPLY (shard-id order), then apply + merge locally — the
  // same global-chunk-order reduction as the in-process backend.
  net::ByteWriter aw;
  aw.U32(attempt_);
  aw.U64(seq);
  aw.U64(static_cast<uint64_t>(plan_.num_shards()));
  for (const ShardDelta& d : deltas) {
    aw.I64(d.shard);
    aw.I64(d.chunk_begin);
    aw.I64(d.chunk_end);
    aw.Bytes(d.bytes);
  }
  const std::string apply_payload = aw.Take();
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    if (!w.conn.SendFrame(kFrameApply, apply_payload).ok()) {
      // The pass result is already safe (all deltas held locally); the
      // death is handled at the next pass's reassignment.
      MarkDead(&w, "APPLY send failed");
    }
  }
  obs::TraceSpan merge_span(obs::kCatPipeline, "delta_merge");
  merge_span.Arg("shards", plan_.num_shards());
  for (const ShardDelta& delta : deltas) {
    obs::TraceSpan apply_span(obs::kCatPipeline, "delta_apply");
    apply_span.Arg("shard", delta.shard);
    FML_RETURN_IF_ERROR(ApplyShardDelta(model, pass, delta));
    MergeSlots(model, pass, exec::Range{delta.chunk_begin, delta.chunk_end});
  }
  return Status::OK();
}

Status ProcessShardCoordinator::Finish(ModelProgram* model,
                                       TrainReport* report) {
  (void)report;
  const double expect = model->Objective();
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    bool done = false;
    while (!done) {
      net::Frame frame;
      const Status st = w.conn.RecvFrame(
          &frame, static_cast<int>(options_.shard_timeout_ms));
      if (!st.ok()) {
        // A death this late cannot disturb the result — every delta of
        // every pass is already applied locally. Count it and move on.
        MarkDead(&w, "died before DONE");
        break;
      }
      if (frame.type != kFrameDone) continue;  // stale frame, drop
      net::ByteReader r(frame.payload);
      uint32_t attempt = 0;
      double objective = 0.0;
      int64_t iterations = 0;
      FML_RETURN_IF_ERROR(r.U32(&attempt));
      FML_RETURN_IF_ERROR(r.F64(&objective));
      FML_RETURN_IF_ERROR(r.I64(&iterations));
      if (attempt != attempt_) continue;  // stale DONE from old attempt
      // Bitwise agreement: replicas that executed the same reduction
      // must hold the same doubles. A tolerance here would paper over a
      // lost update; memcmp does not.
      if (std::memcmp(&objective, &expect, sizeof(double)) != 0) {
        return Status::Internal(
            "process shard backend: worker " + std::to_string(w.id) +
            " objective diverged from the coordinator (determinism "
            "breach)");
      }
      done = true;
    }
  }
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    (void)w.conn.SendFrame(kFrameBye, "");
  }
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    int wstatus = 0;
    waitpid(w.pid, &wstatus, 0);
    w.pid = -1;
    w.conn.Close();
    w.alive = false;
  }
  return Status::OK();
}

}  // namespace factorml::core::pipeline
