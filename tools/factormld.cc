// factormld — the process shard backend's worker daemon. Spawned by a
// ProcessShardCoordinator (core/pipeline/shard_rpc.h) with
//
//   factormld --connect=<unix:PATH | tcp:HOST:PORT> --worker-id=<N>
//
// it dials the coordinator, introduces itself (HELLO), receives the JOB
// frame describing the dataset and the resolved training options, opens
// its own table views and buffer pool, and then runs the full
// deterministic training loop as a lockstep replica — scanning only the
// shard spans the coordinator assigns per pass and exchanging ShardDelta
// bytes so every node's model state stays bit-identical. Never run by
// hand; the protocol is documented in core/pipeline/shard_rpc.h.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "core/algorithm.h"
#include "core/pipeline/access_strategy.h"
#include "core/pipeline/model_program.h"
#include "core/pipeline/shard_rpc.h"
#include "core/report.h"
#include "gmm/trainers.h"
#include "join/normalized_relations.h"
#include "kmeans/kmeans.h"
#include "linreg/linreg.h"
#include "logreg/logreg.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace factorml {
namespace {

namespace pipeline = core::pipeline;

Result<std::unique_ptr<pipeline::ModelProgram>> MakeProgram(
    const pipeline::ShardJobSpec& spec) {
  if (spec.family == "gmm") {
    FML_ASSIGN_OR_RETURN(gmm::GmmOptions opt,
                         gmm::DecodeShardJob(spec.family_blob));
    return gmm::MakeShardProgram(opt);
  }
  if (spec.family == "linreg") {
    FML_ASSIGN_OR_RETURN(linreg::LinregOptions opt,
                         linreg::DecodeShardJob(spec.family_blob));
    return linreg::MakeShardProgram(opt);
  }
  if (spec.family == "kmeans") {
    FML_ASSIGN_OR_RETURN(kmeans::KmeansOptions opt,
                         kmeans::DecodeShardJob(spec.family_blob));
    return kmeans::MakeShardProgram(opt);
  }
  if (spec.family == "logreg") {
    FML_ASSIGN_OR_RETURN(logreg::LogregOptions opt,
                         logreg::DecodeShardJob(spec.family_blob));
    return logreg::MakeShardProgram(opt);
  }
  return Status::InvalidArgument("factormld: unknown model family '" +
                                 spec.family + "'");
}

Status RunWorker(net::FrameConn& conn, int64_t worker_id) {
  net::Frame job;
  FML_RETURN_IF_ERROR(conn.RecvFrame(&job, /*timeout_ms=*/60000));
  if (job.type != pipeline::kFrameJob) {
    return Status::Internal("factormld: expected JOB frame, got type " +
                            std::to_string(job.type));
  }
  FML_ASSIGN_OR_RETURN(pipeline::ShardJobSpec spec,
                       pipeline::DecodeShardJobSpec(job.payload));
  if (spec.worker_id != worker_id) {
    return Status::Internal("factormld: JOB addressed to worker " +
                            std::to_string(spec.worker_id));
  }

  // This worker's own replica of the dataset: private views, private
  // buffer pool (same capacity as the coordinator's — the per-node I/O
  // stats in shard_stats are comparable only under equal pool pressure),
  // private temp dir for the M strategy's materialization.
  std::error_code ec;
  std::filesystem::create_directories(spec.strategy.temp_dir, ec);
  if (ec) {
    return Status::IoError("factormld: cannot create temp dir " +
                           spec.strategy.temp_dir + ": " + ec.message());
  }
  FML_ASSIGN_OR_RETURN(storage::Table s, storage::Table::Open(spec.s_path));
  std::vector<storage::Table> attrs;
  for (const std::string& path : spec.attr_paths) {
    FML_ASSIGN_OR_RETURN(storage::Table t, storage::Table::Open(path));
    attrs.push_back(std::move(t));
  }
  join::NormalizedRelations rel(std::move(s), std::move(attrs),
                                spec.has_target);
  storage::BufferPool pool(spec.pool_pages);
  FML_RETURN_IF_ERROR(rel.Validate());
  FML_RETURN_IF_ERROR(rel.BuildIndex(&pool));

  // The coordinator's resolved knobs, bound to this worker's link. With a
  // checkpoint dir, workers restore (so a resumed coordinator and its
  // workers agree on the starting iteration) but never write — the
  // coordinator owns the write path.
  pipeline::StrategyOptions sopt = spec.strategy;
  pipeline::ShardWorkerLink link(&conn, worker_id);
  sopt.shard_channel = &link;

  // Attempt loop: a RESTART frame surfaces as the shard-restart sentinel
  // from RunTraining; rerun with a fresh program (deterministic — same
  // blob, same data).
  while (true) {
    FML_ASSIGN_OR_RETURN(std::unique_ptr<pipeline::ModelProgram> program,
                         MakeProgram(spec));
    core::TrainReport report;
    const Status st =
        pipeline::RunTraining(rel, spec.algorithm, sopt, program.get(), &pool,
                              &report);
    if (pipeline::IsShardRestart(st)) continue;
    return st;
  }
}

Status WorkerMain(const std::string& address, int64_t worker_id) {
  net::FrameConn conn;
  FML_RETURN_IF_ERROR(net::ConnectAddress(address, &conn));

  {
    net::ByteWriter w;
    w.U32(pipeline::kShardProtocolVersion);
    w.I64(worker_id);
    w.I64(static_cast<int64_t>(getpid()));
    FML_RETURN_IF_ERROR(
        conn.SendFrame(pipeline::kFrameHello, w.Take()));
  }

  // Any failure past the handshake — a bad JOB spec, an unopenable table,
  // a training error — is reported upstream before exiting so the
  // coordinator fails with the cause, not a bare EOF.
  const Status st = RunWorker(conn, worker_id);
  if (!st.ok() && conn.open()) {
    (void)conn.SendFrame(pipeline::kFrameError, st.ToString());
  }
  return st;
}

}  // namespace
}  // namespace factorml

int main(int argc, char** argv) {
  factorml::ArgParser args(argc, argv);
  const std::string address = args.GetString("connect", "");
  const int64_t worker_id = args.GetInt("worker-id", -1);
  if (address.empty() || worker_id < 0) {
    std::fprintf(stderr,
                 "factormld is the process shard backend's worker daemon; "
                 "it is spawned by the coordinator, not run by hand.\n"
                 "usage: factormld --connect=<unix:PATH|tcp:HOST:PORT> "
                 "--worker-id=<N>\n");
    return 2;
  }
  const factorml::Status st = factorml::WorkerMain(address, worker_id);
  if (!st.ok()) {
    std::fprintf(stderr, "factormld[%lld]: %s\n",
                 static_cast<long long>(worker_id), st.ToString().c_str());
    return 1;
  }
  return 0;
}
