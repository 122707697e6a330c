#ifndef FACTORML_CORE_PIPELINE_STRATEGY_OPTIONS_H_
#define FACTORML_CORE_PIPELINE_STRATEGY_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "la/kernels.h"

namespace factorml {
class ArgParser;
}

namespace factorml::core::pipeline {

/// Read-ahead window (in batches) of --prefetch without an explicit
/// --prefetch-depth: classic double buffering.
inline constexpr int kDefaultPrefetchDepth = 2;

/// Strip height of the column-strip data path: tall enough to amortize
/// the column transpose and keep the batch kernels in their streaming
/// regime, short enough that a strip of a few columns stays in L1/L2
/// (256 rows x 8 B = 2 KiB per column).
inline constexpr size_t kDefaultStripRows = 256;

/// Where the scans of a sharded run execute (--shard-backend).
enum class ShardBackend : uint8_t {
  /// This process drives every shard scan (ShardedDriver) — byte-identical
  /// to the pre-backend engine.
  kInproc = 0,
  /// One factormld worker process per shard, exchanging ShardDelta bytes
  /// over length-prefixed socket frames (core/pipeline/shard_rpc.h);
  /// bit-identical results by the same chunk-ordered merge.
  kProcess = 1,
};

/// "inproc" / "process" — the flag spelling of a backend.
const char* ShardBackendName(ShardBackend backend);

/// The knobs of the paper's M/S/F strategies, which are orthogonal to the
/// model being trained. This is their only declaration: every family's
/// options struct (GmmOptions, NnOptions, LinregOptions, KmeansOptions,
/// LogregOptions) derives from it and adds only its model knobs, and
/// RunTraining takes the derived struct as-is. `threads` may be 0
/// (= DefaultThreads()) when handed to RunTraining, which resolves it via
/// exec::EffectiveThreads before any strategy sees it — the strategies and
/// the PipelineContext always observe the resolved count (>= 1).
struct StrategyOptions {
  size_t batch_rows = 8192;  // rows per streamed/scanned batch
  int threads = 0;           // exec/ workers; 0 = DefaultThreads()
  /// Rows per chunk of the full-pass plan; 0 (default) = unset, resolved
  /// to exec::kDefaultMorselRows by RunTraining. Every full pass is split
  /// into fixed, deterministically numbered chunks (page-aligned rows for
  /// M, whole FK1 runs for S/F), every chunk accumulates into its own
  /// slot, and the reduction merges in chunk order — so the result is a
  /// function of the data and morsel_rows only, bit-identical for ANY
  /// thread count and ANY steal schedule.
  int64_t morsel_rows = 0;
  /// Work stealing over the chunk plan: idle workers acquire chunks from
  /// other workers' blocks (lock-free, exec::MorselQueue). Changes who
  /// computes each chunk, never what is merged.
  bool steal = false;
  /// Asynchronous double-buffered page prefetch over the unified I/O
  /// cursor plane (storage::PageCursor / Prefetcher): while a worker
  /// computes on one morsel, the pages of its next scheduled morsel and
  /// of the following `prefetch_depth` batches are landed in its buffer
  /// pool by a background I/O crew. Residency-only by construction —
  /// prefetch never changes values, merge order, op counts, or the demand
  /// read sequence, so results are bit-identical at on and off; only the
  /// page-I/O split (IoStats prefetch_reads / prefetch_hits / stall) and
  /// wall time move. Off by default: the seed goldens pin the
  /// demand-path I/O counts.
  bool prefetch = false;
  /// Batches read ahead per worker when prefetch is on (>= 1).
  int prefetch_depth = kDefaultPrefetchDepth;
  /// Rid-range shards of the full-pass plane (see exec::ShardPlan and
  /// core/pipeline/sharded_driver.h). 1 (default) runs unsharded —
  /// byte-identical to the pre-shard engine. N > 1 splits every full pass
  /// into N contiguous chunk spans, runs one scan per shard, round-trips
  /// each shard's accumulator slots through serialized ShardDelta bytes
  /// (the wire seam a distributed backend plugs into), and merges the
  /// deltas in shard-id order. At the same resolved morsel size the
  /// objectives, params, op counts — and, at deterministic schedules
  /// (steal and prefetch off), total page I/O — are bit-identical to
  /// shards = 1 for any thread count. Rejected for mini-batch (SGD)
  /// programs, whose sequential epochs have no order-free merge.
  int shards = 1;
  /// Compute-kernel table (la/kernels.h), and nothing else: every strategy
  /// feeds the models the same column strips (kDefaultStripRows) under both
  /// modes. kScalar (default) replays the seed's per-row expressions in
  /// row order — bit-identical to the goldens. kSimd selects the best
  /// runtime-dispatched vector backend (AVX2/FMA when the CPU has it,
  /// portable vector extensions otherwise). The op counts and the page I/O
  /// stream are identical to scalar by construction — only the
  /// floating-point summation order moves, so objectives and params agree
  /// to reassociation tolerance.
  la::KernelMode kernels = la::KernelMode::kScalar;
  /// Where the M strategy materializes T (and the process backend puts its
  /// socket and per-worker subdirectories).
  std::string temp_dir = ".";
  /// Execution backend for shards > 1 (see ShardBackend).
  ShardBackend shard_backend = ShardBackend::kInproc;
  /// Per-worker liveness deadline of the process backend, in
  /// milliseconds: a worker producing no frame within it is declared dead
  /// and its unfinished spans are requeued on a healthy worker.
  int64_t shard_timeout_ms = 30000;
  /// Explicit path to the factormld worker binary. Empty (default)
  /// resolves via $FACTORMLD, then a sibling of the running executable,
  /// then $PATH.
  std::string shard_worker_path;
  /// Checkpoint/restore (full-pass plane only). Empty (default) disables.
  /// Non-empty: after every `checkpoint_every` completed iterations the
  /// coordinator atomically writes <dir>/<M|S|F>-<model>.ckpt (CRC32 per
  /// block, staged .tmp + rename) plus a JSON sidecar; a fresh run over
  /// the same configuration restores it and resumes at the next
  /// iteration, bit-identical to the uninterrupted run.
  std::string checkpoint_dir;
  /// Iterations between checkpoint writes; 0 = every iteration when
  /// checkpoint_dir is set.
  int64_t checkpoint_every = 0;
  /// Set only inside a factormld worker process: the link back to the
  /// coordinator. RunTraining then follows the coordinator's PASS/APPLY
  /// frames instead of owning the shard schedule. Never set by users.
  class ShardWorkerLink* shard_channel = nullptr;
};

/// The one parse point of the strategy flags shared by every train
/// command: --batch, --threads, --morsel-rows, --steal, --prefetch,
/// --prefetch-depth, --shards, --kernels, --shard-backend,
/// --shard-timeout-ms, --factormld (the worker binary), --checkpoint-dir
/// and --checkpoint-every. An absent flag keeps its value from
/// `defaults` (so a family's own defaults, like NN's 1024-row batch,
/// survive); a bad value exits 2 naming the flag (common/flags.h).
/// temp_dir has no flag and is copied from `defaults`.
StrategyOptions StrategyOptionsFromArgs(const ArgParser& args,
                                        const StrategyOptions& defaults = {});

}  // namespace factorml::core::pipeline

#endif  // FACTORML_CORE_PIPELINE_STRATEGY_OPTIONS_H_
