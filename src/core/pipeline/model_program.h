#ifndef FACTORML_CORE_PIPELINE_MODEL_PROGRAM_H_
#define FACTORML_CORE_PIPELINE_MODEL_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "core/algorithm.h"
#include "core/report.h"
#include "exec/parallel_for.h"
#include "join/attribute_view.h"
#include "join/join_cursor.h"
#include "join/normalized_relations.h"
#include "la/matrix.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace factorml::core::pipeline {

/// How a ModelProgram wants to be driven. The paper's M/S/F strategies
/// are orthogonal to the model: every program runs under all three
/// through its one data hook, so the mask only names the driving plane
/// and the program's input requirements.
enum Capability : uint32_t {
  /// Iterations are model-defined full passes over all joined rows
  /// (EM-style: GMM, k-means, closed-form linear regression).
  kFullPass = 1u << 0,
  /// Iterations are epochs of sequential mini-batches of whole FK1-rid
  /// groups (SGD-style: NN).
  kMiniBatch = 1u << 1,
  /// Requires rel.has_target (Y carried as S feature column 0).
  kNeedsTarget = 1u << 2,
};

/// Everything a training run shares between the access strategy and the
/// model program. `views` is non-null only while the S/F strategies have
/// the attribute tables resident (between BeginPass/BeginEpoch and the end
/// of the pass/epoch); the model reads its first `factored_tables` of
/// them. The M strategy never exposes views — the joined rows it delivers
/// already contain the attribute columns.
struct PipelineContext {
  const join::NormalizedRelations* rel = nullptr;
  storage::BufferPool* pool = nullptr;
  TrainReport* report = nullptr;
  int threads = 1;  // effective exec/ worker count
  /// What the model sees of each row, fixed for the run: `slice_cols`
  /// feature columns carried in the block's strips, plus `factored_tables`
  /// attribute tables reached through `views` and the rows' foreign keys.
  /// M and S hand over the whole joined row (d columns, 0 tables), where
  /// the paper's factorized formulas reduce exactly to the dense ones; F
  /// hands over the S slice (d_S columns) and the q tables.
  size_t slice_cols = 0;
  size_t factored_tables = 0;
  const std::vector<join::AttributeTableView>* views = nullptr;
  /// The rid-span contract of the full-pass accumulator plane: when
  /// non-null, entry `slot` is the contiguous half-open range of TABLE-0
  /// rid positions every row delivered to that slot's Accumulate calls
  /// falls in — the S/F strategies publish their chunk plan here
  /// (slot = chunk).
  /// Models with per-rid slot state size it to the span instead of the
  /// whole attribute table (O(sum of spans) = O(n_R) total instead of
  /// O(slots x n_R)), and keep span-relative indexing a pure function of
  /// the BeginPass-time plan so VisitSlotState round-trips stay exact.
  /// Null for the M strategy (its morsels are fact rows, and it factors
  /// no table) and on the mini-batch plane. Tables i >= 1 of a multi-way
  /// join are NOT covered — their rids are unordered within a chunk, so
  /// per-rid state for them stays full-domain.
  const std::vector<exec::Range>* slot_rid_spans = nullptr;
};

/// The table-0 rid span accumulator slot `slot` observes, under the
/// contract above: the published span, the full domain [0, full_domain)
/// when no plan is published, or an empty span for a slot past the plan
/// (possible only for plans with zero chunks).
inline exec::Range SlotRidSpan(const PipelineContext& ctx, int slot,
                               int64_t full_domain) {
  if (ctx.slot_rid_spans == nullptr || ctx.slot_rid_spans->empty()) {
    return exec::Range{0, full_domain};
  }
  const auto s = static_cast<size_t>(slot);
  if (s >= ctx.slot_rid_spans->size()) return exec::Range{0, 0};
  return (*ctx.slot_rid_spans)[s];
}

/// A block of rows as every strategy delivers it, on both planes. The
/// strips (storage::ColumnStrips) hold the model's slice of each row
/// column-major: the target (if any) at strip column 0, then the
/// ctx.slice_cols feature columns. M decodes T's pages straight into them
/// (a mini-batch's row ranges into one block), S assembles each joined row
/// into them, F transposes the S slice. Only F fills `s_rows` (the rows
/// with their foreign keys) and `groups` (the rows grouped by R1 rid, so
/// per-attribute-tuple work can be reused): with no factored table there
/// is nothing to reach through them.
struct Block {
  int64_t start_row = 0;  // global fact-row id of row 0
  size_t num_rows = 0;
  const storage::ColumnStrips* strips = nullptr;
  const storage::RowBatch* s_rows = nullptr;
  std::span<const join::JoinGroup> groups;
};

/// The model plane of the training pipeline. A ModelProgram owns the model
/// parameters and the per-pass math; it never touches storage, joins,
/// partitioning, or threads — the AccessStrategy (data-access plane) owns
/// those and calls back into the hooks below. Adding a new model family is
/// one subclass with one data hook — Accumulate or OnBatch, written once
/// against PipelineContext::factored_tables — and it gets all three
/// execution strategies (M/S/F) and the exec/ parallel runtime for free.
///
/// Full-pass driving sequence (kFullPass), per iteration i:
///   for pass p in 0..NumPasses(i):
///     strategy reloads per-pass inputs (S/F: attribute views)
///     BeginPass(ctx, i, p, slots)            — build caches, zero accums
///     each chunk c calls Accumulate(p, c, block)   — hot
///     MergeSlots(model, p, {0, slots})        — chunk-order reduction
///       (--shards > 1: the slots are first round-tripped through
///       ShardDelta bytes via VisitSlotState, then merged in the same
///       global chunk order — see core/pipeline/sharded_driver.h)
///     EndPass(ctx, i, p)                      — apply pass result
///   EndIteration(ctx, i) -> stop?
///
/// Mini-batch driving sequence (kMiniBatch), per epoch e:
///   strategy reloads inputs and orders rids by EpochRidOrder(e)
///   BeginEpoch(ctx, e)
///   for each planned batch, built by the same strip builder as the
///   strategy's full pass (M: T's page decode, S: join assembly, F: the
///   S-slice transpose):
///     OnBatch(ctx, block)
///   EndIteration(ctx, e) -> stop?
class ModelProgram {
 public:
  virtual ~ModelProgram() = default;

  /// Report tag suffix: the run is labeled "<M|S|F>-<Name()>".
  virtual const char* Name() const = 0;
  /// File stem for the M strategy's materialized join (the only strategy
  /// that materializes): <temp_dir>/m_<TempStem()>_T.fml.
  virtual const char* TempStem() const = 0;
  /// The process shard backend's family blob: the model knobs a factormld
  /// worker needs to rebuild this exact program, shipped in the JOB frame
  /// under the family tag TempStem(). Empty (default) means the family
  /// does not support --shard-backend=process.
  virtual std::string ShardJobBlob() const { return {}; }
  virtual uint32_t Capabilities() const = 0;
  /// Option/shape checks run before any measurement starts.
  virtual Status ValidateOptions(const join::NormalizedRelations& rel) const {
    (void)rel;
    return Status::OK();
  }
  /// Iteration budget: EM iterations or SGD epochs.
  virtual int MaxIterations() const = 0;
  /// Allocate parameters and per-run state. Runs after the strategy's
  /// Prepare (so the M strategy has already materialized T).
  virtual Status Init(const PipelineContext& ctx) = 0;

  // ---------------------------------------------------- full-pass plane
  virtual int NumPasses(int iter) const {
    (void)iter;
    return 1;
  }
  virtual const char* PassName(int pass) const {
    (void)pass;
    return "pass";
  }
  virtual Status BeginPass(const PipelineContext& ctx, int iter, int pass,
                           int slots) {
    (void)ctx, (void)iter, (void)pass, (void)slots;
    return Status::OK();
  }
  virtual void Accumulate(int pass, int slot, const Block& block) {
    (void)pass, (void)slot, (void)block;
    FML_CHECK(false) << Name() << ": full-pass hook not implemented";
  }
  /// The one description of an accumulator slot: visits every double of
  /// slot `slot`'s post-scan state for `pass` as contiguous spans, each
  /// with `merged` pointing at its destination in the merged (pass-result)
  /// state, any span offset (table 0's rid-span base) already applied.
  /// MergeSlots adds `slot` into `merged`; the shard plane serializes a
  /// slot by copying the `slot` doubles out (then zeroing them) and
  /// applies a delta by copying them back in, so the visit sequence for a
  /// (pass, slot) must be a pure function of the BeginPass-time shapes.
  /// Visit accumulated state only, never scratch; per-rid state resident
  /// with the rid's shard (e.g. GMM responsibilities) is not visited.
  /// Every full-pass program implements this.
  virtual void VisitSlotState(
      int pass, int slot,
      const std::function<void(double* slot, double* merged, size_t len)>&
          visit) {
    (void)pass, (void)slot, (void)visit;
    FML_CHECK(false) << Name() << ": slot-state visitor not implemented";
  }

  virtual Status EndPass(const PipelineContext& ctx, int iter, int pass) {
    (void)ctx, (void)iter, (void)pass;
    return Status::OK();
  }

  /// The checkpoint seam (core/pipeline/checkpoint.h): visits every double
  /// of the model's cross-iteration state — parameters, convergence
  /// scalars, and any generator cursors encoded as bit patterns — at an
  /// iteration boundary (after EndIteration, before the next BeginPass /
  /// BeginEpoch). Like VisitSlotState this one visitor serves both
  /// directions (save copies the doubles out, restore copies them back
  /// in), so the visit sequence must be a pure function of the Init-time
  /// shapes. Per-pass accumulators are rebuilt by the next BeginPass and
  /// must not be visited. Required for --checkpoint-dir; every in-tree
  /// family implements it.
  virtual void VisitIterationState(
      const std::function<void(double* data, size_t len)>& visit) {
    (void)visit;
    FML_CHECK(false) << Name()
                     << ": iteration-state visitor not implemented";
  }

  /// Whether a lost shard span of `pass` can be recovered by a bare
  /// rescan on a surviving worker: true when re-running RunPass over the
  /// lost chunks — with no BeginPass replay — reproduces the lost slot
  /// state bit-exactly. That holds by default (accumulate hooks read only
  /// parameters fixed at BeginPass), but a program whose EARLIER EndPass
  /// in the same iteration already mutated parameters that this pass's
  /// sibling passes read (GMM: EndPass(mean) rewrites mu before the cov
  /// pass) must return false for the affected passes; the process shard
  /// backend then falls back to a deterministic full-run restart instead
  /// of a mid-iteration rescan.
  virtual bool ShardRecoverableAtPass(int pass) const {
    (void)pass;
    return true;
  }

  // --------------------------------------------------- mini-batch plane
  /// R1-rid visit order for this epoch (the paper's per-epoch key
  /// permutation for SGD); empty = natural order.
  virtual std::vector<int64_t> EpochRidOrder(const PipelineContext& ctx,
                                             int epoch) {
    (void)ctx, (void)epoch;
    return {};
  }
  virtual Status BeginEpoch(const PipelineContext& ctx, int epoch) {
    (void)ctx, (void)epoch;
    return Status::OK();
  }
  virtual Status OnBatch(const PipelineContext& ctx, const Block& batch) {
    (void)ctx, (void)batch;
    FML_CHECK(false) << Name() << ": mini-batch hook not implemented";
    return Status::OK();
  }

  // ------------------------------------------------------------ epilogue
  /// Apply the iteration's result; true = converged, stop early.
  virtual Result<bool> EndIteration(const PipelineContext& ctx, int iter) = 0;
  /// Final objective for the TrainReport (log-likelihood, MSE, inertia...).
  virtual double Objective() const = 0;
};

/// The full-pass reduction: adds slots [slots.begin, slots.end) into the
/// model's merged state in ascending slot order, one add per element.
/// Every pass result is a sum, so this order is the determinism contract's
/// whole reduction; the strategies and every shard backend (after the
/// ShardDelta copy-back) call it alike.
inline void MergeSlots(ModelProgram* model, int pass, exec::Range slots) {
  const auto add = [](double* slot, double* merged, size_t len) {
    for (size_t j = 0; j < len; ++j) merged[j] += slot[j];
  };
  for (int64_t s = slots.begin; s < slots.end; ++s) {
    model->VisitSlotState(pass, static_cast<int>(s), add);
  }
}

}  // namespace factorml::core::pipeline

#endif  // FACTORML_CORE_PIPELINE_MODEL_PROGRAM_H_
