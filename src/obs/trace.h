#ifndef FACTORML_OBS_TRACE_H_
#define FACTORML_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace factorml::obs {

/// The span tracer: per-worker lock-free ring buffers recording the
/// runtime's begin/end spans, flushed at run end to Chrome trace-event
/// JSON (`--trace=PATH`), loadable in Perfetto or chrome://tracing.
///
/// Design constraints, in order:
///  1. Tracing must not perturb the determinism contract. Emitting an
///     event touches no OpCounters, no IoStats, no scheduler state — only
///     the emitting thread's own ring buffer and the monotonic clock.
///     TraceParityTest pins trace-on == trace-off bit-identity of
///     objectives, op counts and page I/O.
///  2. `--trace` off must be free. Every instrumentation site guards on
///     TraceEnabled(), an inlined relaxed load of one cold atomic flag;
///     the span machinery behind the branch is never entered.
///  3. Emission must never block or allocate. Each thread writes to its
///     own fixed-capacity TraceBuffer; when the ring is full, events are
///     dropped and counted (never overwritten, never waited on).
///
/// ---------------------------------------------------------------------
/// Trace file schema (Chrome trace-event "JSON Object Format")
/// ---------------------------------------------------------------------
/// The file is one JSON object:
///
///   {
///     "displayTimeUnit": "ms",
///     "otherData": { ...RunManifest::ToJson()... },
///     "traceEvents": [ <event>, ... ]
///   }
///
/// `otherData` carries the run manifest (resolved config, schema, seed,
/// git describe — see obs/manifest.h) so every trace is self-describing.
///
/// Each element of `traceEvents` is one event:
///
///   name  string  span name (see the catalog below)
///   cat   string  category: "exec" | "morsel" | "storage" | "pipeline"
///                 | "phase"
///   ph    string  "X" = complete span (has dur), "i" = instant event
///   ts    int     begin time, microseconds since trace start
///   dur   int     span length in microseconds ("X" only)
///   pid   int     always 1 (single process)
///   tid   int     emitting thread: 0 = the dispatching thread, then in
///                 order of first emission (pool workers, I/O crew)
///   args  object  span-specific int fields, at most two
///
/// Span catalog (name / cat / args):
///   region         exec      workers      parallel region (ThreadPool::Run)
///   task           exec      worker       one worker's share of a region
///   io_submit      exec      —            I/O-crew submission (instant)
///   io_task        exec      —            one crew task execution
///   chunk          morsel    chunk,stolen one morsel execution; stolen=1
///                                         when the executing worker is not
///                                         the chunk's static owner
///   demand_read    storage   page,pages   one run of demand misses read
///                                         with one call (first page, run
///                                         length); dur = the stall
///   prefetch_issue storage   page,pages   async request issued (instant)
///   prefetch_land  storage   pages        crew execution of one request
///   prefetch_drain storage   pages        end-of-span wait + counter fold
///   iteration      pipeline  iter         one EM iteration / SGD epoch
///   scan           pipeline  chunk_begin,chunk_end
///                                         one AccessStrategy pass/span scan
///   shard_scan     pipeline  shard        one shard's scan window
///   delta_extract  pipeline  shard,bytes  ShardDelta serialization
///   delta_apply    pipeline  shard        ShardDelta deserialization
///   delta_merge    pipeline  shards       the shard-id-order merge
///   <phase name>   phase     —            every core::PhaseScope (model
///                                         phases: e_step, gram, solve,
///                                         assign, update, irls, ...)
/// ---------------------------------------------------------------------

/// Microseconds since process start (monotonic). Used for both span
/// timestamps and durations so they share one clock.
uint64_t NowMicros();

/// One recorded event. POD; name/cat/arg-name pointers must be string
/// literals (or otherwise outlive the tracer) — they are written to JSON
/// at flush, not copied at emit.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  uint64_t ts_micros = 0;
  uint64_t dur_micros = 0;
  char phase = 'X';  // 'X' complete span, 'i' instant
  const char* arg1_name = nullptr;
  const char* arg2_name = nullptr;
  int64_t arg1 = 0;
  int64_t arg2 = 0;
};

/// Span categories (string literals shared by emit sites and tests).
inline constexpr const char kCatExec[] = "exec";
inline constexpr const char kCatMorsel[] = "morsel";
inline constexpr const char kCatStorage[] = "storage";
inline constexpr const char kCatPipeline[] = "pipeline";
inline constexpr const char kCatPhase[] = "phase";

/// Fixed-capacity single-writer ring: the emitting thread appends, the
/// flusher reads after the run quiesces. Overflow drops (counted), never
/// blocks and never overwrites — so every stored event was written before
/// the release-store of size_ that published it, and a reader's acquire
/// load of size() bounds what it may touch (TSan-clean by construction).
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity_events)
      : events_(capacity_events < 1 ? 1 : capacity_events) {}

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Appends one event; false (and one counted drop) when full.
  bool Emit(const TraceEvent& ev) {
    const size_t i = size_.load(std::memory_order_relaxed);
    if (i >= events_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    events_[i] = ev;
    size_.store(i + 1, std::memory_order_release);
    return true;
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }
  size_t capacity() const { return events_.size(); }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const TraceEvent& event(size_t i) const { return events_[i]; }

  /// Empties the ring (and resizes it when the capacity changed). Only
  /// safe while no thread is emitting — Tracer::Start calls it between
  /// runs, when the pool is idle.
  void Reset(size_t capacity_events) {
    events_.clear();
    events_.resize(capacity_events < 1 ? 1 : capacity_events);
    size_.store(0, std::memory_order_release);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<TraceEvent> events_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> dropped_{0};
};

namespace internal {
/// The cold global switch every guard branches on. Off by default; only
/// Tracer::Start/Stop write it.
extern std::atomic<bool> g_trace_enabled;
/// Routes one event to the calling thread's ring (registering a buffer on
/// first emission). Out-of-line: only reached when tracing is on.
void EmitToThreadBuffer(const TraceEvent& ev);
}  // namespace internal

/// The compile-time-inlined guard: one relaxed load + branch when off.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Emits an instant event (no-op when tracing is off).
inline void TraceInstant(const char* cat, const char* name,
                         const char* arg_name = nullptr, int64_t arg = 0) {
  if (!TraceEnabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_micros = NowMicros();
  ev.phase = 'i';
  ev.arg1_name = arg_name;
  ev.arg1 = arg;
  internal::EmitToThreadBuffer(ev);
}

/// RAII complete-span guard: stamps the begin time at construction, emits
/// one "X" event with the measured duration at destruction. When tracing
/// is off the constructor is a single branch and the destructor another;
/// no clock is read and nothing is stored.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name) {
    if (!TraceEnabled()) return;
    cat_ = cat;
    name_ = name;
    begin_ = NowMicros();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches args (any time before destruction; later wins).
  void Arg(const char* key, int64_t value) {
    if (cat_ == nullptr) return;
    arg1_name_ = key;
    arg1_ = value;
  }
  void Arg2(const char* key, int64_t value) {
    if (cat_ == nullptr) return;
    arg2_name_ = key;
    arg2_ = value;
  }

  ~TraceSpan() {
    if (cat_ == nullptr) return;
    TraceEvent ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.ts_micros = begin_;
    ev.dur_micros = NowMicros() - begin_;
    ev.arg1_name = arg1_name_;
    ev.arg1 = arg1_;
    ev.arg2_name = arg2_name_;
    ev.arg2 = arg2_;
    internal::EmitToThreadBuffer(ev);
  }

 private:
  const char* cat_ = nullptr;  // nullptr = tracing was off at construction
  const char* name_ = nullptr;
  uint64_t begin_ = 0;
  const char* arg1_name_ = nullptr;
  const char* arg2_name_ = nullptr;
  int64_t arg1_ = 0;
  int64_t arg2_ = 0;
};

/// The process-wide tracer: owns every thread's ring buffer (registered
/// lazily at first emission, kept for the process lifetime so thread-local
/// pointers never dangle) and the JSON flush. Start/Stop/WriteJson must be
/// called outside parallel regions — between training runs, when the pool
/// workers are idle.
class Tracer {
 public:
  static Tracer& Instance();

  /// Enables tracing with `buffer_kb` KiB of ring per thread (events are
  /// fixed-size; the capacity in events is buffer_kb * 1024 / sizeof).
  /// Resets all previously registered buffers.
  void Start(size_t buffer_kb);

  /// Disables tracing. Buffers keep their contents for WriteJson.
  void Stop();

  /// Flushes every buffer to `path` as Chrome trace-event JSON, embedding
  /// `manifest_json` (a JSON object, may be empty -> "{}") as otherData.
  Status WriteJson(const std::string& path,
                   const std::string& manifest_json) const;

  /// Events currently buffered / dropped across all threads.
  uint64_t TotalEvents() const;
  uint64_t TotalDropped() const;

  size_t buffer_capacity_events() const { return capacity_events_; }

 private:
  Tracer() = default;
  friend void internal::EmitToThreadBuffer(const TraceEvent& ev);

  /// Registers (or returns) the calling thread's buffer.
  TraceBuffer* ThreadBuffer();

  mutable std::mutex mu_;  // guards buffers_ registration and flush
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  size_t capacity_events_ = 1;
};

}  // namespace factorml::obs

#endif  // FACTORML_OBS_TRACE_H_
