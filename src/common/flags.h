#ifndef FACTORML_COMMON_FLAGS_H_
#define FACTORML_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace factorml {

/// Minimal `--key=value` command-line parser for the benchmark and example
/// binaries. Unknown flags are kept and can be listed; positional arguments
/// are ignored. Not a general-purpose flags library.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  bool Has(const std::string& key) const;

  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

  /// An integer flag that must be >= 1 — a count or size such as
  /// `--batch`, `--k` or `--nh` that is later cast to an unsigned type.
  /// Values < 1 or non-integers are rejected with an error naming the flag
  /// and exit(2).
  int64_t GetPositiveInt(const std::string& key, int64_t default_value) const;

  /// An iteration-count flag such as `--iters` or `--epochs`: an integer
  /// in [1, INT_MAX]. Anything else is rejected with an error naming the
  /// flag and exit(2), like --threads, instead of being narrowed to int.
  int GetIterations(const std::string& key, int default_value) const;

  /// Comma-separated list of integers, e.g. `--rr=50,100,500`. A
  /// non-integer entry is rejected with an error naming the flag and
  /// exit(2).
  std::vector<int64_t> GetIntList(
      const std::string& key, const std::vector<int64_t>& default_value) const;

  /// A list of counts or sizes such as `--nr=1000,100`: every entry must
  /// be an integer >= 1, else an error naming the flag and exit(2), like
  /// GetPositiveInt.
  std::vector<int64_t> GetPositiveIntList(
      const std::string& key, const std::vector<int64_t>& default_value) const;

  /// The one bounded-integer parse behind the integer getters: absent,
  /// `default_value`; otherwise an integer in [lo, hi], or an
  /// "invalid --key=value (rule)" error and exit(2).
  int64_t GetBoundedInt(const std::string& key, int64_t default_value,
                        int64_t lo, int64_t hi, const char* rule) const;

  /// The shared `--threads` flag: worker count for the exec/ parallel
  /// runtime. Default 1 — the exact serial reproduction. Values < 1 are
  /// rejected with an error and exit(2); this is the single validation
  /// point for every binary (CLI, benches, examples).
  int GetThreads(int default_value = 1) const;

  /// The shared `--morsel-rows=N` flag: rows per chunk of the full-pass
  /// plan, whose results depend on N but not on --threads or --steal.
  /// Absent, it returns `default_value` (0 = unset: the pipeline resolves
  /// it to exec::kDefaultMorselRows). Values < 1 or non-integers are
  /// rejected with an error and exit(2).
  int64_t GetMorselRows(int64_t default_value = 0) const;

  /// The shared `--steal={on,off}` flag: work stealing over the chunk
  /// plan. Anything other than on/off exits(2).
  bool GetSteal(bool default_value = false) const;

  /// The shared `--shards=N` flag: rid-range shards of the full-pass
  /// plane. 1 (default) runs unsharded — byte-identical to the pre-shard
  /// engine. N > 1 splits every full pass into N contiguous chunk spans
  /// driven through the shard plane (one scan + one serialized
  /// ShardDelta per shard, merged in shard-id order); results
  /// are bit-identical to --shards=1 at the same --morsel-rows. Values
  /// < 1 or non-integers are rejected with an error and exit(2).
  int GetShards(int default_value = 1) const;

  /// The shared `--prefetch={on,off}` flag: asynchronous double-buffered
  /// page prefetch over the unified I/O cursor plane. Residency-only —
  /// results are bit-identical either way; off (the default) keeps the
  /// demand-path page-I/O counts byte-identical to the seed goldens.
  /// Anything other than on/off exits(2).
  bool GetPrefetch(bool default_value = false) const;

  /// The shared `--prefetch-depth=N` flag: batches read ahead per worker
  /// when prefetch is on (default 2, classic double buffering). Values
  /// < 1 or non-integers are rejected with an error and exit(2).
  int GetPrefetchDepth(int default_value = 2) const;

  /// The shared `--kernels={scalar,simd}` flag: which la/ kernel table is
  /// active — nothing else (every model reads the same column strips under
  /// both). scalar (the default) replays the per-row loops bit-identically
  /// (the seed goldens); simd selects the best runtime-dispatched vector
  /// backend (AVX2/FMA, NEON, or portable vector extensions) — same op
  /// counts and page I/O, numerics equal to scalar within reassociation
  /// tolerance. Anything else exits(2), listing the choices (like
  /// --steal/--prefetch).
  std::string GetKernels(const std::string& default_value = "scalar") const;

  /// The shared `--buffer-pages=N` flag: buffer-pool capacity in pages.
  /// Values < 1 or non-integers are rejected with an error and exit(2);
  /// this is the single validation point for every binary, like --threads.
  int64_t GetBufferPages(int64_t default_value) const;

  /// The shared `--trace=PATH` flag: span-trace output path for the obs/
  /// tracer (Chrome trace-event JSON, loadable in Perfetto). Empty
  /// (default) leaves tracing off — the guards compile to a branch on a
  /// cold flag. An unwritable path is rejected with an error and exit(2)
  /// up front, not after the traced run has burned its wall time.
  std::string GetTracePath(const std::string& default_value = "") const;

  /// The shared `--io_delay_us=N` flag: simulated device latency per page
  /// transfer, in microseconds (default 0 = none). An integer in
  /// [0, kMaxIoDelayUs] — one second per page is already far slower than
  /// any device the benches model; anything else (a negative value, or a
  /// delay that would stall a run for days) exits(2) naming the flag.
  static constexpr int64_t kMaxIoDelayUs = 1000000;
  int64_t GetIoDelayUs(int64_t default_value = 0) const;

  /// The shared `--trace-buffer-kb=N` flag: per-thread trace ring capacity
  /// in KiB (default 1024). Overflow beyond the ring drops events
  /// (counted), never blocks. Values < 1 or non-integers are rejected
  /// with an error and exit(2).
  int64_t GetTraceBufferKb(int64_t default_value = 1024) const;

  /// The shared `--checkpoint-dir=PATH` flag: directory for CRC-verified
  /// training checkpoints (and their JSON sidecars). Empty (default)
  /// leaves checkpointing off. A non-writable directory is rejected with
  /// an error and exit(2) up front, like --trace.
  std::string GetCheckpointDir(const std::string& default_value = "") const;

  /// The shared `--checkpoint-every=N` flag: completed iterations between
  /// checkpoint writes (default 1 when --checkpoint-dir is set). Requires
  /// --checkpoint-dir; values < 1, non-integers, or use without the dir
  /// flag are rejected with an error and exit(2).
  int64_t GetCheckpointEvery(int64_t default_value = 0) const;

 private:
  /// The list form of GetBoundedInt behind GetIntList and
  /// GetPositiveIntList: every entry an integer in [lo, hi], else an
  /// "invalid --key=value (must be a comma-separated list; 'entry' is not
  /// `what`)" error and exit(2).
  std::vector<int64_t> GetBoundedIntList(
      const std::string& key, const std::vector<int64_t>& default_value,
      int64_t lo, int64_t hi, const char* what) const;
  /// The one on/off parse behind --steal and --prefetch: anything other
  /// than on/off is an "invalid --key=value (must be 'on' or 'off'; what)"
  /// error and exit(2).
  bool GetOnOff(const std::string& key, bool default_value,
                const char* what) const;

  std::map<std::string, std::string> kv_;
};

}  // namespace factorml

#endif  // FACTORML_COMMON_FLAGS_H_
