#ifndef FACTORML_OBS_MANIFEST_H_
#define FACTORML_OBS_MANIFEST_H_

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "exec/parallel_for.h"

namespace factorml::obs {

/// The run manifest: the full resolved configuration of one binary
/// invocation, emitted alongside every trace (as the Chrome trace's
/// otherData) and every bench --json record so artifacts are
/// self-describing — a BENCH_*.json or TRACE_*.json pulled from CI months
/// later carries the exact knobs and build that produced it.
struct RunManifest {
  std::string binary;        // "factorml_cli train-gmm", "fig3_gmm_binary"
  std::string git_describe;  // compiled-in `git describe` of the build
  int threads = 1;
  int64_t morsel_rows = 0;
  bool steal = false;
  int shards = 1;
  std::string shard_backend = "inproc";  // --shard-backend flag value
  bool prefetch = false;
  int prefetch_depth = 2;
  std::string kernels = "scalar";    // --kernels flag value
  std::string kernel_backend;        // table simd resolves to ("avx2", ...)
  std::string cpu_features;          // detected ISA, e.g. "x86-64 avx2 fma"
  int64_t buffer_pages = 0;
  uint64_t seed = 0;
  std::string schema;  // free-form dataset/relation shape description
  std::string trace_path;
  int64_t trace_buffer_kb = 0;

  /// Captures the shared runtime flags (threads/morsel-rows/steal/shards/
  /// prefetch/buffer-pages/seed/trace) through the same validating getters
  /// the binaries use, plus the compiled-in git describe. An unset
  /// --morsel-rows records `default_morsel_rows` and an unset --threads
  /// `default_threads`: a binary with its own defaults passes them, so the
  /// manifest names the chunk size and thread count its runs used.
  static RunManifest FromArgs(
      const std::string& binary, const ArgParser& args,
      int64_t default_morsel_rows = exec::kDefaultMorselRows,
      int default_threads = 1);

  /// One JSON object; keys are fixed, values resolved (never the raw flag
  /// strings).
  std::string ToJson() const;

  /// Writes ToJson() to `path` (the sibling manifest artifact CI uploads
  /// next to the trace).
  Status WriteTo(const std::string& path) const;
};

/// The `git describe --always --dirty` string baked in at configure time
/// ("unknown" outside a git checkout).
const char* GitDescribe();

}  // namespace factorml::obs

#endif  // FACTORML_OBS_MANIFEST_H_
