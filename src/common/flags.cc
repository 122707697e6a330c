#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <sstream>

namespace factorml {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg] = "true";  // bare flag, e.g. --verbose
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool ArgParser::Has(const std::string& key) const {
  return kv_.count(key) > 0;
}

int64_t ArgParser::GetInt(const std::string& key, int64_t default_value) const {
  return GetBoundedInt(key, default_value, INT64_MIN, INT64_MAX,
                       "must be an integer");
}

int64_t ArgParser::GetPositiveInt(const std::string& key,
                                  int64_t default_value) const {
  return GetBoundedInt(key, default_value, 1, INT64_MAX,
                       "must be an integer >= 1");
}

int ArgParser::GetIterations(const std::string& key, int default_value) const {
  return static_cast<int>(GetBoundedInt(
      key, default_value, 1, INT_MAX, "must be an integer in [1, 2147483647]"));
}

namespace {

/// Parses all of `text` as a base-10 integer in [lo, hi].
bool ParseBoundedInt(const std::string& text, int64_t lo, int64_t hi,
                     int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end == text.c_str() || *end != '\0' || value < lo ||
      value > hi) {
    return false;
  }
  *out = static_cast<int64_t>(value);
  return true;
}

}  // namespace

int64_t ArgParser::GetBoundedInt(const std::string& key,
                                 int64_t default_value, int64_t lo,
                                 int64_t hi, const char* rule) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  int64_t value = 0;
  if (!ParseBoundedInt(it->second, lo, hi, &value)) {
    std::fprintf(stderr, "invalid --%s=%s (%s)\n", key.c_str(),
                 it->second.c_str(), rule);
    std::exit(2);
  }
  return value;
}

bool ArgParser::GetOnOff(const std::string& key, bool default_value,
                         const char* what) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  if (it->second == "on") return true;
  if (it->second == "off") return false;
  std::fprintf(stderr, "invalid --%s=%s (must be 'on' or 'off'; %s)\n",
               key.c_str(), it->second.c_str(), what);
  std::exit(2);
}

double ArgParser::GetDouble(const std::string& key,
                            double default_value) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (errno == ERANGE || end == it->second.c_str() || *end != '\0' ||
      !std::isfinite(value)) {
    std::fprintf(stderr, "invalid --%s=%s (must be a finite number)\n",
                 key.c_str(), it->second.c_str());
    std::exit(2);
  }
  return value;
}

bool ArgParser::GetBool(const std::string& key, bool default_value) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string ArgParser::GetString(const std::string& key,
                                 const std::string& default_value) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  return it->second;
}

std::vector<int64_t> ArgParser::GetIntList(
    const std::string& key, const std::vector<int64_t>& default_value) const {
  return GetBoundedIntList(key, default_value, INT64_MIN, INT64_MAX,
                           "an integer");
}

std::vector<int64_t> ArgParser::GetPositiveIntList(
    const std::string& key, const std::vector<int64_t>& default_value) const {
  return GetBoundedIntList(key, default_value, 1, INT64_MAX,
                           "an integer >= 1");
}

std::vector<int64_t> ArgParser::GetBoundedIntList(
    const std::string& key, const std::vector<int64_t>& default_value,
    int64_t lo, int64_t hi, const char* what) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return default_value;
  std::vector<int64_t> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    int64_t value = 0;
    if (!ParseBoundedInt(item, lo, hi, &value)) {
      std::fprintf(stderr,
                   "invalid --%s=%s (must be a comma-separated list; '%s' is "
                   "not %s)\n",
                   key.c_str(), it->second.c_str(), item.c_str(), what);
      std::exit(2);
    }
    out.push_back(value);
  }
  return out;
}

int ArgParser::GetThreads(int default_value) const {
  return static_cast<int>(GetBoundedInt(
      "threads", std::max(default_value, 1), 1, INT_MAX,
      "must be an integer >= 1; 1 = the exact serial reproduction"));
}

int64_t ArgParser::GetMorselRows(int64_t default_value) const {
  return GetBoundedInt("morsel-rows", default_value, 1, INT64_MAX,
                       "must be an integer >= 1; leave the flag unset for "
                       "4096-row chunks");
}

bool ArgParser::GetSteal(bool default_value) const {
  return GetOnOff("steal", default_value,
                  "on = idle workers take chunks from busy ones, "
                  "bit-identical results either way");
}

int ArgParser::GetShards(int default_value) const {
  return static_cast<int>(GetBoundedInt(
      "shards", std::max(default_value, 1), 1, INT_MAX,
      "must be an integer >= 1; 1 = unsharded, N > 1 = rid-range shards "
      "with bit-identical results at the same --morsel-rows"));
}

bool ArgParser::GetPrefetch(bool default_value) const {
  return GetOnOff("prefetch", default_value,
                  "on = overlap the next morsel's page reads with compute, "
                  "bit-identical results either way");
}

int ArgParser::GetPrefetchDepth(int default_value) const {
  return static_cast<int>(GetBoundedInt(
      "prefetch-depth", std::max(default_value, 1), 1, INT_MAX,
      "must be an integer >= 1: batches read ahead per worker; 2 = double "
      "buffering"));
}

std::string ArgParser::GetKernels(const std::string& default_value) const {
  auto it = kv_.find("kernels");
  if (it == kv_.end()) return default_value;
  if (it->second == "scalar" || it->second == "simd") return it->second;
  std::fprintf(stderr,
               "invalid --kernels=%s (must be 'scalar' or 'simd': the kernel "
               "table only; scalar = bit-identical seed kernels, simd = "
               "runtime-dispatched vector kernels, same op counts and page "
               "I/O, results to floating-point reassociation tolerance)\n",
               it->second.c_str());
  std::exit(2);
}

int64_t ArgParser::GetBufferPages(int64_t default_value) const {
  return GetBoundedInt(
      "buffer-pages", std::max<int64_t>(default_value, 1), 1, INT64_MAX,
      "must be an integer >= 1: buffer-pool capacity in 8 KiB pages");
}

std::string ArgParser::GetTracePath(const std::string& default_value) const {
  auto it = kv_.find("trace");
  if (it == kv_.end()) return default_value;
  const std::string& path = it->second;
  // Probe writability now (append mode: an existing file is not
  // truncated by the probe; the flush at run end rewrites it).
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (path.empty() || f == nullptr) {
    std::fprintf(stderr,
                 "invalid --trace=%s (must be a writable file path for the "
                 "Chrome trace-event JSON output)\n",
                 path.c_str());
    std::exit(2);
  }
  std::fclose(f);
  return path;
}

std::string ArgParser::GetShardBackend(const std::string& default_value) const {
  auto it = kv_.find("shard-backend");
  if (it == kv_.end()) return default_value;
  if (it->second == "inproc" || it->second == "process") return it->second;
  std::fprintf(stderr,
               "invalid --shard-backend=%s (must be 'inproc' or 'process'; "
               "inproc = the in-process shard driver, byte-identical to the "
               "seed; process = one factormld worker per shard over "
               "length-prefixed socket frames, bit-identical results)\n",
               it->second.c_str());
  std::exit(2);
}

int64_t ArgParser::GetShardTimeoutMs(int64_t default_value) const {
  return GetBoundedInt(
      "shard-timeout-ms", std::max<int64_t>(default_value, 1), 1, INT64_MAX,
      "must be an integer >= 1: per-worker deadline before a shard worker "
      "is declared dead and its spans are requeued");
}

std::string ArgParser::GetCheckpointDir(
    const std::string& default_value) const {
  auto it = kv_.find("checkpoint-dir");
  if (it == kv_.end()) return default_value;
  const std::string& dir = it->second;
  // Probe writability now (like --trace): create-then-remove a probe file
  // so an unwritable directory fails before the run burns wall time.
  const std::string probe = dir + "/.ckpt-probe";
  std::FILE* f = dir.empty() ? nullptr : std::fopen(probe.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "invalid --checkpoint-dir=%s (must be an existing writable "
                 "directory for the CRC-verified training checkpoints)\n",
                 dir.c_str());
    std::exit(2);
  }
  std::fclose(f);
  std::remove(probe.c_str());
  return dir;
}

int64_t ArgParser::GetCheckpointEvery(int64_t default_value) const {
  auto it = kv_.find("checkpoint-every");
  if (it == kv_.end()) return default_value < 0 ? 0 : default_value;
  if (kv_.find("checkpoint-dir") == kv_.end()) {
    std::fprintf(stderr,
                 "invalid --checkpoint-every=%s (requires --checkpoint-dir; "
                 "the interval has nowhere to write without a checkpoint "
                 "directory)\n",
                 it->second.c_str());
    std::exit(2);
  }
  return GetBoundedInt("checkpoint-every", default_value, 1, INT64_MAX,
                       "must be an integer >= 1: completed iterations "
                       "between checkpoint writes");
}

int64_t ArgParser::GetTraceBufferKb(int64_t default_value) const {
  return GetBoundedInt(
      "trace-buffer-kb", std::max<int64_t>(default_value, 1), 1, INT64_MAX,
      "must be an integer >= 1: per-thread trace ring capacity in KiB; "
      "overflow drops events, counted");
}

}  // namespace factorml
