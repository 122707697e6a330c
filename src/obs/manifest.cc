#include "obs/manifest.h"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/json.h"
#include "la/kernels.h"

namespace factorml::obs {

const char* GitDescribe() {
#ifdef FACTORML_GIT_DESCRIBE
  return FACTORML_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

RunManifest RunManifest::FromArgs(const std::string& binary,
                                  const ArgParser& args,
                                  int64_t default_morsel_rows,
                                  int default_threads) {
  RunManifest m;
  m.binary = binary;
  m.git_describe = GitDescribe();
  m.threads = args.GetThreads(default_threads);
  m.morsel_rows = args.GetMorselRows(default_morsel_rows);
  m.steal = args.GetSteal(false);
  m.shards = args.GetShards(1);
  m.prefetch = args.GetPrefetch(false);
  m.prefetch_depth = args.GetPrefetchDepth(2);
  m.kernels = args.GetKernels();
  m.kernel_backend = m.kernels == "simd" ? la::SimdBackendName() : "scalar";
  m.cpu_features = la::CpuFeatures();
  m.buffer_pages = args.GetBufferPages(8192);
  m.seed = static_cast<uint64_t>(
      args.GetBoundedInt("seed", 42, 0, INT64_MAX, "must be an integer >= 0"));
  m.trace_path = args.GetTracePath();
  m.trace_buffer_kb = args.GetTraceBufferKb();
  return m;
}

std::string RunManifest::ToJson() const {
  std::ostringstream os;
  os << "{\"binary\": \"" << JsonEscape(binary) << "\""
     << ", \"git_describe\": \"" << JsonEscape(git_describe) << "\""
     << ", \"threads\": " << threads
     << ", \"morsel_rows\": " << morsel_rows
     << ", \"steal\": " << (steal ? "true" : "false")
     << ", \"shards\": " << shards
     << ", \"prefetch\": " << (prefetch ? "true" : "false")
     << ", \"prefetch_depth\": " << prefetch_depth
     << ", \"kernels\": \"" << JsonEscape(kernels) << "\""
     << ", \"kernel_backend\": \"" << JsonEscape(kernel_backend) << "\""
     << ", \"cpu_features\": \"" << JsonEscape(cpu_features) << "\""
     << ", \"buffer_pages\": " << buffer_pages << ", \"seed\": " << seed
     << ", \"schema\": \"" << JsonEscape(schema) << "\""
     << ", \"trace\": \"" << JsonEscape(trace_path) << "\""
     << ", \"trace_buffer_kb\": " << trace_buffer_kb << "}";
  return os.str();
}

Status RunManifest::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write manifest file " + path);
  }
  const std::string json = ToJson();
  std::fprintf(f, "%s\n", json.c_str());
  if (std::fclose(f) != 0) {
    return Status::IoError("short write to manifest file " + path);
  }
  return Status::OK();
}

}  // namespace factorml::obs
