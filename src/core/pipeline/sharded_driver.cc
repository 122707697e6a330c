// The shard plane's driver and the ShardDelta byte format.
//
// Format v2 (native-endian: the bytes never leave the process that made
// them). The decoded payload is the doubles of slots
// chunk_begin..chunk_end-1 in chunk order, each slot in its
// VisitSlotState span sequence; in the bytes it is run-length encoded:
//   bytes [0, 8)   magic "FMLSHRD2"
//   bytes [8, 16)  int64  shard id
//   bytes [16, 24) int64  chunk_begin (global chunk id, inclusive)
//   bytes [24, 32) int64  chunk_end   (global chunk id, exclusive)
//   bytes [32, 40) uint64 decoded payload double count
//   bytes [40, 48) uint64 encoded byte count (everything after byte 48)
//   bytes [48, ..) runs of { uint64 zero_count, uint64 literal_count,
//                  literal_count literal doubles } until the decoded
//                  count is reached. Decoding replays the exact double
//                  stream (zeros are bit-pattern +0.0), so the round trip
//                  is bit-identical.

#include "core/pipeline/sharded_driver.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_stats.h"

namespace factorml::core::pipeline {

namespace {

constexpr char kMagic[8] = {'F', 'M', 'L', 'S', 'H', 'R', 'D', '2'};
constexpr size_t kHeaderBytes = 48;  // magic + 5 x i64

void AppendI64(std::string* out, int64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

int64_t ReadI64(const std::string& bytes, size_t off) {
  int64_t v;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

bool IsZeroDouble(double v) {
  // Bit-pattern zero only: -0.0 and denormals are literals, so the
  // decoded stream replays the encoder's doubles bit-for-bit.
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits == 0;
}

/// Run-length-encodes a double payload: runs of bit-pattern +0.0
/// collapse to a counter, everything else is shipped literally.
std::string RunLengthEncode(const std::string& payload) {
  const auto* vals = reinterpret_cast<const double*>(payload.data());
  const size_t n = payload.size() / sizeof(double);
  std::string out;
  size_t i = 0;
  while (i < n) {
    size_t zeros = 0;
    while (i + zeros < n && IsZeroDouble(vals[i + zeros])) ++zeros;
    size_t lits = 0;
    while (i + zeros + lits < n && !IsZeroDouble(vals[i + zeros + lits])) {
      ++lits;
    }
    AppendI64(&out, static_cast<int64_t>(zeros));
    AppendI64(&out, static_cast<int64_t>(lits));
    out.append(payload.data() + (i + zeros) * sizeof(double),
               lits * sizeof(double));
    i += zeros + lits;
  }
  return out;
}

std::string DeltaError(const ShardDelta& delta, const std::string& what) {
  return "ShardDelta (shard " + std::to_string(delta.shard) + ", chunks [" +
         std::to_string(delta.chunk_begin) + ", " +
         std::to_string(delta.chunk_end) + "), " +
         std::to_string(delta.bytes.size()) + " wire bytes): " + what;
}

}  // namespace

ShardDelta ExtractShardDelta(ModelProgram* model, int pass, int shard,
                             exec::Range chunks) {
  ShardDelta delta;
  delta.shard = shard;
  delta.chunk_begin = chunks.begin;
  delta.chunk_end = chunks.end;
  std::string payload;
  for (int64_t c = chunks.begin; c < chunks.end; ++c) {
    model->VisitSlotState(
        pass, static_cast<int>(c),
        [&payload](double* data, double* /*merged*/, size_t len) {
          payload.append(reinterpret_cast<const char*>(data),
                         len * sizeof(double));
          std::fill(data, data + len, 0.0);
        });
  }
  const std::string encoded = RunLengthEncode(payload);
  delta.bytes.reserve(kHeaderBytes + encoded.size());
  delta.bytes.append(kMagic, sizeof(kMagic));
  AppendI64(&delta.bytes, shard);
  AppendI64(&delta.bytes, chunks.begin);
  AppendI64(&delta.bytes, chunks.end);
  AppendI64(&delta.bytes,
            static_cast<int64_t>(payload.size() / sizeof(double)));
  AppendI64(&delta.bytes, static_cast<int64_t>(encoded.size()));
  delta.bytes += encoded;
  return delta;
}

Status ApplyShardDelta(ModelProgram* model, int pass,
                       const ShardDelta& delta) {
  const std::string& bytes = delta.bytes;
  if (bytes.size() < sizeof(kMagic)) {
    return Status::InvalidArgument(DeltaError(
        delta, "truncated before the magic (need 8 bytes)"));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(DeltaError(delta, "bad magic"));
  }
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument(DeltaError(
        delta, "truncated header (need " + std::to_string(kHeaderBytes) +
                   " bytes)"));
  }
  const int64_t wire_shard = ReadI64(bytes, 8);
  const int64_t wire_begin = ReadI64(bytes, 16);
  const int64_t wire_end = ReadI64(bytes, 24);
  if (wire_shard != delta.shard || wire_begin != delta.chunk_begin ||
      wire_end != delta.chunk_end) {
    return Status::InvalidArgument(DeltaError(
        delta, "header/span mismatch: wire header says shard " +
                   std::to_string(wire_shard) + " chunks [" +
                   std::to_string(wire_begin) + ", " +
                   std::to_string(wire_end) + ")"));
  }
  const auto payload_doubles = static_cast<uint64_t>(ReadI64(bytes, 32));
  const auto encoded_bytes = static_cast<uint64_t>(ReadI64(bytes, 40));
  if (bytes.size() != kHeaderBytes + encoded_bytes) {
    return Status::InvalidArgument(DeltaError(
        delta, "encoded length mismatch: header declares " +
                   std::to_string(encoded_bytes) +
                   " encoded bytes, frame carries " +
                   std::to_string(bytes.size() - kHeaderBytes)));
  }
  // The RLE-decoded double stream the slot copy-back consumes.
  std::string decoded;
  decoded.reserve(payload_doubles * sizeof(double));
  size_t pos = kHeaderBytes;
  uint64_t produced = 0;
  while (pos < bytes.size()) {
    if (pos + 2 * sizeof(int64_t) > bytes.size()) {
      return Status::InvalidArgument(DeltaError(
          delta, "truncated run header at encoded offset " +
                     std::to_string(pos - kHeaderBytes)));
    }
    const int64_t zeros = ReadI64(bytes, pos);
    const int64_t lits = ReadI64(bytes, pos + sizeof(int64_t));
    pos += 2 * sizeof(int64_t);
    if (zeros < 0 || lits < 0 ||
        produced + static_cast<uint64_t>(zeros + lits) > payload_doubles) {
      return Status::InvalidArgument(DeltaError(
          delta, "run overruns the declared " +
                     std::to_string(payload_doubles) + " payload doubles"));
    }
    const size_t lit_bytes = static_cast<size_t>(lits) * sizeof(double);
    if (pos + lit_bytes > bytes.size()) {
      return Status::InvalidArgument(DeltaError(
          delta, "truncated literal run: need " + std::to_string(lit_bytes) +
                     " bytes, have " + std::to_string(bytes.size() - pos)));
    }
    decoded.append(static_cast<size_t>(zeros) * sizeof(double), '\0');
    decoded.append(bytes.data() + pos, lit_bytes);
    pos += lit_bytes;
    produced += static_cast<uint64_t>(zeros + lits);
  }
  if (produced != payload_doubles) {
    return Status::InvalidArgument(DeltaError(
        delta, "decoded " + std::to_string(produced) +
                   " doubles, header declared " +
                   std::to_string(payload_doubles)));
  }
  const char* payload = decoded.data();
  const size_t payload_size = decoded.size();
  size_t off = 0;
  bool overrun = false;
  for (int64_t c = delta.chunk_begin; c < delta.chunk_end; ++c) {
    model->VisitSlotState(
        pass, static_cast<int>(c),
        [payload, payload_size, &off, &overrun](
            double* data, double* /*merged*/, size_t len) {
          const size_t want = len * sizeof(double);
          if (overrun || off + want > payload_size) {
            overrun = true;
            return;
          }
          std::memcpy(data, payload + off, want);
          off += want;
        });
  }
  if (overrun || off != payload_size) {
    return Status::InvalidArgument(DeltaError(
        delta,
        "slot-state shape drifted between serialize and apply (consumed " +
            std::to_string(off) + " of " + std::to_string(payload_size) +
            " payload bytes)"));
  }
  return Status::OK();
}

Status ShardedDriver::Init(AccessStrategy* strategy,
                           const StrategyOptions& options,
                           TrainReport* report) {
  FML_CHECK_GT(options.shards, 1);
  plan_ = exec::PlanShards(strategy->MorselPlan(), options.shards);
  report_ = report;
  if (report_ != nullptr) {
    report_->shards = std::max(plan_.num_shards(), 1);
    report_->shard_stats.assign(
        static_cast<size_t>(plan_.num_shards()), TrainReport::ShardStat{});
    for (int k = 0; k < plan_.num_shards(); ++k) {
      report_->shard_stats[static_cast<size_t>(k)].chunk_begin =
          plan_.ChunkSpan(k).begin;
      report_->shard_stats[static_cast<size_t>(k)].chunk_end =
          plan_.ChunkSpan(k).end;
    }
  }
  return Status::OK();
}

Status ShardedDriver::RunPass(AccessStrategy* strategy,
                              const PipelineContext& ctx, ModelProgram* model,
                              int pass) {
  model_ = model;
  pass_ = pass;
  deltas_.clear();
  deltas_.reserve(static_cast<size_t>(plan_.num_shards()));
  io_mark_ = storage::GlobalIo();
  scan_watch_.Restart();
  strategy->SetShardScan(&plan_, this);
  const Status scan = strategy->RunPass(ctx, model, pass);
  strategy->SetShardScan(nullptr, nullptr);
  FML_RETURN_IF_ERROR(scan);
  FML_CHECK_EQ(deltas_.size(), static_cast<size_t>(plan_.num_shards()));
  // Merge in shard-id order. Shard spans ascend over the chunk ids, so
  // this runs MergeSlots in exactly the global chunk order of the
  // unsharded reduction — the delta round-trip in between is a pure
  // serialization boundary (memcpy of doubles), hence bit-exact.
  obs::TraceSpan merge_span(obs::kCatPipeline, "delta_merge");
  merge_span.Arg("shards", plan_.num_shards());
  for (const ShardDelta& delta : deltas_) {
    obs::TraceSpan apply_span(obs::kCatPipeline, "delta_apply");
    apply_span.Arg("shard", delta.shard);
    FML_RETURN_IF_ERROR(ApplyShardDelta(model, pass, delta));
    MergeSlots(model, pass, exec::Range{delta.chunk_begin, delta.chunk_end});
  }
  return Status::OK();
}

Status ShardedDriver::OnShardScanned(int shard) {
  FML_CHECK_EQ(static_cast<size_t>(shard), deltas_.size());
  // Contiguous accounting windows: everything since the previous shard's
  // snapshot — the scan, its prefetch drain (which folds the crew's
  // physical reads into this thread) and the worker-counter merges — is
  // this shard's, so the per-shard counters sum exactly to the scan
  // phase's totals with nothing double-counted or dropped.
  const storage::IoStats now = storage::GlobalIo();
  if (report_ != nullptr) {
    auto& stat = report_->shard_stats[static_cast<size_t>(shard)];
    stat.io += now - io_mark_;
    stat.scan_seconds += scan_watch_.ElapsedSeconds();
  }
  io_mark_ = now;
  static obs::Counter* delta_count =
      obs::Registry::Instance().GetCounter("pipeline.shard_deltas");
  static obs::Counter* delta_bytes =
      obs::Registry::Instance().GetCounter("pipeline.delta_bytes");
  {
    obs::TraceSpan extract_span(obs::kCatPipeline, "delta_extract");
    extract_span.Arg("shard", shard);
    deltas_.push_back(
        ExtractShardDelta(model_, pass_, shard, plan_.ChunkSpan(shard)));
    extract_span.Arg2("bytes",
                      static_cast<int64_t>(deltas_.back().bytes.size()));
  }
  delta_count->Add();
  delta_bytes->Add(deltas_.back().bytes.size());
  // Restart after the extraction so serialization time is charged to no
  // shard's scan window (it is merge-plane work, not scanning).
  scan_watch_.Restart();
  return Status::OK();
}

}  // namespace factorml::core::pipeline
