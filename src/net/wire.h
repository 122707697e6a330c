#ifndef FACTORML_NET_WIRE_H_
#define FACTORML_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace factorml::net {

/// Appends fixed-width scalars and length-prefixed strings to a byte
/// buffer. Native-endian, like the ShardDelta wire format: a checkpoint
/// is read back by the build that wrote it, on the same host; doubles are
/// memcpy'd so parameters and objectives round-trip bit-exactly.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    out_.append(s);
  }

  std::string Take() { return std::move(out_); }

 private:
  void Raw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string out_;
};

/// Bounds-checked reader over a received payload. Every accessor fails
/// with InvalidArgument instead of reading past the end, so a truncated or
/// corrupted header surfaces as a bounded error, never as a wild read —
/// the property net_test pins.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  Status U8(uint8_t* v) { return Fixed(v, sizeof(*v)); }
  Status U32(uint32_t* v) { return Fixed(v, sizeof(*v)); }
  Status U64(uint64_t* v) { return Fixed(v, sizeof(*v)); }
  Status I64(int64_t* v) { return Fixed(v, sizeof(*v)); }
  Status F64(double* v) { return Fixed(v, sizeof(*v)); }
  Status Str(std::string* s) {
    uint64_t len = 0;
    FML_RETURN_IF_ERROR(U64(&len));
    if (len > bytes_.size() - off_) {
      return Status::InvalidArgument(
          "wire: string length exceeds remaining payload");
    }
    s->assign(bytes_.data() + off_, static_cast<size_t>(len));
    off_ += static_cast<size_t>(len);
    return Status::OK();
  }

  bool AtEnd() const { return off_ == bytes_.size(); }

 private:
  Status Fixed(void* p, size_t n) {
    if (n > bytes_.size() - off_) {
      return Status::InvalidArgument("wire: truncated payload");
    }
    std::memcpy(p, bytes_.data() + off_, n);
    off_ += n;
    return Status::OK();
  }

  const std::string& bytes_;
  size_t off_ = 0;
};

}  // namespace factorml::net

#endif  // FACTORML_NET_WIRE_H_
