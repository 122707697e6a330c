// net/ tests: the bounded byte codec (net/wire.h) the checkpoint format
// is written in. The reader's promises are adversarial — a truncated
// scalar or a string length beyond the payload is a bounded error, never
// a read past the buffer.

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "net/wire.h"

namespace factorml::net {
namespace {

TEST(WireTest, WriterReaderRoundTrip) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0102030405060708ull);
  w.I64(-42);
  w.F64(3.14159265358979);
  w.Str(std::string("a string with \0 inside", 22));  // embedded NUL survives
  const std::string blob = w.Take();

  ByteReader r(blob);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string s;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 3.14159265358979);
  EXPECT_EQ(s.size(), 22u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncatedScalarIsBoundedError) {
  ByteWriter w;
  w.U32(7);
  const std::string blob = w.Take();
  ByteReader r(blob);
  uint64_t v = 0;
  const Status st = r.U64(&v);  // asks for 8 bytes, only 4 present
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("truncated"), std::string::npos);
}

TEST(WireTest, StringLengthBeyondPayloadRejected) {
  // A string whose length prefix claims more bytes than remain: the
  // reader must fail, not read past the buffer. The length is near
  // UINT64_MAX so an unchecked `off + len` would also wrap.
  ByteWriter w;
  w.U64(~0ull - 8);
  w.U32(0);
  const std::string blob = w.Take();
  ByteReader r(blob);
  std::string s;
  const Status st = r.Str(&s);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace factorml::net
