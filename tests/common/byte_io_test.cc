#include "common/byte_io.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace otfair::common {
namespace {

// Every zero-length array read, into a null destination (an empty
// vector's data()), succeeds and consumes nothing.
void ExpectZeroLengthReadsSucceed(ByteReader& reader) {
  const size_t before = reader.remaining();
  EXPECT_TRUE(reader.Doubles(nullptr, 0));
  EXPECT_TRUE(reader.U64s(nullptr, 0));
  EXPECT_TRUE(reader.U32s(nullptr, 0));
  EXPECT_TRUE(reader.Bytes(nullptr, 0));
  EXPECT_EQ(reader.remaining(), before);
}

TEST(ByteReaderTest, ZeroLengthReadsIntoNullSucceed) {
  std::string bytes;
  ByteWriter writer(&bytes);
  writer.U32(7);
  ByteReader reader(bytes);
  ExpectZeroLengthReadsSucceed(reader);
  uint32_t v = 0;
  ASSERT_TRUE(reader.U32(&v));
  EXPECT_EQ(v, 7u);
  // At the end of the buffer, and over no buffer at all.
  EXPECT_TRUE(reader.exhausted());
  ExpectZeroLengthReadsSucceed(reader);
  EXPECT_TRUE(reader.exhausted());
  ByteReader empty(nullptr, 0);
  ExpectZeroLengthReadsSucceed(empty);
  EXPECT_TRUE(empty.exhausted());
}

TEST(ByteReaderTest, OverlongReadFailsAndPoisonsLaterReads) {
  std::string bytes;
  ByteWriter writer(&bytes);
  writer.U64(1);
  writer.U32(2);
  ByteReader reader(bytes);
  uint64_t words[2] = {0, 0};
  EXPECT_FALSE(reader.U64s(words, 2));
  EXPECT_TRUE(reader.exhausted());
  // The 12 bytes that would have fitted a smaller read are gone too.
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string s;
  EXPECT_FALSE(reader.U8(&u8));
  EXPECT_FALSE(reader.U32(&u32));
  EXPECT_FALSE(reader.U64(&u64));
  EXPECT_FALSE(reader.F64(&f64));
  EXPECT_FALSE(reader.Doubles(&f64, 1));
  EXPECT_FALSE(reader.String(&s, 16));
}

}  // namespace
}  // namespace otfair::common
