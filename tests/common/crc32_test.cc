#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"

namespace otfair::common {
namespace {

// The textbook bitwise CRC-32 (reflected 0xEDB88320, init and final xor
// 0xFFFFFFFF): the reference the table-driven code must reproduce.
uint32_t BytewiseCrc32(const unsigned char* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.UniformInt(256));
  return bytes;
}

TEST(Crc32Test, KnownCheckValue) {
  // The standard CRC-32 check value of the ASCII digits 1..9.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// The two kernel tables Crc32Update can dispatch to: slicing-by-8 and the
// widest one this CPU runs (the PCLMULQDQ fold on x86-64 with AVX2), which
// OTFAIR_NO_SIMD does not mask. Crc32 itself goes through the active one.
std::vector<const simd::Ops*> CrcTables() { return {&simd::ScalarOps(), &simd::BestOps()}; }

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 65-300 cross the fold's 64-byte block and 16-byte tail
  // boundaries; offsets 0-15 cover every alignment of its 16-byte loads.
  const std::vector<unsigned char> bytes = RandomBytes(4103 + 16, 17);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  for (size_t len = 4096; len <= 4103; ++len) lengths.push_back(len);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len : lengths) {
      const unsigned char* p = bytes.data() + offset;
      const uint32_t expected = BytewiseCrc32(p, len);
      EXPECT_EQ(Crc32(p, len), expected) << "offset " << offset << " len " << len;
      for (const simd::Ops* ops : CrcTables()) {
        EXPECT_EQ(Crc32Final(ops->crc32_update(kCrc32Init, p, len)), expected)
            << ops->isa << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32Test, IncrementalUpdatesAgreeAtEverySplitPoint) {
  const std::vector<unsigned char> bytes = RandomBytes(200, 18);
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{64},
                     size_t{65}, size_t{70}, size_t{128}, size_t{200}}) {
    const uint32_t whole = BytewiseCrc32(bytes.data(), len);
    for (size_t split = 0; split <= len; ++split) {
      uint32_t crc = Crc32Update(kCrc32Init, bytes.data(), split);
      crc = Crc32Update(crc, bytes.data() + split, len - split);
      EXPECT_EQ(Crc32Final(crc), whole) << "len " << len << " split " << split;
      for (const simd::Ops* ops : CrcTables()) {
        crc = ops->crc32_update(kCrc32Init, bytes.data(), split);
        crc = ops->crc32_update(crc, bytes.data() + split, len - split);
        EXPECT_EQ(Crc32Final(crc), whole) << ops->isa << " len " << len << " split " << split;
      }
    }
  }
}

}  // namespace
}  // namespace otfair::common
