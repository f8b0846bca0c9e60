#include "common/crc32.h"

#include <array>

namespace otfair::common {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

// Little-endian load, independent of the host byte order.
inline uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t a = Load32(bytes) ^ crc;
    const uint32_t b = Load32(bytes + 4);
    crc = kTables[7][a & 0xFFu] ^ kTables[6][(a >> 8) & 0xFFu] ^
          kTables[5][(a >> 16) & 0xFFu] ^ kTables[4][a >> 24] ^ kTables[3][b & 0xFFu] ^
          kTables[2][(b >> 8) & 0xFFu] ^ kTables[1][(b >> 16) & 0xFFu] ^ kTables[0][b >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Final(Crc32Update(kCrc32Init, data, len));
}

}  // namespace otfair::common
