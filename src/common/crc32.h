#ifndef OTFAIR_COMMON_CRC32_H_
#define OTFAIR_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace otfair::common {

/// IEEE 802.3 CRC-32 (the zlib/gzip polynomial 0xEDB88320, reflected,
/// init/final-xor 0xFFFFFFFF). Used as the integrity check on plan files
/// and checkpoint payloads: it catches the bit-flips and truncations the
/// chaos harness injects, without pulling in any external dependency. The
/// kernel is common::simd's `crc32_update` (slicing-by-8, or a PCLMULQDQ
/// fold on x86-64 CPUs with AVX2); every kernel returns the same CRC.
uint32_t Crc32(const void* data, size_t len);

inline uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// Incremental form: feed chunks with `crc = Crc32Update(crc, ...)`,
/// starting from `kCrc32Init`, and finalize with `Crc32Final`.
inline constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);
inline uint32_t Crc32Final(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

}  // namespace otfair::common

#endif  // OTFAIR_COMMON_CRC32_H_
