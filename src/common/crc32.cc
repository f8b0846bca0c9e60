#include "common/crc32.h"

#include "common/simd.h"

namespace otfair::common {

// The kernels (slicing-by-8, and a PCLMULQDQ fold where the CPU has it)
// live in the common::simd tables; every table returns the same CRC.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  return simd::Active().crc32_update(crc, static_cast<const unsigned char*>(data), len);
}

uint32_t Crc32(const void* data, size_t len) {
  return Crc32Final(Crc32Update(kCrc32Init, data, len));
}

}  // namespace otfair::common
