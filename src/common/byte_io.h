#ifndef OTFAIR_COMMON_BYTE_IO_H_
#define OTFAIR_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace otfair::common {

/// Append-only binary serializer over a caller-owned std::string. Scalars
/// are written in native (little-endian on every supported target) byte
/// order, matching the on-disk layout the plan format has always used.
/// The writer never fails: the buffer grows as needed.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }

  void Bytes(const void* data, size_t len) { Raw(data, len); }
  /// u64 length prefix + raw bytes.
  void String(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Doubles(const double* data, size_t count) { Raw(data, count * sizeof(double)); }
  void U64s(const uint64_t* data, size_t count) { Raw(data, count * sizeof(uint64_t)); }
  void U32s(const uint32_t* data, size_t count) { Raw(data, count * sizeof(uint32_t)); }

  size_t size() const { return out_->size(); }

 private:
  void Raw(const void* data, size_t len) {
    out_->append(static_cast<const char*>(data), len);
  }

  std::string* out_;
};

/// Bounds-checked binary reader over a caller-owned buffer. Every read
/// returns false instead of running past the end, and `remaining()` lets
/// parsers reject element counts whose payload could not possibly fit —
/// the guard that keeps a corrupt length field from triggering a huge
/// allocation before the truncation is even noticed.
///
/// The reader does not own the buffer; the caller keeps it alive.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), end_(data + size) {}
  explicit ByteReader(const std::string& bytes) : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - data_); }
  bool exhausted() const { return data_ == end_; }

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }

  bool Bytes(void* out, size_t len) { return Raw(out, len); }
  /// Reads a u64-length-prefixed string, rejecting lengths above
  /// `max_len` (or past the buffer end) before allocating.
  bool String(std::string* s, size_t max_len) {
    uint64_t len = 0;
    if (!U64(&len)) return false;
    if (len > max_len || len > remaining()) return false;
    s->assign(data_, static_cast<size_t>(len));
    data_ += len;
    return true;
  }
  bool Doubles(double* out, size_t count) { return Raw(out, count * sizeof(double)); }
  bool U64s(uint64_t* out, size_t count) { return Raw(out, count * sizeof(uint64_t)); }
  bool U32s(uint32_t* out, size_t count) { return Raw(out, count * sizeof(uint32_t)); }

  /// True when `count` elements of `elem_size` bytes still fit — the
  /// pre-allocation check for length-prefixed arrays.
  bool Fits(uint64_t count, size_t elem_size) const {
    return count <= remaining() / elem_size;
  }

 private:
  bool Raw(void* out, size_t len) {
    // An empty array's data() may be null, and memcpy to null is undefined
    // even for zero bytes.
    if (len == 0) return true;
    if (len > remaining()) {
      data_ = end_;  // poison: every later read fails too
      return false;
    }
    std::memcpy(out, data_, len);
    data_ += len;
    return true;
  }

  const char* data_;
  const char* end_;
};

}  // namespace otfair::common

#endif  // OTFAIR_COMMON_BYTE_IO_H_
