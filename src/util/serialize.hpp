// Little binary writer/reader pair for pipeline artifacts.
//
// All multi-byte integers are stored little-endian and fixed-width, so the
// byte stream doubles as the canonical form for content hashing: two values
// serialize identically iff the serializer writes identical fields. The
// reader validates every access against the buffer bounds and throws
// ripple::Error on truncated or trailing data, which the artifact cache
// treats as a miss.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace ripple {

class ByteWriter {
public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  [[nodiscard]] bool b() { return u8() != 0; }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  [[nodiscard]] std::vector<std::uint8_t> blob(std::uint64_t n) {
    need(n);
    std::vector<std::uint8_t> v(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  /// A size field about to drive a reserve/resize; bounded by the remaining
  /// bytes so corrupt input cannot trigger huge allocations.
  [[nodiscard]] std::size_t count(std::size_t min_bytes_per_item = 1) {
    const std::uint64_t n = u64();
    RIPPLE_CHECK(n * min_bytes_per_item <= remaining(),
                 "artifact count field exceeds payload size");
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

  void expect_done() const {
    RIPPLE_CHECK(done(), "trailing bytes in artifact payload");
  }

private:
  void need(std::uint64_t n) const {
    RIPPLE_CHECK(n <= remaining(), "artifact payload truncated");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

} // namespace ripple
