// Little-endian binary serialization primitives for the snapshot subsystem.
//
// BinWriter appends fixed-width scalars to a growable byte buffer; BinReader
// decodes them with hard bounds checking — every read validates the remaining
// byte count and throws std::runtime_error on overrun, so a truncated or
// corrupted snapshot fails loudly instead of yielding garbage state.
// Encoding is little-endian regardless of host order, making snapshot files
// portable across machines.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flexnet {

class BinWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  /// Doubles are stored as their IEEE-754 bit pattern, so a round trip is
  /// bit-exact (required for deterministic RunningStat restoration).
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }
  /// Length-prefixed (u64) byte string.
  void str(std::string_view s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  /// Raw bytes, no length prefix (caller frames them).
  void raw(const void* data, std::size_t size) {
    // resize + memcpy rather than a range insert: g++ 12 at -O3 reports a
    // false -Wstringop-overflow on the inlined insert.
    if (size == 0) return;
    const std::size_t at = bytes_.size();
    bytes_.resize(at + size);
    std::memcpy(bytes_.data() + at, data, size);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const& noexcept {
    return bytes_;
  }
  /// Hands the buffer over without copying it.
  [[nodiscard]] std::vector<std::uint8_t> bytes() && noexcept {
    return std::move(bytes_);
  }
  void reserve(std::size_t size) { bytes_.reserve(size); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

  /// Overwrites a previously written u64 at `offset` (section length
  /// back-patching).
  void patch_u64(std::size_t offset, std::uint64_t v);

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class BinReader {
 public:
  /// Non-owning view; the buffer must outlive the reader.
  BinReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint32_t u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(read_le<std::uint32_t>());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(read_le<std::uint64_t>());
  }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = read_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] std::string str();

  /// A sub-reader over the next `size` bytes; advances this reader past them.
  [[nodiscard]] BinReader sub(std::size_t size) {
    const std::uint8_t* p = take(size);
    return BinReader(p, size);
  }
  void skip(std::size_t size) { (void)take(size); }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == size_; }

 private:
  const std::uint8_t* take(std::size_t count);

  template <typename T>
  [[nodiscard]] T read_le() {
    const std::uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace flexnet
