// One binary codec for every on-disk format: FDBP slice partials
// (dist/partial.hpp) and FDBA compiled artifacts (gate/artifact.hpp).
//
//   offset size  field
//   0      4     magic (per format)
//   4      4     u32  format version
//   8      ...   body, written by the format's own codec
//   end-8  8     u64  FNV-1a checksum of every preceding byte
//
// Every integer is little-endian whatever the host, with no padding
// and no varints, so a file's bytes are a pure function of its content.
// Reads are paranoid: open() checks the frame, the Reader is
// bounds-checked, and fits() guards every count read from a file
// before anything is allocated for it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace fdbist::common::binfile {

/// Append-only little-endian serializer. The constructor writes the
/// magic and version; seal() appends the checksum.
class Writer {
public:
  Writer(const char (&magic)[4], std::uint32_t version);

  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v) { put_le<4>(v); }
  void put_u64(std::uint64_t v) { put_le<8>(v); }
  void put_i32(std::int32_t v) { put_u32(std::uint32_t(v)); }

  /// Append every element of `v` as a little-endian integer of
  /// sizeof(T) bytes: the same bytes as one put per element, in one
  /// memcpy on a little-endian host.
  template <class T>
  void put_array(std::span<const T> v) {
    static_assert(std::is_integral_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t at = bytes_.size();
      bytes_.resize(at + v.size_bytes());
      if (!v.empty())
        std::memcpy(bytes_.data() + at, v.data(), v.size_bytes());
    } else {
      for (const T x : v) put_le<sizeof(T)>(std::make_unsigned_t<T>(x));
    }
  }

  /// Append the FNV-1a of every byte written so far and hand over the
  /// finished file.
  std::vector<std::uint8_t> seal() &&;

private:
  template <std::size_t N>
  void put_le(std::uint64_t v) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + N);
    for (std::size_t i = 0; i < N; ++i)
      bytes_[at + i] = std::uint8_t(v >> (8 * i));
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian cursor. A read past the end sets the
/// sticky fail flag and returns zero; callers check failed() once per
/// section instead of wrapping every take in an Expected.
class Reader {
public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t take_u8() { return std::uint8_t(take<1>()); }
  std::uint32_t take_u32() { return std::uint32_t(take<4>()); }
  std::uint64_t take_u64() { return take<8>(); }
  std::int32_t take_i32() { return std::int32_t(take_u32()); }

  /// Fill `out` with little-endian integers of sizeof(T) bytes each: one
  /// bounds check, then one memcpy on a little-endian host and a
  /// byte-order loop elsewhere. If the stream holds fewer, sets the
  /// fail flag and leaves `out` untouched.
  template <class T>
  void take_array(std::span<T> out) {
    static_assert(std::is_integral_v<T>);
    if (!fits(out.size(), sizeof(T))) {
      failed_ = true;
      pos_ = bytes_.size();
      return;
    }
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty())
        std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
      pos_ += out.size_bytes();
    } else {
      for (T& x : out) x = T(take<sizeof(T)>());
    }
  }

  /// True when `count` elements of `bytes_per_element` bytes each can
  /// still be in the stream. Check it before sizing anything by a count
  /// read from the file.
  bool fits(std::uint64_t count, std::size_t bytes_per_element) const {
    return bytes_per_element == 0 ||
           count <= remaining() / bytes_per_element;
  }

  bool failed() const { return failed_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

private:
  template <std::size_t N>
  std::uint64_t take() {
    if (remaining() < N) {
      failed_ = true;
      pos_ = bytes_.size();
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i)
      v |= std::uint64_t(bytes_[pos_ + i]) << (8 * i);
    pos_ += N;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Whole-file read; Io on anything the filesystem refuses.
Expected<std::vector<std::uint8_t>> read_file(const std::string& path);

/// Check a whole file's frame, in this order: size floor, magic,
/// version, checksum. Magic and version come first so that a file of
/// another format or version is named as such even when its checksum
/// no longer matches. Any failure is an Error of `code` whose message
/// starts with `noun` ("partial result has bad magic"). Returns a
/// reader over the body: positioned after the version, ending before
/// the checksum.
Expected<Reader> open(std::span<const std::uint8_t> bytes,
                      const char (&magic)[4], std::uint32_t version,
                      ErrorCode code, const std::string& noun);

} // namespace fdbist::common::binfile
