// Small bit-manipulation helpers used throughout the word-level and
// gate-level simulators.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "common/check.hpp"

namespace fdbist {

/// Mask with the low `n` bits set (0 <= n <= 64).
constexpr std::uint64_t low_mask(int n) {
  return n >= 64 ? ~std::uint64_t{0}
                 : ((std::uint64_t{1} << (n < 0 ? 0 : n)) - 1);
}

/// True if `v` fits in a signed two's-complement field of `width` bits.
constexpr bool fits_signed(std::int64_t v, int width) {
  if (width <= 0 || width > 63) return width >= 64;
  const std::int64_t lo = -(std::int64_t{1} << (width - 1));
  const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
  return v >= lo && v <= hi;
}

/// Sign-extend the low `width` bits of `v` into a full int64.
constexpr std::int64_t sign_extend(std::uint64_t v, int width) {
  const std::uint64_t m = low_mask(width);
  v &= m;
  const std::uint64_t sign = std::uint64_t{1} << (width - 1);
  return static_cast<std::int64_t>((v ^ sign) - sign);
}

/// Wrap `v` into a `width`-bit two's-complement field (hardware overflow).
constexpr std::int64_t wrap_to_width(std::int64_t v, int width) {
  return sign_extend(static_cast<std::uint64_t>(v), width);
}

/// Number of bits needed to represent signed `v` in two's complement.
constexpr int signed_bit_width(std::int64_t v) {
  if (v == 0) return 1;
  if (v < 0) v = ~v; // -1 -> 0, -2 -> 1, ...
  int w = 1;         // sign bit
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

/// Smallest power of two >= v (v >= 1).
constexpr std::size_t ceil_pow2(std::size_t v) {
  return std::bit_ceil(v);
}

/// Bit `i` of word `w` as 0/1.
constexpr std::uint64_t bit_of(std::uint64_t w, int i) {
  return (w >> i) & 1u;
}

/// In-place 64x64 bit-matrix transpose: afterwards bit j of a[k] is what
/// bit k of a[j] was. Six rounds of block swaps (32x32 blocks down to
/// 1x1); round j swaps the off-diagonal j-bit halves of rows k and k+j.
constexpr void transpose64(std::span<std::uint64_t, 64> a) {
  std::uint64_t m = 0x00000000FFFFFFFFull; // low half of each 2j-bit block
  for (int j = 32; j != 0; j >>= 1, m ^= m << j)
    for (int k0 = 0; k0 < 64; k0 += 2 * j)
      for (int k = k0; k < k0 + j; ++k) {
        const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
        a[k] ^= t << j;
        a[k + j] ^= t;
      }
}

} // namespace fdbist
