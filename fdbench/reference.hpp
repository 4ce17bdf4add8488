// Pinned verdicts at the default seed (1, the paper's stimulus).
//
// One entry per benchmark cell: the missed-fault count, an FNV-1a hash
// of the per-fault detect_cycle vector (little-endian int32), the golden
// 24-bit MISR signature for word-compare cells, and for the sliced
// signature cells the 16-bit MISR's detected and aliased counts. The
// Table 4 missed counts are EXPERIMENTS.md's (LP 233/165/2811/199,
// BP 143/141/2582/464, HP 150/163/3093/444).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fdbench {

struct Verdict {
  std::size_t missed = 0;
  std::uint64_t detect_hash = 0;
  std::uint32_t golden_signature = 0; ///< word-compare cells only
  std::size_t signature_detected = 0; ///< signature cells only
  std::size_t aliased = 0;            ///< signature cells only

  bool operator==(const Verdict&) const = default;
};

struct PinnedVerdict {
  const char* cell;
  Verdict v;
};

inline const std::vector<PinnedVerdict>& pinned_verdicts() {
  static const std::vector<PinnedVerdict> pins = {
      // table4_1t: {missed, detect_cycle hash, golden signature}
      {"LP/LFSR-1", {233, 0x2f812dac630a27caULL, 0x00178d2f}},
      {"LP/LFSR-D", {165, 0xf9f5636361f485a9ULL, 0x001dbb52}},
      {"LP/LFSR-M", {2811, 0x4508a68035afc22aULL, 0x0030aa1b}},
      {"LP/Ramp", {199, 0x2f0cafccbca68a74ULL, 0x00658d64}},
      {"BP/LFSR-1", {143, 0x97bbf98ecfcd39f1ULL, 0x00d08af3}},
      {"BP/LFSR-D", {141, 0xf0bd93a5b2d40679ULL, 0x001a7f24}},
      {"BP/LFSR-M", {2582, 0xbc23faf144b2b1daULL, 0x00e5cf4c}},
      {"BP/Ramp", {464, 0x077f7a0653b31bf7ULL, 0x00e4914c}},
      {"HP/LFSR-1", {150, 0x9c5e05c9081e8eb6ULL, 0x00d13973}},
      {"HP/LFSR-D", {163, 0xcdaae0c8549df13eULL, 0x006e3f2a}},
      {"HP/LFSR-M", {3093, 0x0c35d1fee0903a13ULL, 0x0077b183}},
      {"HP/Ramp", {444, 0xe8973f24c11ff5f1ULL, 0x00c64eee}},
      // table6_mt: mixed LFSR-1 -> LFSR-M, 8192 vectors
      {"LP/LFSR-1/M", {125, 0x73c04256bb661d0cULL, 0x00bc72ba}},
      {"BP/LFSR-1/M", {95, 0x018ede7a21a75881ULL, 0x00648191}},
      {"HP/LFSR-1/M", {113, 0xac9dc2ac63981de1ULL, 0x007630e4}},
      {"IIR4/LFSR-1/M", {136, 0xd1478e31d7d707e2ULL, 0x000438c7}},
      {"DEC2/LFSR-1/M", {99, 0x672bf01ea61f82e1ULL, 0x00971332}},
      // sliced_signature: {missed, hash, -, signature detected, aliased}
      {"LP/LFSR-D/inline", {165, 0xf9f5636361f485a9ULL, 0, 25036, 0}},
      {"LP/LFSR-D/workers", {165, 0xf9f5636361f485a9ULL, 0, 25036, 0}},
  };
  return pins;
}

} // namespace fdbench
