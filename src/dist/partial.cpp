#include "dist/partial.hpp"

#include <cstdio>
#include <cstring>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/fingerprint.hpp"

namespace fdbist::dist {

namespace {

using common::fnv1a;
using common::kFnvSeed;
using common::put_bytes;
using common::take_bytes;

constexpr char kMagic[4] = {'F', 'D', 'B', 'P'};
constexpr std::size_t kHeaderBytes = 80;
constexpr std::size_t kChecksumBytes = 8;

Error corrupt(const std::string& why) {
  return Error{ErrorCode::CorruptCheckpoint, "partial result " + why};
}

} // namespace

UniverseFp fingerprint_universe(const gate::Netlist& nl,
                                std::span<const std::int64_t> stimulus,
                                std::span<const fault::Fault> faults,
                                std::uint32_t family) {
  return UniverseFp{fault::fingerprint_netlist(nl),
                    fault::fingerprint_stimulus(stimulus),
                    fault::fingerprint_faults(faults), family};
}

std::string partial_path(const std::string& dir, std::size_t slice) {
  return dir + "/slice-" + std::to_string(slice) + ".part";
}

Expected<void> save_partial(const std::string& path, const SlicePartial& p) {
  FDBIST_REQUIRE(p.signature_detect.size() ==
                     (p.sig_width == 0 ? 0 : p.detect_cycle.size()),
                 "signature array must be empty or cover the slice");
  std::vector<std::uint8_t> buf;
  buf.reserve(kHeaderBytes + p.detect_cycle.size() * sizeof(std::int32_t) +
              p.signature_detect.size() + kChecksumBytes);
  buf.insert(buf.end(), kMagic, kMagic + 4);
  put_bytes(buf, kPartialVersion);
  put_bytes(buf, p.fp.netlist);
  put_bytes(buf, p.fp.stimulus);
  put_bytes(buf, p.fp.faults);
  put_bytes(buf, p.total_faults);
  put_bytes(buf, p.vectors);
  put_bytes(buf, p.lo);
  put_bytes(buf, std::uint64_t{p.detect_cycle.size()});
  put_bytes(buf, p.fp.family);
  put_bytes(buf, p.sig_width);
  put_bytes(buf, p.sig_taps);
  put_bytes(buf, std::uint32_t{0}); // reserved
  const auto* cycles =
      reinterpret_cast<const std::uint8_t*>(p.detect_cycle.data());
  buf.insert(buf.end(), cycles,
             cycles + p.detect_cycle.size() * sizeof(std::int32_t));
  buf.insert(buf.end(), p.signature_detect.begin(), p.signature_detect.end());
  put_bytes(buf, fnv1a(kFnvSeed, buf.data(), buf.size()));
  return common::atomic_write_file(path, buf, "partial");
}

Expected<SlicePartial> load_partial(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Error{ErrorCode::Io, "cannot open: " + path};
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof chunk, f);
    buf.insert(buf.end(), chunk, chunk + n);
    if (n < sizeof chunk) break;
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Error{ErrorCode::Io, "read failed: " + path};

  if (buf.size() < kHeaderBytes + kChecksumBytes)
    return corrupt("truncated (" + std::to_string(buf.size()) + " bytes)");
  if (std::memcmp(buf.data(), kMagic, 4) != 0)
    return corrupt("has bad magic");

  std::size_t off = 4;
  const auto version = take_bytes<std::uint32_t>(buf, off);
  if (version != kPartialVersion)
    return corrupt("has unsupported version " + std::to_string(version));

  SlicePartial p;
  p.fp.netlist = take_bytes<std::uint64_t>(buf, off);
  p.fp.stimulus = take_bytes<std::uint64_t>(buf, off);
  p.fp.faults = take_bytes<std::uint64_t>(buf, off);
  p.total_faults = take_bytes<std::uint64_t>(buf, off);
  p.vectors = take_bytes<std::uint64_t>(buf, off);
  p.lo = take_bytes<std::uint64_t>(buf, off);
  const auto count = take_bytes<std::uint64_t>(buf, off);
  p.fp.family = take_bytes<std::uint32_t>(buf, off);
  p.sig_width = take_bytes<std::uint32_t>(buf, off);
  p.sig_taps = take_bytes<std::uint32_t>(buf, off);
  (void)take_bytes<std::uint32_t>(buf, off); // reserved

  if (p.lo > p.total_faults || count > p.total_faults - p.lo)
    return corrupt("window [" + std::to_string(p.lo) + ", +" +
                   std::to_string(count) + ") exceeds its own universe");
  const std::size_t sig_bytes = p.sig_width == 0 ? 0 : std::size_t(count);
  const std::size_t expected = kHeaderBytes +
                               std::size_t(count) * sizeof(std::int32_t) +
                               sig_bytes + kChecksumBytes;
  if (buf.size() != expected)
    return corrupt("is truncated or oversized (" +
                   std::to_string(buf.size()) + " bytes, expected " +
                   std::to_string(expected) + ")");

  std::size_t checksum_off = buf.size() - kChecksumBytes;
  const std::uint64_t stored = take_bytes<std::uint64_t>(buf, checksum_off);
  if (fnv1a(kFnvSeed, buf.data(), buf.size() - kChecksumBytes) != stored)
    return corrupt("failed its checksum");

  p.detect_cycle.resize(std::size_t(count));
  std::memcpy(p.detect_cycle.data(), buf.data() + off,
              p.detect_cycle.size() * sizeof(std::int32_t));
  off += p.detect_cycle.size() * sizeof(std::int32_t);
  if (sig_bytes != 0)
    p.signature_detect.assign(buf.data() + off, buf.data() + off + sig_bytes);
  return p;
}

Expected<void> validate_partial(const SlicePartial& p, const UniverseFp& fp,
                                std::size_t total_faults, std::size_t vectors,
                                std::size_t lo, std::size_t count,
                                const fault::SignatureOptions& sig) {
  if (p.fp != fp)
    return Error{ErrorCode::FingerprintMismatch,
                 "partial result was written by a different campaign"};
  if (p.sig_width != static_cast<std::uint32_t>(sig.width) ||
      p.sig_taps != sig.taps)
    return Error{ErrorCode::FingerprintMismatch,
                 "partial result was written under a different signature "
                 "configuration"};
  if (p.total_faults != total_faults || p.vectors != vectors)
    return Error{ErrorCode::FingerprintMismatch,
                 "partial result geometry differs (" +
                     std::to_string(p.total_faults) + " faults, " +
                     std::to_string(p.vectors) + " vectors)"};
  if (p.lo != lo || p.detect_cycle.size() != count)
    return corrupt("covers [" + std::to_string(p.lo) + ", +" +
                   std::to_string(p.detect_cycle.size()) +
                   ") but the slice is [" + std::to_string(lo) + ", +" +
                   std::to_string(count) + ")");
  return {};
}

Expected<void> merge_partial(fault::FaultSimResult& into,
                             const SlicePartial& p) {
  fault::FaultSimResult part;
  part.total_faults = p.detect_cycle.size();
  part.vectors = p.vectors;
  part.detect_cycle = p.detect_cycle;
  part.finalized.assign(p.detect_cycle.size(), 1);
  part.signature_detect = p.signature_detect;
  return into.merge(part, p.lo);
}

Expected<fault::FaultSimStats> compute_and_save_slice(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    std::span<const fault::Fault> faults, const UniverseFp& fp,
    const std::string& dir, std::size_t slice, std::size_t lo,
    std::size_t count, const SliceComputeOptions& opt) {
  fault::FaultSimResult r =
      fault::simulate_faults(nl, stimulus, faults.subspan(lo, count), opt);
  if (!r.complete)
    return Error{opt.cancel != nullptr ? opt.cancel->reason()
                                       : ErrorCode::Cancelled,
                 "slice " + std::to_string(slice) +
                     " stopped before completion"};

  SlicePartial p;
  p.fp = fp;
  p.total_faults = faults.size();
  p.vectors = stimulus.size();
  p.lo = lo;
  p.sig_width = static_cast<std::uint32_t>(opt.signature.width);
  p.sig_taps = opt.signature.taps;
  p.detect_cycle = std::move(r.detect_cycle);
  p.signature_detect = std::move(r.signature_detect);
  if (auto saved = save_partial(partial_path(dir, slice), p); !saved)
    return saved.error();

  // Simulated disk corruption: flip one payload byte of the *final*
  // file. The coordinator's checksum validation must catch it and
  // re-queue the slice — this is how the chaos harness proves corrupt
  // results can never reach the merged verdicts.
  if (common::failpoint_eval("corrupt-result")) {
    std::FILE* f = std::fopen(partial_path(dir, slice).c_str(), "r+b");
    if (f != nullptr) {
      std::fseek(f, long(kHeaderBytes) + 1, SEEK_SET);
      const int c = std::fgetc(f);
      std::fseek(f, long(kHeaderBytes) + 1, SEEK_SET);
      std::fputc((c == EOF ? 0 : c) ^ 0x5A, f);
      std::fclose(f);
    }
  }

  return r.stats;
}

} // namespace fdbist::dist
