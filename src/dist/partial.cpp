#include "dist/partial.hpp"

#include "common/atomic_file.hpp"
#include "common/binfile.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace fdbist::dist {

namespace {

namespace binfile = common::binfile;

constexpr char kMagic[4] = {'F', 'D', 'B', 'P'};

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
  binfile::Writer w(kMagic, kPartialVersion);
  w.put_u64(p.fp.netlist);
  w.put_u64(p.fp.stimulus);
  w.put_u64(p.fp.faults);
  w.put_u64(p.total_faults);
  w.put_u64(p.vectors);
  w.put_u64(p.lo);
  w.put_u64(p.detect_cycle.size());
  w.put_u32(p.fp.family);
  w.put_u32(p.sig_width);
  w.put_u32(p.sig_taps);
  w.put_u32(0); // reserved
  w.put_array<std::int32_t>(p.detect_cycle);
  w.put_array<std::uint8_t>(p.signature_detect);
  std::vector<std::uint8_t> bytes = std::move(w).seal();
  // Simulated disk corruption: flip the last verdict byte. The
  // coordinator's checksum validation must catch it and re-queue the
  // slice — this is how the chaos harness proves corrupt results can
  // never reach the merged verdicts.
  if (common::failpoint_eval("corrupt-result"))
    bytes[bytes.size() - 9] ^= 0x5A;
  return common::atomic_write_file(path, bytes, "partial");
}

Expected<SlicePartial> load_partial(const std::string& path) {
  auto bytes = binfile::read_file(path);
  if (!bytes) return bytes.error();
  auto opened = binfile::open(*bytes, kMagic, kPartialVersion,
                              ErrorCode::CorruptCheckpoint, "partial result");
  if (!opened) return opened.error();
  binfile::Reader& r = *opened;

  SlicePartial p;
  p.fp.netlist = r.take_u64();
  p.fp.stimulus = r.take_u64();
  p.fp.faults = r.take_u64();
  p.total_faults = r.take_u64();
  p.vectors = r.take_u64();
  p.lo = r.take_u64();
  const std::uint64_t count = r.take_u64();
  p.fp.family = r.take_u32();
  p.sig_width = r.take_u32();
  p.sig_taps = r.take_u32();
  (void)r.take_u32(); // reserved
  if (r.failed()) return corrupt("has a truncated header");

  if (p.lo > p.total_faults || count > p.total_faults - p.lo)
    return corrupt("window [" + std::to_string(p.lo) + ", +" +
                   std::to_string(count) + ") exceeds its own universe");
  const std::size_t bytes_per_fault = p.sig_width == 0 ? 4 : 5;
  if (!r.fits(count, bytes_per_fault))
    return corrupt("is truncated (" + std::to_string(r.remaining()) +
                   " payload bytes for " + std::to_string(count) +
                   " faults)");
  p.detect_cycle.resize(std::size_t(count));
  r.take_array(std::span(p.detect_cycle));
  if (p.sig_width != 0) {
    p.signature_detect.resize(std::size_t(count));
    r.take_array(std::span(p.signature_detect));
  }
  if (r.remaining() != 0)
    return corrupt("has " + std::to_string(r.remaining()) +
                   " trailing bytes");
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
  return r.stats;
}

} // namespace fdbist::dist
