// FDBA compiled-artifact container: the on-disk form of a schedule.
//
// Campaign slices, respawned workers and repeat submissions of the same
// design all pay the identical preparation bill — pass pipeline,
// schedule compilation, good-trace recording — before the first fault
// batch runs. The FDBA format captures the result of that preparation
// so it is paid once: the post-pass netlist, the CompiledSchedule's SoA
// gate arrays and fan-out CSR, and the bit-packed good-machine trace.
// The fault layer (fault/schedule_cache.hpp) wraps these sections with
// its own fault-universe sections and the cache itself; this header
// owns only the gate-level container primitives, so the gate module
// never depends on fault types. The frame (magic, version, trailing
// checksum) and the little-endian field codec are common/binfile.hpp's.
//
// Layout, version 1 (all integers little-endian):
//
//   offset size  field
//   0      4     magic "FDBA"
//   4      4     u32  container version (= kArtifactVersion)
//   8      4     u32  schedule format version (compilation semantics)
//   12     4     u32  pass configuration (PassOptions bit mask)
//   16     8     u64  netlist fingerprint   } of the ORIGINAL netlist,
//   24     8     u64  stimulus fingerprint  } stimulus and full fault
//   32     8     u64  fault-list fingerprint} universe (the cache key)
//   40     8     u64  fault count (full universe)
//   48     8     u64  stimulus length (vectors; trace covers all)
//   56     8     u64  reserved (0)
//   64     ...   sections written by the fault layer, each built on the
//                codecs below: post-pass netlist, retarget map +
//                collapsed fault universe, schedule arrays, good trace
//   end-8  8     u64  FNV-1a checksum of every preceding byte
//
// Loads are paranoid by contract: every read is bounds-checked, every
// count is validated against the netlist before an array is trusted,
// and any violation surfaces as a typed CorruptArtifact (never an
// assertion, never UB) — the cache's response to a bad file is always
// "recompile from scratch", so a torn or corrupt artifact can cost
// time but never correctness.
#pragma once

#include <cstdint>

#include "common/binfile.hpp"
#include "common/error.hpp"
#include "gate/netlist.hpp"
#include "gate/schedule.hpp"

namespace fdbist::gate {

inline constexpr char kArtifactMagic[4] = {'F', 'D', 'B', 'A'};
inline constexpr std::uint32_t kArtifactVersion = 1;

/// Version of the *compilation semantics* a serialized schedule
/// encodes. Bump whenever CompiledSchedule's arrays would come out
/// differently for the same netlist (new CSR ordering, new SoA field):
/// artifacts written under another schedule format are refused and
/// rebuilt, never reinterpreted.
inline constexpr std::uint32_t kScheduleFormatVersion = 1;

/// Identity and geometry of an artifact — everything the verdicts
/// depend on, fingerprinted over the ORIGINAL (pre-pass) inputs so the
/// cache key never depends on what the passes produced.
struct ArtifactHeader {
  std::uint32_t schedule_format = kScheduleFormatVersion;
  std::uint32_t pass_config = 0;
  std::uint64_t netlist_fp = 0;
  std::uint64_t stimulus_fp = 0;
  std::uint64_t faults_fp = 0;
  std::uint64_t fault_count = 0;
  std::uint64_t stimulus_len = 0;

  bool operator==(const ArtifactHeader&) const = default;
};

/// Header codec: the fields after the frame's magic and container
/// version (common::binfile::Writer writes those, binfile::open checks
/// them). The identity fields are returned as-is for the caller to
/// match against its own key.
void write_artifact_header(common::binfile::Writer& w,
                           const ArtifactHeader& h);
Expected<ArtifactHeader> read_artifact_header(common::binfile::Reader& r);

/// Netlist codec: gates (op, a, b), registers (d, q), input and output
/// bit groups. Gate origins are deliberately dropped — the simulation
/// kernel never reads them, the netlist fingerprint excludes them, and
/// fault reporting happens against the caller's ORIGINAL netlist — so
/// the loaded netlist carries default origins. read_netlist validates
/// operand/topology structure via Netlist rules re-checked here
/// non-throwing (ids in range, counts sane) and returns CorruptArtifact
/// on any violation.
void write_netlist(common::binfile::Writer& w, const Netlist& nl);
Expected<Netlist> read_netlist(common::binfile::Reader& r);

/// CompiledSchedule codec: the SoA op/a/b arrays, the fan-out CSR, the
/// register-of map and the output marks — lane-width-independent, so
/// one artifact serves the scalar, AVX2 and AVX-512 backends alike.
/// read_schedule fully cross-checks the arrays against `nl` (ops and
/// operands must equal the netlist's, CSR offsets must be monotone and
/// in range, register indices must exist) before returning parts fit
/// for CompiledSchedule's restore constructor.
void write_schedule(common::binfile::Writer& w, const CompiledSchedule& s);
Expected<CompiledSchedule::RestoreParts> read_schedule(
    common::binfile::Reader& r, const Netlist& nl);

/// Good-trace codec: bit-packed rows, one bit per net per cycle.
/// read_trace validates the geometry against `nets` and the expected
/// cycle count.
void write_trace(common::binfile::Writer& w, const GoodTrace& t);
Expected<GoodTrace> read_trace(common::binfile::Reader& r, std::size_t nets,
                               std::size_t cycles);

} // namespace fdbist::gate
