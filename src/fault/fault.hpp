// Single-stuck-at fault model over lowered adder cells.
//
// The paper's fault universe (Table 1, "faults") is the set of stuck-at
// faults in the adders and subtractors; register faults are excluded
// because they pose no testing obstacle (Section 3). We enumerate stuck-at
// faults on the gate pins of every lowered full-adder cell with standard
// equivalence collapsing:
//   - AND: input s-a-0 == output s-a-0 (keep the output fault)
//   - OR:  input s-a-1 == output s-a-1
//   - NOT: input faults == inverted output faults
//   - a pin fault on a fanout-free net == the driver's output fault
//     (kept on the driver when the driver is itself in the universe)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gate/lower.hpp"
#include "gate/sim.hpp"

namespace fdbist::fault {

struct Fault {
  gate::NetId gate = gate::kNoNet;
  gate::PinSite site = gate::PinSite::Output;
  std::uint8_t stuck = 0; ///< 0 or 1

  friend constexpr bool operator==(const Fault&, const Fault&) = default;
};

struct EnumerateOptions {
  bool collapse = true; ///< apply equivalence collapsing (ablatable)
};

/// All stuck-at faults in the Add/Sub cells of a lowered design, ordered
/// adder-major and LSB-to-MSB within each adder (so the hard MSB-side
/// faults cluster into adjacent parallel-simulation batches).
std::vector<Fault> enumerate_adder_faults(const gate::LoweredDesign& d,
                                          const EnumerateOptions& opt = {});

/// Human-readable location, e.g. "tap20.acc bit 12/15 (s inA s-a-1)".
std::string describe(const Fault& f, const gate::Netlist& nl,
                     const rtl::Graph& g);

/// Distance of the fault's bit position below its adder's MSB (0 = MSB).
int bits_below_msb(const Fault& f, const gate::Netlist& nl,
                   const rtl::Graph& g);

/// Reorder faults so that easy (quickly detected) faults come first and
/// the hard upper-bit faults cluster at the end. Parallel fault
/// simulation exits a batch as soon as all 63 faults in it are detected;
/// clustering the hard faults into few batches makes the remaining
/// batches exit after tens of cycles instead of running the full budget
/// (order is a pure performance heuristic — results are identical for
/// any order). The score combines the bit position below the adder MSB
/// with the node's white-noise signal variance (paper Eqn 1).
std::vector<Fault> order_for_simulation(std::vector<Fault> faults,
                                        const gate::Netlist& nl,
                                        const rtl::Graph& g);

/// FNV-1a over the netlist's simulation-relevant structure: gate
/// (op, a, b) triples, register (d, q) pairs, and input/output bit
/// groups. Names and origins are excluded — they cannot change verdicts.
std::uint64_t fingerprint_netlist(const gate::Netlist& nl);

/// FNV-1a over the raw stimulus words.
std::uint64_t fingerprint_stimulus(std::span<const std::int64_t> stimulus);

/// FNV-1a over the (gate, site, stuck) fault triples, order-sensitive —
/// slice boundaries are positional, so a reordered universe must never
/// adopt another run's slice files.
std::uint64_t fingerprint_faults(std::span<const Fault> faults);

} // namespace fdbist::fault
