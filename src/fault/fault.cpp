#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/fingerprint.hpp"
#include "rtl/linear_model.hpp"

namespace fdbist::fault {

namespace {

bool is_logic(gate::GateOp op) {
  using gate::GateOp;
  return op == GateOp::Not || op == GateOp::And || op == GateOp::Or ||
         op == GateOp::Xor;
}

} // namespace

std::vector<Fault> enumerate_adder_faults(const gate::LoweredDesign& d,
                                          const EnumerateOptions& opt) {
  const gate::Netlist& nl = d.netlist;
  const auto fanout = nl.fanout_counts();

  // A pin fault collapses onto its driver's output fault when the net is
  // fanout-free and the driver fault is itself enumerated (i.e. the
  // driver is a logic gate inside an adder cell).
  auto collapses_to_driver = [&](gate::NetId driver) {
    if (!opt.collapse) return false;
    if (fanout[std::size_t(driver)] != 1) return false;
    const gate::Gate& dg = nl.gate(driver);
    if (!is_logic(dg.op)) return false;
    return nl.origin(driver).role != gate::CellRole::None;
  };

  std::vector<Fault> faults;
  faults.reserve(nl.size() * 4);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<gate::NetId>(i);
    const gate::Gate& g = nl.gate(id);
    const gate::GateOrigin& og = nl.origin(id);
    if (!is_logic(g.op) || og.role == gate::CellRole::None) continue;

    // Output faults: both polarities, always enumerated here.
    faults.push_back({id, gate::PinSite::Output, 0});
    faults.push_back({id, gate::PinSite::Output, 1});

    if (g.op == gate::GateOp::Not) continue; // input == inverted output

    for (const gate::PinSite site :
         {gate::PinSite::InputA, gate::PinSite::InputB}) {
      const gate::NetId src = site == gate::PinSite::InputA ? g.a : g.b;
      for (int stuck = 0; stuck <= 1; ++stuck) {
        if (opt.collapse) {
          if (g.op == gate::GateOp::And && stuck == 0) continue;
          if (g.op == gate::GateOp::Or && stuck == 1) continue;
          if (collapses_to_driver(src)) continue;
        }
        faults.push_back({id, site, static_cast<std::uint8_t>(stuck)});
      }
    }
  }
  return faults;
}

std::string describe(const Fault& f, const gate::Netlist& nl,
                     const rtl::Graph& g) {
  const gate::GateOrigin& og = nl.origin(f.gate);
  std::ostringstream os;
  if (og.node != rtl::kNoNode) {
    const rtl::Node& nd = g.node(og.node);
    os << (nd.name.empty() ? rtl::op_name(nd.kind) : nd.name) << " bit "
       << og.bit << '/' << nd.fmt.width - 1;
  } else {
    os << "gate " << f.gate;
  }
  os << " (" << gate::cell_role_name(og.role) << ' '
     << gate::pin_site_name(f.site) << " s-a-" << int(f.stuck) << ')';
  return os.str();
}

int bits_below_msb(const Fault& f, const gate::Netlist& nl,
                   const rtl::Graph& g) {
  const gate::GateOrigin& og = nl.origin(f.gate);
  FDBIST_REQUIRE(og.node != rtl::kNoNode, "fault has no RTL origin");
  return g.node(og.node).fmt.width - 1 - og.bit;
}

std::vector<Fault> order_for_simulation(std::vector<Fault> faults,
                                        const gate::Netlist& nl,
                                        const rtl::Graph& g) {
  const auto linear = rtl::analyze_linear(g);
  const auto gains = rtl::variance_gains(linear);

  // Higher score = easier fault: more bits below the MSB, and a larger
  // expected signal swing (log sigma) at the owning node.
  auto score = [&](const Fault& f) {
    const gate::GateOrigin& og = nl.origin(f.gate);
    const rtl::Node& nd = g.node(og.node);
    const double sigma = std::sqrt(gains[std::size_t(og.node)]) + 1e-12;
    // Normalize the swing against the node's full-scale range so that
    // conservatively scaled (excess-headroom) adders rank as hard.
    const double full_scale = nd.fmt.real_max() + nd.fmt.lsb();
    const double rel = sigma / full_scale;
    return static_cast<double>(nd.fmt.width - 1 - og.bit) + std::log2(rel);
  };

  // Score each fault once; the sort then compares cached scores.
  std::vector<std::pair<double, Fault>> scored;
  scored.reserve(faults.size());
  for (const Fault& f : faults) scored.emplace_back(score(f), f);
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (std::size_t i = 0; i < faults.size(); ++i) faults[i] = scored[i].second;
  return faults;
}

std::uint64_t fingerprint_netlist(const gate::Netlist& nl) {
  std::uint64_t h = common::kFnvSeed;
  h = common::fnv1a_value(h, std::uint64_t{nl.size()});
  for (const gate::Gate& g : nl.gates()) {
    h = common::fnv1a_value(h, static_cast<std::uint8_t>(g.op));
    h = common::fnv1a_value(h, g.a);
    h = common::fnv1a_value(h, g.b);
  }
  for (const gate::RegBit& r : nl.registers()) {
    h = common::fnv1a_value(h, r.d);
    h = common::fnv1a_value(h, r.q);
  }
  for (const auto& group : nl.inputs()) {
    h = common::fnv1a_value(h, std::uint64_t{group.size()});
    h = common::fnv1a(h, group.data(), group.size() * sizeof(gate::NetId));
  }
  for (const auto& group : nl.outputs()) {
    h = common::fnv1a_value(h, std::uint64_t{group.size()});
    h = common::fnv1a(h, group.data(), group.size() * sizeof(gate::NetId));
  }
  return h;
}

std::uint64_t fingerprint_stimulus(std::span<const std::int64_t> stimulus) {
  std::uint64_t h = common::kFnvSeed;
  h = common::fnv1a_value(h, std::uint64_t{stimulus.size()});
  h = common::fnv1a(h, stimulus.data(), stimulus.size_bytes());
  return h;
}

std::uint64_t fingerprint_faults(std::span<const Fault> faults) {
  std::uint64_t h = common::kFnvSeed;
  h = common::fnv1a_value(h, std::uint64_t{faults.size()});
  for (const Fault& f : faults) {
    h = common::fnv1a_value(h, f.gate);
    h = common::fnv1a_value(h, static_cast<std::uint8_t>(f.site));
    h = common::fnv1a_value(h, f.stuck);
  }
  return h;
}

} // namespace fdbist::fault
