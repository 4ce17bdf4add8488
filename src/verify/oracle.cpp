#include "verify/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "fault/fault.hpp"
#include "fault/kernel.hpp"
#include "gate/lower.hpp"
#include "gate/passes/pass.hpp"
#include "gate/schedule.hpp"
#include "gate/sim.hpp"
#include "rtl/sim.hpp"

namespace fdbist::verify {

namespace {

std::string describe_mutation(const gate::Netlist& nl, std::int32_t index) {
  std::vector<gate::NetId> two_input;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const gate::GateOp op = nl.gate(static_cast<gate::NetId>(i)).op;
    if (op == gate::GateOp::And || op == gate::GateOp::Or ||
        op == gate::GateOp::Xor)
      two_input.push_back(static_cast<gate::NetId>(i));
  }
  if (two_input.empty()) return "no two-input gate to mutate";
  const gate::NetId target =
      two_input[std::size_t(index) % two_input.size()];
  return "mutated gate n" + std::to_string(target) + " (" +
         gate::gate_op_name(nl.gate(target).op) + ")";
}

} // namespace

bool apply_gate_mutation(gate::Netlist& nl, std::int32_t index) {
  if (index < 0) return false;
  std::vector<gate::NetId> two_input;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const gate::GateOp op = nl.gate(static_cast<gate::NetId>(i)).op;
    if (op == gate::GateOp::And || op == gate::GateOp::Or ||
        op == gate::GateOp::Xor)
      two_input.push_back(static_cast<gate::NetId>(i));
  }
  if (two_input.empty()) return false;
  const gate::NetId target =
      two_input[std::size_t(index) % two_input.size()];
  // Netlist has no gate-rewrite API by design; rebuild it with one op
  // flipped. Everything else (operands, origins, registers, io) copies
  // verbatim, so the mutant differs from the original in exactly one
  // gate function — the shape of a kernel miscompilation.
  gate::Netlist mutant;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const gate::Gate& g = nl.gate(static_cast<gate::NetId>(i));
    gate::GateOp op = g.op;
    if (static_cast<gate::NetId>(i) == target) {
      op = op == gate::GateOp::And
               ? gate::GateOp::Or
               : (op == gate::GateOp::Or ? gate::GateOp::Xor
                                         : gate::GateOp::And);
    }
    mutant.add_gate(op, g.a, g.b, nl.origin(static_cast<gate::NetId>(i)));
  }
  mutant.registers() = nl.registers();
  mutant.inputs() = nl.inputs();
  mutant.outputs() = nl.outputs();
  nl = std::move(mutant);
  return true;
}

Finding check_rtl_case(const RtlCase& c) {
  const rtl::Graph g = build_graph(c);
  auto low = gate::lower(g);
  const bool mutated = apply_gate_mutation(low.netlist, c.mutate);
  if (c.mutate >= 0 && !mutated)
    return Finding::ok(); // nothing to mutate — vacuously consistent

  rtl::Simulator rs(g);
  gate::WordSim ws(low.netlist);
  const auto stim = driven_stimulus(c);
  for (std::size_t cycle = 0; cycle < stim.size(); ++cycle) {
    rs.step(stim[cycle]);
    ws.step_broadcast(stim[cycle]);
    for (const rtl::NodeId out : g.outputs()) {
      const std::int64_t want = rs.raw(out);
      const std::int64_t got =
          ws.lane_value(low.node_bits[std::size_t(out)], 0);
      if (got != want) {
        std::ostringstream os;
        os << "rtl-vs-gate: node " << out << " cycle " << cycle
           << ": rtl=" << want << " gate=" << got;
        if (mutated)
          os << " [" << describe_mutation(low.netlist, c.mutate) << "]";
        return Finding::fail(os.str());
      }
    }
  }
  if (mutated)
    return Finding::fail(
        "mutation escaped: " + describe_mutation(low.netlist, c.mutate) +
        " never diverged at an observed output");
  return Finding::ok();
}

Finding check_stats_invariants(const fault::FaultSimResult& r,
                               fault::FaultSimEngine requested,
                               std::size_t fault_count,
                               std::size_t vectors) {
  auto fail = [](const std::string& d) {
    return Finding::fail("stats: " + d);
  };
  if (requested != fault::FaultSimEngine::Auto &&
      r.stats.engine != requested)
    return fail(std::string("engine tag is ") +
                fault_sim_engine_name(r.stats.engine) + ", requested " +
                fault_sim_engine_name(requested));
  if (r.stats.engine == fault::FaultSimEngine::Auto)
    return fail("result carries the unresolved Auto engine tag");
  if (r.total_faults != fault_count)
    return fail("total_faults " + std::to_string(r.total_faults) +
                " != " + std::to_string(fault_count));
  if (r.detect_cycle.size() != fault_count ||
      r.finalized.size() != fault_count)
    return fail("verdict arrays not sized to the fault universe");

  std::size_t detected = 0;
  for (std::size_t i = 0; i < fault_count; ++i) {
    const std::int32_t c = r.detect_cycle[i];
    if (c >= 0) {
      ++detected;
      if (static_cast<std::size_t>(c) >= vectors)
        return fail("fault " + std::to_string(i) + " detect cycle " +
                    std::to_string(c) + " beyond the " +
                    std::to_string(vectors) + "-vector stimulus");
      if (r.finalized[i] == 0)
        return fail("fault " + std::to_string(i) +
                    " detected but not finalized");
    }
  }
  if (detected != r.detected)
    return fail("detected " + std::to_string(r.detected) + " != " +
                std::to_string(detected) + " non-negative detect cycles");
  if (r.complete && r.finalized_count() != fault_count)
    return fail("complete result with unfinalized faults");

  const auto& s = r.stats;
  if (s.lane_width != 64 && s.lane_width != 256 && s.lane_width != 512)
    return fail("lane width " + std::to_string(s.lane_width) +
                " is not a known backend width");
  if (s.simd == common::SimdBackend::Auto)
    return fail("result carries the unresolved Auto SIMD backend tag");
  // Each batch carries at most lane_width-1 faults (lane 0 is the good
  // machine), so a complete run needs at least this many batches.
  const std::size_t fpb = s.lane_width - 1;
  if (fault_count > 0 && s.batches < (fault_count + fpb - 1) / fpb)
    return fail("fewer batches than the fault universe requires at " +
                std::to_string(s.lane_width) + " lanes");
  if (s.segments < s.batches)
    return fail("fewer kernel runs than batches");
  if (s.cycles_budgeted < s.cycles_simulated)
    return fail("simulated more cycles than budgeted");
  if (s.gates_evaluated > s.gates_full_sweep)
    return fail("evaluated more gates than a full sweep would");
  if (s.engine == fault::FaultSimEngine::FullSweep &&
      s.gates_evaluated != s.gates_full_sweep)
    return fail("full-sweep engine skipped gate evaluations");
  if (s.mean_cone_fraction() <= 0.0 || s.mean_cone_fraction() > 1.0)
    return fail("mean cone fraction outside (0, 1]");
  if (s.engine == fault::FaultSimEngine::Compiled &&
      s.good_trace_cycles == 0 && s.cycles_simulated > 0)
    return fail("compiled engine recorded no good trace");
  return Finding::ok();
}

std::vector<fault::Fault> select_faults(
    const std::vector<std::uint32_t>& indices,
    const std::vector<fault::Fault>& universe) {
  std::vector<fault::Fault> out;
  if (universe.empty()) return out;
  if (indices.empty()) { // stride fallback spanning several batches
    for (std::size_t i = 0; i < universe.size(); i += 7)
      out.push_back(universe[i]);
    return out;
  }
  std::unordered_set<std::size_t> seen;
  for (const std::uint32_t idx : indices) {
    const std::size_t j = idx % universe.size();
    if (seen.insert(j).second) out.push_back(universe[j]);
  }
  return out;
}

namespace {

Finding diff_verdicts(const fault::FaultSimResult& a, const char* a_name,
                      const fault::FaultSimResult& b, const char* b_name) {
  if (a.detect_cycle.size() != b.detect_cycle.size())
    return Finding::fail(std::string("engine-diff: ") + a_name + " has " +
                         std::to_string(a.detect_cycle.size()) +
                         " verdicts, " + b_name + " has " +
                         std::to_string(b.detect_cycle.size()));
  for (std::size_t i = 0; i < a.detect_cycle.size(); ++i)
    if (a.detect_cycle[i] != b.detect_cycle[i])
      return Finding::fail(std::string("engine-diff: fault ") +
                           std::to_string(i) + ": " + a_name + " cycle " +
                           std::to_string(a.detect_cycle[i]) + ", " +
                           b_name + " cycle " +
                           std::to_string(b.detect_cycle[i]));
  if (a.detected != b.detected)
    return Finding::fail(std::string("engine-diff: detected counts ") +
                         std::to_string(a.detected) + " vs " +
                         std::to_string(b.detected));
  return Finding::ok();
}

} // namespace

Finding check_filter_case(const FilterCase& c) {
  const rtl::FilterDesign d = build_filter(c);
  auto low = gate::lower(d.graph);
  const auto stim = filter_stimulus(c);

  // Row 1: RTL behavioural vs gate-level, word-for-word at the output.
  {
    rtl::Simulator rs(d.graph);
    gate::WordSim ws(low.netlist);
    const rtl::NodeId out = d.graph.outputs().front();
    // Row 2: the linear model's worst-case amplitude bound must hold at
    // the output every cycle (L1 bound plus accumulated truncation).
    const auto& lin = d.linear[std::size_t(d.output)];
    const double bound =
        lin.l1_bound + lin.trunc_slack + d.graph.node(d.output).fmt.lsb();
    for (std::size_t cycle = 0; cycle < stim.size(); ++cycle) {
      rs.step(stim[cycle]);
      ws.step_broadcast(stim[cycle]);
      const std::int64_t want = rs.raw(out);
      const std::int64_t got =
          ws.lane_value(low.node_bits[std::size_t(out)], 0);
      if (got != want)
        return Finding::fail("filter rtl-vs-gate: cycle " +
                             std::to_string(cycle) + ": rtl=" +
                             std::to_string(want) + " gate=" +
                             std::to_string(got));
      const double y = std::abs(rs.real(d.output));
      if (y > bound)
        return Finding::fail("linear-model: |y|=" + std::to_string(y) +
                             " exceeds L1 bound " + std::to_string(bound) +
                             " at cycle " + std::to_string(cycle));
    }
  }

  // Rows 3-5: fault-verdict differential across engines and slicings.
  const auto universe = fault::order_for_simulation(
      fault::enumerate_adder_faults(low), low.netlist, d.graph);
  const auto faults = select_faults(c.fault_indices, universe);
  if (faults.empty()) return Finding::ok();

  gate::Netlist compiled_nl = low.netlist;
  if (c.mutate >= 0 && !apply_gate_mutation(compiled_nl, c.mutate))
    return Finding::ok();

  fault::FaultSimOptions full;
  full.num_threads = 1;
  full.engine = fault::FaultSimEngine::FullSweep;
  const auto ref = simulate_faults(low.netlist, stim, faults, full);
  if (auto f = check_stats_invariants(ref, full.engine, faults.size(),
                                      stim.size()))
    return f;

  fault::FaultSimOptions cone;
  cone.num_threads = 1;
  cone.engine = fault::FaultSimEngine::Compiled;
  const auto alt = simulate_faults(compiled_nl, stim, faults, cone);
  if (auto f = check_stats_invariants(alt, cone.engine, faults.size(),
                                      stim.size()))
    return f;
  if (auto f = diff_verdicts(ref, "FullSweep", alt, "Compiled")) return f;
  if (c.mutate >= 0)
    return Finding::fail("mutation escaped: Compiled engine agreed with "
                         "FullSweep despite a mutated netlist");

  // Row 4b: pass-config matrix. The default Compiled run above already
  // exercised the full pass pipeline; a passes-off run pins the
  // unoptimized compiled engine, and one rotating singleton pass
  // isolates each transformation in turn across the corpus. Every
  // configuration must reproduce the FullSweep verdicts exactly.
  {
    fault::FaultSimOptions off;
    off.num_threads = 1;
    off.engine = fault::FaultSimEngine::Compiled;
    off.passes = gate::PassOptions::none();
    const auto plain = simulate_faults(low.netlist, stim, faults, off);
    if (auto f = check_stats_invariants(plain, off.engine, faults.size(),
                                        stim.size()))
      return f;
    if (auto f =
            diff_verdicts(ref, "FullSweep", plain, "Compiled/passes-off"))
      return f;

    const auto kind = static_cast<gate::PassKind>(
        (std::size_t(c.generator) + c.vectors) % gate::kPassKinds);
    fault::FaultSimOptions single;
    single.num_threads = 1;
    single.engine = fault::FaultSimEngine::Compiled;
    single.passes = gate::PassOptions::only(kind);
    const auto one = simulate_faults(low.netlist, stim, faults, single);
    if (auto f = check_stats_invariants(one, single.engine, faults.size(),
                                        stim.size()))
      return f;
    const std::string one_name =
        std::string("Compiled/only-") + gate::pass_name(kind);
    if (auto f = diff_verdicts(ref, "FullSweep", one, one_name.c_str()))
      return f;
  }

  // Row 4c: time segments. The fuzz stimuli are far too short for the
  // planner to segment, so force 2 and 3 segments per final-pass batch:
  // a feed-forward case must reproduce the FullSweep verdicts from
  // segments that warm up for the register depth, and a case with
  // feedback must take the whole-batch path.
  {
    std::vector<gate::NetId> sites;
    sites.reserve(faults.size());
    for (const fault::Fault& f : faults) sites.push_back(f.gate);
    const auto piped =
        gate::run_passes(low.netlist, sites, gate::PassOptions{});
    const bool cyclic =
        !gate::CompiledSchedule(piped.netlist).register_depth();
    for (const std::size_t segments : {2, 3}) {
      const auto seg = fault::detail::simulate_faults_planned(
          low.netlist, stim, faults, cone, {.segments = segments});
      if (auto f = check_stats_invariants(seg, cone.engine, faults.size(),
                                          stim.size()))
        return f;
      const std::string name =
          "Compiled/" + std::to_string(segments) + "-segments";
      if (auto f = diff_verdicts(ref, "FullSweep", seg, name.c_str()))
        return f;
      if (cyclic && seg.stats.segments != seg.stats.batches)
        return Finding::fail("segments: " + name + " split batches of a "
                             "netlist with register feedback");
    }

    // Row 4d: survivor repacking. An 8-cycle first window and 8-fault
    // batches give the sample several windows and batches on the fuzz
    // stimuli, so a feed-forward case regroups its survivors at cycles
    // 8, 16, 32, ... and resumes each window past reset. The verdicts
    // must match FullSweep, and the batch count must follow the window
    // rule restated over the reference's detect cycles: a cyclic case
    // takes exactly two windows.
    constexpr std::size_t kWindow = 8;
    constexpr std::size_t kBatch = 8;
    const auto rep = fault::detail::simulate_faults_planned(
        low.netlist, stim, faults, cone,
        {.first_window = kWindow, .batch_faults = kBatch});
    if (auto f = check_stats_invariants(rep, cone.engine, faults.size(),
                                        stim.size()))
      return f;
    if (auto f = diff_verdicts(ref, "FullSweep", rep, "Compiled/repacked"))
      return f;
    auto live_at = [&](std::size_t c) {
      std::size_t n = 0;
      for (const std::int32_t d : ref.detect_cycle)
        n += d < 0 || std::size_t(d) >= c;
      return n;
    };
    std::size_t batches = (faults.size() + kBatch - 1) / kBatch;
    for (std::size_t c = std::min(kWindow, stim.size());
         c < stim.size() && live_at(c) > 0;) {
      const std::size_t b = (live_at(c) + kBatch - 1) / kBatch;
      batches += b;
      c = !cyclic && b >= 2 ? std::min(stim.size(), 2 * c) : stim.size();
    }
    if (rep.stats.batches != batches)
      return Finding::fail("repack: " + std::to_string(rep.stats.batches) +
                           " batches where the window rule plans " +
                           std::to_string(batches));
  }

  // Row 5: the sliced campaign's execution shape, in memory — one
  // simulate_faults per sub-span, folded through the audited merge —
  // must reproduce the one-shot verdicts exactly.
  constexpr std::size_t kSlice = 48; // several slices for our samples
  fault::FaultSimResult sliced;
  sliced.total_faults = faults.size();
  sliced.vectors = stim.size();
  sliced.detect_cycle.assign(faults.size(), -1);
  sliced.finalized.assign(faults.size(), 0);
  fault::FaultSimOptions sopt;
  sopt.num_threads = 1;
  for (std::size_t lo = 0; lo < faults.size(); lo += kSlice) {
    const std::span<const fault::Fault> window(
        faults.data() + lo, std::min(kSlice, faults.size() - lo));
    if (auto m = sliced.merge(simulate_faults(low.netlist, stim, window, sopt),
                              lo);
        !m)
      return Finding::fail("sliced-campaign: " + m.error().to_string());
  }
  if (auto c = sliced.require_complete(); !c)
    return Finding::fail("sliced-campaign: " + c.error().to_string());
  return diff_verdicts(ref, "one-shot", sliced, "sliced-campaign");
}

} // namespace fdbist::verify
