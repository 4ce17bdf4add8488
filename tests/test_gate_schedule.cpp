// The compiled simulation IR (gate/schedule.hpp): SoA arrays must mirror
// the netlist, the fan-out CSR must match a brute-force scan, cones must
// equal brute-force reachability closed through registers, and the
// cone-restricted engine must be bit-identical to the full-sweep
// reference — on small netlists, randomized lowered netlists, and all
// three paper filters. The time-parallel good-trace recorder must equal
// a serial broadcast run on every registered design. The register depth
// must be pinned on the registry, survive an artifact round trip, and
// be exactly the warm-up a time segment needs.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "common/env.hpp"
#include "designs/reference.hpp"
#include "designs/registry.hpp"
#include "fault/kernel.hpp"
#include "fault/schedule_cache.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/passes/pass.hpp"
#include "gate/schedule.hpp"
#include "gate/sim.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"
#include "window_plan.hpp"

namespace fdbist::gate {
namespace {

LoweredDesign lowered_fir(const std::vector<double>& coefs,
                          const char* name) {
  return lower(rtl::build_fir(coefs, {}, name).graph);
}

// Brute-force successor scan: every gate reading net `id`, plus the Q
// net of a register whose D pin is `id`.
std::set<NetId> brute_fanout(const Netlist& nl, NetId id) {
  std::set<NetId> out;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const Gate& g = nl.gate(static_cast<NetId>(i));
    if (g.a == id || g.b == id) out.insert(static_cast<NetId>(i));
  }
  for (const RegBit& r : nl.registers())
    if (r.d == id) out.insert(r.q);
  return out;
}

// Brute-force transitive fan-out closure through registers.
std::set<NetId> brute_cone(const Netlist& nl, std::vector<NetId> frontier) {
  std::set<NetId> cone(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    const NetId g = frontier.back();
    frontier.pop_back();
    for (const NetId s : brute_fanout(nl, g))
      if (cone.insert(s).second) frontier.push_back(s);
  }
  return cone;
}

TEST(CompiledSchedule, SoAMirrorsNetlist) {
  const auto low = lowered_fir({0.3, -0.42, 0.11}, "soa");
  const CompiledSchedule sched(low.netlist);
  ASSERT_EQ(sched.size(), low.netlist.size());
  EXPECT_EQ(sched.logic_gates(), low.netlist.logic_gate_count());
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Gate& g = low.netlist.gate(static_cast<NetId>(i));
    EXPECT_EQ(sched.ops()[i], g.op);
    EXPECT_EQ(sched.operand_a()[i], g.a);
    EXPECT_EQ(sched.operand_b()[i], g.b);
  }
}

TEST(CompiledSchedule, FanoutMatchesBruteForce) {
  const auto low = lowered_fir({0.22, -0.31, 0.085, -0.05}, "fan");
  const CompiledSchedule sched(low.netlist);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto id = static_cast<NetId>(i);
    const auto expect = brute_fanout(low.netlist, id);
    const auto got = sched.fanout(id);
    ASSERT_EQ(got.size(), expect.size()) << "net " << i;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
        << "net " << i;
  }
}

TEST(CompiledSchedule, ConeMatchesBruteForceReachability) {
  const auto low = lowered_fir({0.27, -0.19, 0.13}, "cone");
  const Netlist& nl = low.netlist;
  const CompiledSchedule sched(nl);
  CompiledSchedule::ConeWorkspace ws;
  CompiledSchedule::Cone cone;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<NetId>(i);
    const GateOp op = nl.gate(id).op;
    if (op != GateOp::Not && op != GateOp::And && op != GateOp::Or &&
        op != GateOp::Xor)
      continue;
    sched.collect_cone({&id, 1}, ws, cone);
    const auto expect = brute_cone(nl, {id});

    std::set<NetId> got(cone.gates.begin(), cone.gates.end());
    for (const std::int32_t r : cone.regs)
      got.insert(nl.registers()[std::size_t(r)].q);
    EXPECT_EQ(got, expect) << "site " << i;

    // The evaluation schedule is topologically ordered, members only.
    EXPECT_TRUE(std::is_sorted(cone.gates.begin(), cone.gates.end()));
    // Every in-cone operand is either in-cone or on the boundary, and
    // the boundary is disjoint from the cone.
    std::set<NetId> boundary(cone.boundary.begin(), cone.boundary.end());
    for (const NetId g : cone.gates) {
      for (const NetId src : {nl.gate(g).a, nl.gate(g).b}) {
        if (src == kNoNet) continue;
        EXPECT_TRUE(expect.count(src) == 1 || boundary.count(src) == 1)
            << "dangling operand " << src << " of gate " << g;
        EXPECT_FALSE(expect.count(src) == 1 && boundary.count(src) == 1);
      }
    }
  }
}

TEST(CompiledSchedule, ConesCloseThroughRegisters) {
  // In a transposed-form FIR every tap feeds the accumulation chain
  // through delay registers, so a fault site that reaches any register D
  // pin must pull the register's Q (and its readers) into the cone.
  const auto low = lowered_fir({0.4, 0.25, -0.125}, "regs");
  const Netlist& nl = low.netlist;
  const CompiledSchedule sched(nl);
  CompiledSchedule::ConeWorkspace ws;
  CompiledSchedule::Cone cone;
  bool saw_register_closure = false;
  for (std::size_t i = 0; i < nl.size() && !saw_register_closure; ++i) {
    const auto id = static_cast<NetId>(i);
    const GateOp op = nl.gate(id).op;
    if (op != GateOp::And && op != GateOp::Xor && op != GateOp::Or) continue;
    sched.collect_cone({&id, 1}, ws, cone);
    if (cone.regs.empty()) continue;
    saw_register_closure = true;
    const auto expect = brute_cone(nl, {id});
    for (const std::int32_t r : cone.regs) {
      const RegBit& reg = nl.registers()[std::size_t(r)];
      EXPECT_EQ(expect.count(reg.q), 1u);
      EXPECT_EQ(expect.count(reg.d), 1u)
          << "Q in cone requires its D source in cone";
    }
  }
  EXPECT_TRUE(saw_register_closure)
      << "fixture has no fault site reaching a register";
}

TEST(GoodTrace, MatchesFullSimulationLaneZero) {
  const auto low = lowered_fir({0.3, -0.42, 0.11}, "trace");
  const CompiledSchedule sched(low.netlist);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(48);
  const auto trace = record_good_trace(sched, stim, stim.size());
  ASSERT_EQ(trace.cycles, stim.size());

  WordSim sim(sched);
  for (std::size_t t = 0; t < stim.size(); ++t) {
    sim.step_broadcast(stim[t]);
    const std::uint64_t* row = trace.row(t);
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const auto id = static_cast<NetId>(i);
      const std::uint64_t want = sim.net(id) & 1u ? ~std::uint64_t{0} : 0;
      ASSERT_EQ(GoodTrace::broadcast(row, id), want)
          << "cycle " << t << " net " << i;
    }
  }
}

// Serial reference for the time-parallel recorder: one step_broadcast
// per cycle, every lane on the same machine, lane 0 packed net by net
// (zero padding past the last net).
GoodTrace serial_trace(const CompiledSchedule& sched,
                       std::span<const std::int64_t> stim,
                       std::size_t cycles) {
  GoodTrace t;
  t.words_per_cycle = (sched.size() + 63) / 64;
  t.cycles = cycles;
  t.bits.assign(t.words_per_cycle * cycles, 0);
  WordSim sim(sched);
  for (std::size_t c = 0; c < cycles; ++c) {
    sim.step_broadcast(stim[c]);
    for (std::size_t i = 0; i < sched.size(); ++i)
      t.bits[c * t.words_per_cycle + i / 64] |=
          (sim.net(static_cast<NetId>(i)) & 1u) << (i % 64);
  }
  return t;
}

void expect_trace_matches_serial(const CompiledSchedule& sched,
                                 std::span<const std::int64_t> stim,
                                 const GoodTrace& serial) {
  for (const std::size_t cycles : {1, 2, 63, 64, 65, 129, 4097}) {
    ASSERT_LT(cycles, stim.size());
    const auto got = record_good_trace(sched, stim, cycles);
    ASSERT_EQ(got.cycles, cycles);
    ASSERT_EQ(got.words_per_cycle, serial.words_per_cycle);
    const std::size_t words = cycles * serial.words_per_cycle;
    ASSERT_EQ(got.bits.size(), words);
    for (std::size_t w = 0; w < words; ++w)
      ASSERT_EQ(got.bits[w], serial.bits[w])
          << cycles << " cycles: row " << w / serial.words_per_cycle
          << " word " << w % serial.words_per_cycle;
    // Bits past the last net stay zero, so FDBA trace bytes are stable.
    if (sched.size() % 64 != 0) {
      const std::uint64_t pad = ~low_mask(int(sched.size() % 64));
      for (std::size_t c = 0; c < cycles; ++c)
        ASSERT_EQ(got.row(c)[got.words_per_cycle - 1] & pad, 0u);
    }
  }
}

TEST(GoodTrace, TimeParallelMatchesSerialOnEveryDesign) {
  // Every registry design (FIR taps, IIR feedback, decimator phases),
  // on the lowered netlist and on the pass-optimized one the compiled
  // engine actually records, at segment lengths 1, 2, 3 and 65.
  for (const auto& entry : designs::design_registry()) {
    SCOPED_TRACE(entry.name);
    const auto d = designs::make_design(entry.name);
    const auto low = lower(d.graph);
    auto gen =
        tpg::make_generator(tpg::GeneratorKind::LfsrD, d.stats().width_in);
    const auto stim = gen->generate_raw(4100);
    const CompiledSchedule raw(low.netlist);
    expect_trace_matches_serial(raw, stim, serial_trace(raw, stim, 4097));

    std::vector<NetId> sites;
    for (const auto& f : fault::enumerate_adder_faults(low))
      sites.push_back(f.gate);
    const auto piped = run_passes(low.netlist, sites, PassOptions{});
    const CompiledSchedule opt(piped.netlist);
    expect_trace_matches_serial(opt, stim, serial_trace(opt, stim, 4097));
  }
}

TEST(GoodTrace, ToggleRegisterNeedsOneSweepPerSegment) {
  // q' = NOT q never forgets its state. With an odd segment length
  // every segment's true start state differs from its neighbour's, and
  // each sweep fixes one more segment: the maximum sweep count.
  Netlist nl;
  const NetId in = nl.add_gate(GateOp::Input);
  const NetId q = nl.add_gate(GateOp::RegOut);
  const NetId d = nl.add_gate(GateOp::Not, q);
  nl.registers().push_back({d, q});
  nl.inputs().push_back({in});
  nl.outputs().push_back({q});
  const CompiledSchedule sched(nl);
  const std::vector<std::int64_t> stim(4100, 1);
  const auto serial = serial_trace(sched, stim, 4097);
  expect_trace_matches_serial(sched, stim, serial);

  const GoodSweepVisitor ignore = [](std::size_t, const WordSim&) {};
  EXPECT_EQ(sweep_segment_length(4097), 65u); // 64 segments, odd length
  EXPECT_EQ(sweep_good_machine(sched, stim, 4097, ignore), 64u);
  // Even length: sweep 1 is already exact and is replayed once.
  EXPECT_EQ(sweep_good_machine(sched, stim, 4096, ignore), 2u);
  EXPECT_EQ(sweep_good_machine(sched, stim, 0, ignore), 0u);
  EXPECT_THROW(record_good_trace(sched, stim, stim.size() + 1),
               precondition_error);
}

TEST(RegisterDepth, PinnedOnTheRegistryFreshAndRestored) {
  // Feed-forward designs report their longest register path, IIR4's
  // feedback reports a cycle — on the pass-optimized netlist the
  // compiled engine runs, freshly compiled and restored from FDBA bytes.
  const std::vector<std::pair<const char*, std::optional<std::size_t>>>
      pins = {{"LP", 60}, {"BP", 58}, {"HP", 61}, {"DEC2", 16},
              {"IIR4", std::nullopt}};
  ASSERT_EQ(pins.size(), designs::design_registry().size());
  for (const auto& [name, depth] : pins) {
    SCOPED_TRACE(name);
    const auto d = designs::make_design(name);
    const auto low = lower(d.graph);
    const auto faults = fault::enumerate_adder_faults(low);
    auto gen =
        tpg::make_generator(tpg::GeneratorKind::LfsrD, d.stats().width_in);
    const auto stim = gen->generate_raw(64);
    const auto art =
        fault::build_artifact(low.netlist, stim, faults, PassOptions{});
    ASSERT_TRUE(art->schedule.has_value());
    const CompiledSchedule fresh(art->netlist);
    EXPECT_EQ(fresh.register_depth(), depth);
    EXPECT_EQ(art->schedule->register_depth(), depth);
    const auto back =
        fault::deserialize_artifact(fault::serialize_artifact(*art), art->key);
    ASSERT_TRUE(back) << back.error().to_string();
    EXPECT_EQ((*back)->schedule->register_depth(), depth);
  }
}

/// in -> NOT -> D registers in a chain -> output. The NOT gate is the
/// only fault site; its effect reaches the output exactly D cycles later.
Netlist register_chain(std::size_t depth, NetId& site) {
  Netlist nl;
  const NetId in = nl.add_gate(GateOp::Input);
  site = nl.add_gate(GateOp::Not, in);
  NetId prev = site;
  for (std::size_t i = 0; i < depth; ++i) {
    const NetId q = nl.add_gate(GateOp::RegOut);
    nl.registers().push_back({prev, q});
    prev = q;
  }
  nl.inputs().push_back({in});
  nl.outputs().push_back({prev});
  return nl;
}

TEST(RegisterDepth, ChainAndSelfLoop) {
  NetId site = kNoNet;
  for (const std::size_t depth : {0, 1, 2, 7, 40}) {
    const Netlist nl = register_chain(depth, site);
    EXPECT_EQ(CompiledSchedule(nl).register_depth(), depth);
  }
  // q' = NOT q never forgets its start state.
  Netlist loop;
  const NetId in = loop.add_gate(GateOp::Input);
  const NetId q = loop.add_gate(GateOp::RegOut);
  const NetId d = loop.add_gate(GateOp::Not, q);
  loop.registers().push_back({d, q});
  loop.inputs().push_back({in});
  loop.outputs().push_back({q});
  EXPECT_FALSE(CompiledSchedule(loop).register_depth().has_value());
  // A bare register feeding itself is a cycle too.
  Netlist hold;
  const NetId hin = hold.add_gate(GateOp::Input);
  const NetId hq = hold.add_gate(GateOp::RegOut);
  hold.registers().push_back({hq, hq});
  hold.inputs().push_back({hin});
  hold.outputs().push_back({hq});
  EXPECT_FALSE(CompiledSchedule(hold).register_depth().has_value());
}

TEST(RegisterDepth, WarmUpMustCoverTheDepth) {
  // NOT stuck-at-1 differs from the good machine only when the input is
  // 1. A single 1 at cycle t0 - D is seen at the output at cycle t0, so
  // the segment recording from t0 must simulate cycle t0 - D: a warm-up
  // one cycle short starts after the difference entered the chain and
  // never sees it.
  constexpr std::size_t kDepth = 12;
  constexpr std::size_t kT0 = 40;
  NetId site = kNoNet;
  const Netlist nl = register_chain(kDepth, site);
  const CompiledSchedule sched(nl);
  ASSERT_EQ(sched.register_depth(), kDepth);
  std::vector<std::int64_t> stim(96, 0);
  stim[kT0 - kDepth] = 1;
  const auto trace = record_good_trace(sched, stim, stim.size());
  const std::vector<fault::Fault> faults = {{site, PinSite::Output, 1}};
  const std::vector<std::size_t> batch = {0};

  const auto& kernel = fault::detail::batch_kernel(
      fault::detail::resolve_simd_backend(common::SimdBackend::Auto));
  auto worker = kernel.make_worker(sched);
  auto detect_with_warmup = [&](std::size_t warmup) {
    std::int32_t cycle = -1;
    worker->run_batch(faults, stim, batch,
                      {kT0 - warmup, kT0, stim.size()}, &trace,
                      nl.logic_gate_count(), &cycle, {}, nullptr);
    return cycle;
  };
  EXPECT_EQ(detect_with_warmup(kDepth), std::int32_t(kT0));
  EXPECT_EQ(detect_with_warmup(kDepth + 5), std::int32_t(kT0));
  EXPECT_EQ(detect_with_warmup(kDepth - 1), -1);

  // The whole-batch run from reset agrees with the D-cycle warm-up.
  const auto whole = fault::simulate_faults(nl, stim, faults);
  EXPECT_EQ(whole.detect_cycle.front(), std::int32_t(kT0));
}

// The heart of the refactor: the cone-restricted compiled engine must be
// bit-identical to the retained full-sweep reference.
void expect_engines_identical(const Netlist& nl,
                              std::span<const std::int64_t> stim,
                              std::span<const fault::Fault> faults,
                              std::size_t threads) {
  fault::FaultSimOptions ref;
  ref.num_threads = threads;
  ref.engine = fault::FaultSimEngine::FullSweep;
  fault::FaultSimOptions cone;
  cone.num_threads = threads;
  cone.engine = fault::FaultSimEngine::Compiled;
  const auto a = fault::simulate_faults(nl, stim, faults, ref);
  const auto b = fault::simulate_faults(nl, stim, faults, cone);
  EXPECT_EQ(a.stats.engine, fault::FaultSimEngine::FullSweep);
  EXPECT_EQ(b.stats.engine, fault::FaultSimEngine::Compiled);
  EXPECT_EQ(a.detected, b.detected);
  ASSERT_EQ(a.detect_cycle.size(), b.detect_cycle.size());
  for (std::size_t i = 0; i < a.detect_cycle.size(); ++i)
    ASSERT_EQ(a.detect_cycle[i], b.detect_cycle[i])
        << "fault " << i << " at " << threads << " threads";
  EXPECT_EQ(a.finalized, b.finalized);
  // The compiled engine must actually restrict: strictly fewer gate
  // evaluations than the sweep it replaces. Each engine steps exactly
  // the cycles of its window plan, restated from the shared verdicts:
  // FullSweep replays its final window from reset, the compiled engine
  // resumes a feed-forward netlist's windows past reset.
  const auto swept = fault::testing::plan_windows(
      a.detect_cycle, a.stats.lane_width - 1, stim.size(), std::nullopt);
  EXPECT_EQ(a.stats.batches, swept.batches);
  ASSERT_TRUE(swept.cycles_simulated) << "FullSweep never segments";
  EXPECT_EQ(a.stats.cycles_simulated, *swept.cycles_simulated);
  const auto compiled = fault::testing::plan_windows(
      b.detect_cycle, b.stats.lane_width - 1, stim.size(),
      fault::testing::compiled_register_depth(nl, faults));
  EXPECT_EQ(b.stats.batches, compiled.batches);
  EXPECT_EQ(b.stats.segments, compiled.segments);
  if (compiled.cycles_simulated) {
    EXPECT_EQ(b.stats.cycles_simulated, *compiled.cycles_simulated);
  }
  EXPECT_LT(b.stats.gates_evaluated, b.stats.gates_full_sweep);
  EXPECT_LE(b.stats.mean_cone_fraction(), 1.0);
}

TEST(EngineEquivalence, RandomizedLoweredNetlists) {
  const std::uint64_t seed = common::test_seed(20260806);
  SCOPED_TRACE(common::seed_note(seed));
  std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
  std::uniform_real_distribution<double> coef(-0.5, 0.5);
  std::uniform_int_distribution<int> ntaps(2, 7);
  for (int design = 0; design < 6; ++design) {
    std::vector<double> coefs(std::size_t(ntaps(rng)));
    double l1 = 0.0;
    for (double& c : coefs) {
      c = coef(rng);
      if (c == 0.0) c = 0.25;
      l1 += std::abs(c);
    }
    // The builder requires the coefficient L1 norm (plus truncation
    // slack) to fit the output format; scale below 1.0.
    if (l1 > 0.85)
      for (double& c : coefs) c *= 0.85 / l1;
    const auto low = lowered_fir(coefs, "rand");
    const auto faults = fault::enumerate_adder_faults(low);
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
    const auto stim = gen->generate_raw(96);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}})
      expect_engines_identical(low.netlist, stim, faults, threads);
  }
}

TEST(EngineEquivalence, PaperFiltersAllThreadCounts) {
  // All three reference designs (Table 1), against a stride-sampled
  // fault universe so the test spans many batches in seconds: the
  // acceptance oracle is bit-identity for num_threads in {1, 2, 0}.
  for (const auto f :
       {designs::ReferenceFilter::Lowpass, designs::ReferenceFilter::Bandpass,
        designs::ReferenceFilter::Highpass}) {
    const auto d = designs::make_reference(f);
    const auto low = lower(d.graph);
    const auto all = fault::order_for_simulation(
        fault::enumerate_adder_faults(low), low.netlist, d.graph);
    std::vector<fault::Fault> faults;
    for (std::size_t i = 0; i < all.size(); i += 97) faults.push_back(all[i]);
    ASSERT_GT(faults.size(), std::size_t{2} * 63);
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
    const auto stim = gen->generate_raw(160);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{0}})
      expect_engines_identical(low.netlist, stim, faults, threads);
  }
}

TEST(EngineEquivalence, EveryRegisteredFamilyAllThreadCounts) {
  // The tentpole bit-identity sweep widened to the whole registry: the
  // IIR biquad cascade closes cones through its feedback registers and
  // the decimator routes packed multi-lane inputs, and both must still
  // be engine- and thread-count-invariant exactly like the FIRs.
  for (const auto& entry : designs::design_registry()) {
    const auto d = designs::make_design(entry.name);
    const auto low = lower(d.graph);
    const auto all = fault::order_for_simulation(
        fault::enumerate_adder_faults(low), low.netlist, d.graph);
    std::vector<fault::Fault> faults;
    const std::size_t stride = std::max<std::size_t>(all.size() / 140, 1);
    for (std::size_t i = 0; i < all.size(); i += stride)
      faults.push_back(all[i]);
    ASSERT_GT(faults.size(), 64u) << entry.name;
    auto gen =
        tpg::make_generator(tpg::GeneratorKind::LfsrD, d.stats().width_in);
    const auto stim = gen->generate_raw(160);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
      SCOPED_TRACE(entry.name);
      expect_engines_identical(low.netlist, stim, faults, threads);
    }
  }
}

TEST(EngineEquivalence, CarrySaveLowering) {
  // The carry-save variant doubles the register count — a good stress
  // of cone closure through (sum, carry) register pairs.
  const auto d = rtl::build_fir({0.3, -0.42, 0.11, 0.07}, {}, "csa");
  const auto low = lower_carry_save(d);
  const auto faults = fault::enumerate_adder_faults(low);
  tpg::WhiteUniformSource src(12, 7);
  const auto stim = src.generate_raw(128);
  expect_engines_identical(low.netlist, stim, faults, 1);
  expect_engines_identical(low.netlist, stim, faults, 2);
}

TEST(EngineStats, ReportsWorkDone) {
  const auto low = lowered_fir({0.27, -0.19, 0.13, 0.094}, "stats");
  const auto faults = fault::enumerate_adder_faults(low);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(200);
  const auto r = fault::simulate_faults(low.netlist, stim, faults);
  const auto& s = r.stats;
  EXPECT_EQ(s.engine, fault::FaultSimEngine::Compiled);
  // Stage 1 runs every fault once in (lanes-1)-wide batches; stage 2
  // adds a workload-dependent number of survivor batches on top.
  ASSERT_GE(s.lane_width, 64u);
  EXPECT_GE(s.batches, (faults.size() + s.lane_width - 2) / (s.lane_width - 1));
  EXPECT_NE(s.simd, common::SimdBackend::Auto);
  EXPECT_GT(s.cycles_simulated, 0u);
  EXPECT_GE(s.cycles_budgeted, s.cycles_simulated);
  EXPECT_GT(s.good_trace_cycles, 0u);
  EXPECT_LT(s.gates_evaluated, s.gates_full_sweep);
  EXPECT_GT(s.mean_cone_fraction(), 0.0);
  EXPECT_LT(s.mean_cone_fraction(), 1.0);
  EXPECT_GT(s.gate_eval_savings(), 0.0);
}

TEST(EngineStats, RecordsTheGoodTraceOnce) {
  // One full-length recording serves stage 1's 128-cycle prefix and
  // stage 2; an artifact run records nothing.
  const auto d = designs::make_reference(designs::ReferenceFilter::Lowpass);
  const auto low = lower(d.graph);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(low), low.netlist, d.graph);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(512);
  fault::FaultSimOptions opt;
  opt.engine = fault::FaultSimEngine::Compiled;
  const auto scratch = fault::simulate_faults(low.netlist, stim, faults, opt);
  EXPECT_EQ(scratch.stats.good_trace_cycles, 512u);
  ASSERT_LT(scratch.detected, faults.size()) << "stage 2 must run";

  opt.artifact =
      fault::build_artifact(low.netlist, stim, faults, opt.passes);
  const auto cached = fault::simulate_faults(low.netlist, stim, faults, opt);
  EXPECT_EQ(cached.stats.good_trace_cycles, 0u);
  EXPECT_EQ(cached.detect_cycle, scratch.detect_cycle);
}

TEST(EngineStats, DeterministicAcrossThreadCounts) {
  const auto low = lowered_fir({0.22, -0.31, 0.085, -0.05, 0.03}, "det");
  const auto faults = fault::enumerate_adder_faults(low);
  auto gen = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
  const auto stim = gen->generate_raw(256);
  fault::FaultSimOptions o1;
  o1.num_threads = 1;
  const auto r1 = fault::simulate_faults(low.netlist, stim, faults, o1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    fault::FaultSimOptions on;
    on.num_threads = threads;
    const auto rn = fault::simulate_faults(low.netlist, stim, faults, on);
    EXPECT_EQ(rn.stats.batches, r1.stats.batches);
    EXPECT_EQ(rn.stats.segments, r1.stats.segments);
    EXPECT_EQ(rn.stats.cycles_simulated, r1.stats.cycles_simulated);
    EXPECT_EQ(rn.stats.cycles_budgeted, r1.stats.cycles_budgeted);
    EXPECT_EQ(rn.stats.gates_evaluated, r1.stats.gates_evaluated);
    EXPECT_EQ(rn.stats.gates_full_sweep, r1.stats.gates_full_sweep);
    EXPECT_EQ(rn.stats.cone_gates_sum, r1.stats.cone_gates_sum);
    EXPECT_EQ(rn.stats.netlist_gates_sum, r1.stats.netlist_gates_sum);
  }
}

} // namespace
} // namespace fdbist::gate
