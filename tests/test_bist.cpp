#include <gtest/gtest.h>

#include "bist/kit.hpp"
#include "bist/misr.hpp"
#include "designs/registry.hpp"
#include "gate/sim.hpp"
#include "rtl/sim.hpp"
#include "tpg/generators.hpp"

namespace fdbist::bist {
namespace {

TEST(Misr, DeterministicSignature) {
  Misr a(16);
  Misr b(16);
  const std::vector<std::int64_t> words{1, -2, 300, 4000, -5000};
  a.absorb_all(words);
  b.absorb_all(words);
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(Misr, DifferentTraceDifferentSignature) {
  Misr a(24);
  Misr b(24);
  std::vector<std::int64_t> w1(100, 0);
  std::vector<std::int64_t> w2(100, 0);
  w2[57] = 4; // single-bit, single-cycle difference
  a.absorb_all(w1);
  b.absorb_all(w2);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, OrderSensitive) {
  Misr a(16);
  Misr b(16);
  a.absorb(1);
  a.absorb(2);
  b.absorb(2);
  b.absorb(1);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, ResetRestoresSeed) {
  Misr m(16, 0x1234);
  EXPECT_EQ(m.signature(), 0x1234u);
  m.absorb(99);
  EXPECT_NE(m.signature(), 0x1234u);
  m.reset();
  EXPECT_EQ(m.signature(), 0x1234u);
}

TEST(Misr, WidthValidation) {
  EXPECT_THROW(Misr(1), precondition_error);
  EXPECT_THROW(Misr(40), precondition_error);
  EXPECT_NO_THROW(Misr(24));
}

// Small design shared by kit tests: fast to lower and simulate.
const rtl::FilterDesign& small_design() {
  static const rtl::FilterDesign d = rtl::build_fir(
      {0.22, -0.31, 0.085, -0.05, 0.19, 0.075}, {}, "small");
  return d;
}

TEST(Kit, ConstructsAndExposesUniverse) {
  BistKit kit(small_design());
  EXPECT_GT(kit.faults().size(), 100u);
  EXPECT_EQ(&kit.design(), &small_design());
  EXPECT_GT(kit.lowered().netlist.logic_gate_count(), 0u);
}

TEST(Kit, MisrMustCoverOutput) {
  EXPECT_THROW(BistKit(small_design(), 8), precondition_error);
}

TEST(Kit, GoldenResponseMatchesAcrossCalls) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(200);
  const auto r1 = kit.golden_response(stim);
  const auto r2 = kit.golden_response(stim);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1.size(), stim.size());
  EXPECT_EQ(kit.golden_signature(stim), kit.golden_signature(stim));
}

TEST(Kit, GoldenResponseMatchesRtlAndSerialGateSimulation) {
  // The time-parallel golden response against two serial references:
  // the word-level RTL simulator and lane 0 of a broadcast gate sweep.
  // 4096 vectors relax in 2 sweeps; 300 (segments of 5 cycles) need
  // more, since the filters remember longer than one segment.
  for (const auto& entry : designs::design_registry()) {
    const auto d = designs::make_design(entry.name);
    const BistKit kit(d);
    for (const std::size_t vectors : {4096, 300}) {
      SCOPED_TRACE(entry.name + " x " + std::to_string(vectors));
      auto gen =
          tpg::make_generator(tpg::GeneratorKind::LfsrD, d.stats().width_in);
      const auto stim = gen->generate_raw(vectors);
      const auto got = kit.golden_response(stim);

      rtl::Simulator rtl_sim(d.graph);
      EXPECT_EQ(got, rtl_sim.run_output(stim));

      gate::WordSim ws(kit.lowered().netlist);
      const auto& out_bits = kit.lowered().netlist.outputs().front();
      std::vector<std::int64_t> serial;
      for (const std::int64_t x : stim) {
        ws.step_broadcast(x);
        serial.push_back(ws.lane_value(out_bits, 0));
      }
      EXPECT_EQ(got, serial);
    }
  }
  const BistKit kit(small_design());
  EXPECT_TRUE(kit.golden_response({}).empty());
}

TEST(Kit, EvaluateReportsConsistentCounts) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto report = kit.evaluate(*gen, 512);
  EXPECT_EQ(report.vectors, 512u);
  EXPECT_EQ(report.total_faults, kit.faults().size());
  EXPECT_EQ(report.detected + report.missed(), report.total_faults);
  EXPECT_GT(report.coverage(), 0.9);
  const auto undetected = kit.undetected_faults(report.fault_result);
  EXPECT_EQ(undetected.size(), report.missed());
}

TEST(Kit, EvaluateResetsGenerator) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  gen->generate_raw(17); // disturb the state
  const auto r1 = kit.evaluate(*gen, 256);
  const auto r2 = kit.evaluate(*gen, 256);
  EXPECT_EQ(r1.detected, r2.detected);
  EXPECT_EQ(r1.golden_signature, r2.golden_signature);
}

TEST(Kit, SignatureDetectsDetectedFault) {
  // Any fault the fault simulator detects must also flip the MISR
  // signature (no aliasing for this stimulus) — spot-check several.
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(512);
  const auto res = fault::simulate_faults(kit.lowered().netlist, stim,
                                          kit.faults());
  int checked = 0;
  for (std::size_t i = 0; i < kit.faults().size() && checked < 10; i += 37) {
    if (res.detect_cycle[i] < 0) continue;
    EXPECT_TRUE(kit.signature_detects(kit.faults()[i], stim))
        << "fault " << i << " aliased in the MISR";
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

TEST(Kit, SignatureUnchangedForUndetectedFault) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(128);
  const auto res =
      fault::simulate_faults(kit.lowered().netlist, stim, kit.faults());
  for (std::size_t i = 0; i < kit.faults().size(); ++i) {
    if (res.detect_cycle[i] >= 0) continue;
    EXPECT_FALSE(kit.signature_detects(kit.faults()[i], stim));
    break; // one is enough
  }
}

TEST(Kit, RejectsZeroVectors) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  EXPECT_THROW(kit.evaluate(*gen, 0), precondition_error);
}

} // namespace
} // namespace fdbist::bist
