// Differential testing: the word-parallel fault simulator must agree
// with the serial reference, fault for fault and cycle for cycle. The
// serial reference is the same batch kernel pinned to one thread and
// the full-sweep engine (no compiled schedule, no good-trace reuse);
// detect_cycle_of below is an independent one-lane oracle with none of
// the kernel's batching or staging.
#include <gtest/gtest.h>

#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"

namespace fdbist::fault {
namespace {

/// The serial reference configuration of the batch kernel.
FaultSimOptions serial_options() {
  FaultSimOptions opt;
  opt.num_threads = 1;
  opt.engine = FaultSimEngine::FullSweep;
  return opt;
}

/// First cycle at which injecting `f` changes the observed outputs, or
/// -1 if the stimulus never detects it: one fault in one lane, stepped
/// cycle by cycle.
std::int32_t detect_cycle_of(const gate::Netlist& nl,
                             std::span<const std::int64_t> stimulus,
                             const Fault& f) {
  gate::WordSim sim(nl);
  sim.add_fault(f.gate, f.site, f.stuck, std::uint64_t{1} << 1);
  for (std::size_t t = 0; t < stimulus.size(); ++t) {
    sim.step_broadcast(stimulus[t]);
    if (sim.output_mismatch() & 2u) return static_cast<std::int32_t>(t);
  }
  return -1;
}

struct Case {
  std::vector<double> coefs;
  tpg::GeneratorKind gen;
  std::size_t vectors;
};

// Names the case in test output and test IDs; the default byte dump would
// print the heap address of `coefs` and so differ from run to run.
void PrintTo(const Case& c, std::ostream* os) {
  *os << tpg::kind_name(c.gen) << ", " << c.coefs.size() << " taps, "
      << c.vectors << " vectors";
}

class SerialVsParallel : public ::testing::TestWithParam<Case> {};

TEST_P(SerialVsParallel, IdenticalDetectionCycles) {
  const auto& c = GetParam();
  const auto d = rtl::build_fir(c.coefs, {}, "diff");
  const auto low = gate::lower(d.graph);
  const auto faults = order_for_simulation(enumerate_adder_faults(low),
                                           low.netlist, d.graph);
  auto gen = tpg::make_generator(c.gen, 12);
  const auto stim = gen->generate_raw(c.vectors);

  const auto fast = simulate_faults(low.netlist, stim, faults);
  const auto slow =
      simulate_faults(low.netlist, stim, faults, serial_options());

  ASSERT_EQ(fast.detect_cycle.size(), slow.detect_cycle.size());
  EXPECT_EQ(fast.detected, slow.detected);
  for (std::size_t i = 0; i < faults.size(); ++i)
    ASSERT_EQ(fast.detect_cycle[i], slow.detect_cycle[i])
        << "fault " << i << ": "
        << describe(faults[i], low.netlist, d.graph);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SerialVsParallel,
    ::testing::Values(
        Case{{0.3, -0.42, 0.11}, tpg::GeneratorKind::LfsrD, 96},
        Case{{0.22, -0.31, 0.085, -0.05}, tpg::GeneratorKind::Lfsr1, 128},
        Case{{0.4, 0.25, -0.125}, tpg::GeneratorKind::LfsrM, 96},
        Case{{-0.5, 0.25}, tpg::GeneratorKind::Ramp, 160},
        Case{{0.125, -0.25, 0.0625, 0.03125}, tpg::GeneratorKind::Lfsr2,
             96}));

TEST(Serial, DetectCycleOfMatchesBatch) {
  const auto d = rtl::build_fir({0.3, -0.42, 0.11}, {}, "t");
  const auto low = gate::lower(d.graph);
  const auto faults = enumerate_adder_faults(low);
  tpg::WhiteUniformSource src(12, 3);
  const auto stim = src.generate_raw(64);
  const auto batch =
      simulate_faults(low.netlist, stim, faults, serial_options());
  for (std::size_t i = 0; i < faults.size(); i += 11)
    EXPECT_EQ(detect_cycle_of(low.netlist, stim, faults[i]),
              batch.detect_cycle[i]);
}

TEST(Serial, EmptyStimulusRejected) {
  const auto d = rtl::build_fir({0.5}, {}, "t");
  const auto low = gate::lower(d.graph);
  const auto faults = enumerate_adder_faults(low);
  EXPECT_THROW(simulate_faults(low.netlist, {}, faults, serial_options()),
               precondition_error);
}

} // namespace
} // namespace fdbist::fault
