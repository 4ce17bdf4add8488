// Survivor repacking (fault/simulator.cpp): on a feed-forward netlist
// the compiled engine regroups the survivors at doubling checkpoints
// 128, 256, ... and resumes each window from the good state one
// register depth before it. Verdicts must be bit-identical to the
// FullSweep reference at any thread count, every counter must follow
// the window plan restated from the verdicts (tests/window_plan.hpp)
// and be identical at every thread count, and cyclic netlists and
// signature runs must keep the two-window and one-window plans.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "designs/registry.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"
#include "window_plan.hpp"

namespace fdbist::fault {
namespace {

constexpr std::size_t kVectors = 4096;
constexpr std::size_t kFpb = 63; // scalar backend: 64 lanes

struct Cell {
  gate::LoweredDesign low;
  std::vector<Fault> faults;
  std::vector<std::int64_t> stim;
  /// Register depth of the netlist the compiled engine runs (nullopt:
  /// feedback).
  std::optional<std::size_t> depth;
  FaultSimResult ref; ///< FullSweep reference
};

/// One (design, generator) x 4096 cell with its FullSweep verdicts,
/// built once per test binary.
const Cell& cell(const std::string& name, tpg::GeneratorKind kind) {
  static std::map<std::pair<std::string, tpg::GeneratorKind>, Cell> cache;
  const auto key = std::make_pair(name, kind);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;
  const auto d = designs::make_design(name);
  Cell c;
  c.low = gate::lower(d.graph);
  c.faults = order_for_simulation(enumerate_adder_faults(c.low),
                                  c.low.netlist, d.graph);
  c.stim = tpg::make_generator(kind, d.stats().width_in)
               ->generate_raw(kVectors);
  c.depth = testing::compiled_register_depth(c.low.netlist, c.faults);
  FaultSimOptions opt;
  opt.num_threads = 0;
  opt.engine = FaultSimEngine::FullSweep;
  c.ref = simulate_faults(c.low.netlist, c.stim, c.faults, opt);
  return cache.emplace(key, std::move(c)).first->second;
}

FaultSimResult scalar_compiled(const Cell& c, std::size_t threads) {
  FaultSimOptions opt;
  opt.num_threads = threads;
  opt.engine = FaultSimEngine::Compiled;
  opt.simd = common::SimdBackend::Scalar;
  return simulate_faults(c.low.netlist, c.stim, c.faults, opt);
}

void expect_same_counters(const FaultSimStats& a, const FaultSimStats& b) {
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.cycles_simulated, b.cycles_simulated);
  EXPECT_EQ(a.cycles_budgeted, b.cycles_budgeted);
  EXPECT_EQ(a.gates_evaluated, b.gates_evaluated);
  EXPECT_EQ(a.gates_full_sweep, b.gates_full_sweep);
  EXPECT_EQ(a.cone_gates_sum, b.cone_gates_sum);
  EXPECT_EQ(a.netlist_gates_sum, b.netlist_gates_sum);
}

struct CellParam {
  std::string design;
  tpg::GeneratorKind kind;
};

// gtest prints the parameter into the ctest name; print the cell, not
// the struct's bytes (its string holds a heap pointer).
void PrintTo(const CellParam& c, std::ostream* os) {
  *os << c.design << " x " << tpg::kind_name(c.kind);
}

std::vector<CellParam> registry_cells() {
  std::vector<CellParam> out;
  for (const auto& entry : designs::design_registry())
    for (const auto kind :
         {tpg::GeneratorKind::Ramp, tpg::GeneratorKind::LfsrM})
      out.push_back({entry.name, kind});
  return out;
}

// One test per cell, so ctest runs the cells of the registry sweep in
// parallel.
class RepackCell : public ::testing::TestWithParam<CellParam> {};

TEST_P(RepackCell, MatchesFullSweepAtEveryThreadCount) {
  const Cell& c = cell(GetParam().design, GetParam().kind);
  ASSERT_TRUE(c.ref.complete);
  const auto plan =
      testing::plan_windows(c.ref.detect_cycle, kFpb, kVectors, c.depth);
  if (!c.depth) {
    // IIR4's feedback never forgets its start state: window 0, then
    // one window of whole batches replayed from reset, as before
    // repacking.
    ASSERT_EQ(plan.windows.size(), 2u);
    EXPECT_EQ(plan.windows[1].from, 0u);
    ASSERT_TRUE(plan.cycles_simulated);
  }
  std::optional<FaultSimResult> first;
  for (const std::size_t threads : {1, 2, 0}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const FaultSimResult r = scalar_compiled(c, threads);
    ASSERT_EQ(r.stats.lane_width, 64u);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.detect_cycle, c.ref.detect_cycle);
    EXPECT_EQ(r.finalized, c.ref.finalized);
    EXPECT_EQ(r.detected, c.ref.detected);
    EXPECT_EQ(r.stats.batches, plan.batches);
    EXPECT_EQ(r.stats.segments, plan.segments);
    EXPECT_EQ(r.stats.cycles_budgeted, plan.cycles_budgeted);
    if (plan.cycles_simulated) {
      EXPECT_EQ(r.stats.cycles_simulated, *plan.cycles_simulated);
    }
    if (first) {
      expect_same_counters(r.stats, first->stats);
    } else {
      first = r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, RepackCell, ::testing::ValuesIn(registry_cells()),
    [](const ::testing::TestParamInfo<CellParam>& info) {
      return info.param.design +
             (info.param.kind == tpg::GeneratorKind::Ramp ? "_Ramp"
                                                          : "_LfsrM");
    });

TEST(Repack, LowpassRampRegroupsAtDoublingCheckpoints) {
  // The Table 4 cell that dominates the matrix: its survivors span many
  // batches well past cycle 128, so the run takes at least three
  // windows, each starting where the last one ended.
  const Cell& c = cell("LP", tpg::GeneratorKind::Ramp);
  ASSERT_TRUE(c.depth);
  const auto plan =
      testing::plan_windows(c.ref.detect_cycle, kFpb, kVectors, c.depth);
  ASSERT_GE(plan.windows.size(), 3u);
  EXPECT_EQ(plan.windows[1].from, 128u);
  EXPECT_EQ(plan.windows[1].to, 256u);
  for (std::size_t k = 1; k < plan.windows.size(); ++k)
    EXPECT_EQ(plan.windows[k].from, plan.windows[k - 1].to);
  EXPECT_EQ(plan.windows.back().to, kVectors);

  // The run follows that plan, not the two-window replay from reset.
  const auto replay = testing::plan_windows(c.ref.detect_cycle, kFpb,
                                            kVectors, std::nullopt);
  ASSERT_EQ(replay.windows.size(), 2u);
  std::vector<std::size_t> done;
  FaultSimOptions opt;
  opt.num_threads = 4;
  opt.engine = FaultSimEngine::Compiled;
  opt.simd = common::SimdBackend::Scalar;
  opt.progress = [&](std::size_t d, std::size_t total) {
    EXPECT_EQ(total, c.faults.size());
    done.push_back(d);
  };
  const FaultSimResult r =
      simulate_faults(c.low.netlist, c.stim, c.faults, opt);
  EXPECT_EQ(r.detect_cycle, c.ref.detect_cycle);
  EXPECT_EQ(r.stats.batches, plan.batches);
  EXPECT_NE(r.stats.batches, replay.batches);
  ASSERT_FALSE(done.empty());
  for (std::size_t i = 1; i < done.size(); ++i)
    EXPECT_GT(done[i], done[i - 1]) << "report " << i;
  EXPECT_EQ(done.back(), c.faults.size());
}

TEST(Repack, SignatureRunKeepsOneFullWindow) {
  // A signature must absorb every cycle from reset: one window of whole
  // batches over the whole stimulus, no early exit, no repacking.
  const Cell& c = cell("LP", tpg::GeneratorKind::Ramp);
  FaultSimOptions opt;
  opt.engine = FaultSimEngine::Compiled;
  opt.signature.width = 16;
  opt.signature.taps = tpg::default_polynomial(16).low_terms;
  const FaultSimResult r =
      simulate_faults(c.low.netlist, c.stim, c.faults, opt);
  EXPECT_EQ(r.detect_cycle, c.ref.detect_cycle);
  const std::size_t fpb = r.stats.lane_width - 1;
  const std::size_t batches = (c.faults.size() + fpb - 1) / fpb;
  EXPECT_EQ(r.stats.batches, batches);
  EXPECT_EQ(r.stats.segments, batches);
  EXPECT_EQ(r.stats.cycles_simulated, batches * kVectors);
  EXPECT_EQ(r.stats.cycles_budgeted, batches * kVectors);
}

} // namespace
} // namespace fdbist::fault
