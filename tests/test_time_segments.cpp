// Time-segmented final windows (fault/simulator.cpp): on a feed-forward
// netlist each batch of the final window may be split over time, every
// segment warming up for the register depth from the good state. The
// verdicts must be bit-identical to the whole-batch FullSweep reference
// at any segment count and thread count; a cancelled window must
// finalize a batch's verdicts only when every one of its kernel runs
// finished; progress must stay strictly increasing.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "designs/registry.hpp"
#include "fault/kernel.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/passes/pass.hpp"
#include "gate/schedule.hpp"
#include "tpg/generators.hpp"
#include "window_plan.hpp"

namespace fdbist::fault {
namespace {

constexpr std::size_t kVectors = 4096;

struct Workload {
  std::string name;
  gate::LoweredDesign low;
  std::vector<Fault> faults;
  std::vector<std::int64_t> stim;
  /// Register depth of the pass-optimized netlist the compiled engine
  /// runs (nullopt: feedback).
  std::optional<std::size_t> depth;
};

Workload workload(const std::string& name) {
  const auto d = designs::make_design(name);
  auto low = gate::lower(d.graph);
  auto faults = order_for_simulation(enumerate_adder_faults(low),
                                     low.netlist, d.graph);
  auto gen =
      tpg::make_generator(tpg::GeneratorKind::LfsrD, d.stats().width_in);
  auto stim = gen->generate_raw(kVectors);
  std::vector<gate::NetId> sites;
  for (const Fault& f : faults) sites.push_back(f.gate);
  const auto piped = gate::run_passes(low.netlist, sites, gate::PassOptions{});
  const auto depth = gate::CompiledSchedule(piped.netlist).register_depth();
  return Workload{name, std::move(low), std::move(faults), std::move(stim),
                  depth};
}

FaultSimResult full_sweep(const Workload& w) {
  FaultSimOptions opt;
  opt.num_threads = 0;
  opt.engine = FaultSimEngine::FullSweep;
  return simulate_faults(w.low.netlist, w.stim, w.faults, opt);
}

FaultSimResult segmented(const Workload& w, std::size_t segments,
                         std::size_t threads,
                         common::SimdBackend simd = common::SimdBackend::Auto) {
  FaultSimOptions opt;
  opt.num_threads = threads;
  opt.engine = FaultSimEngine::Compiled;
  opt.simd = simd;
  return detail::simulate_faults_planned(w.low.netlist, w.stim, w.faults,
                                         opt, {.segments = segments});
}

TEST(TimeSegments, EveryRegistryDesignMatchesFullSweep) {
  for (const auto& entry : designs::design_registry()) {
    SCOPED_TRACE(entry.name);
    const Workload w = workload(entry.name);
    const FaultSimResult ref = full_sweep(w);
    ASSERT_TRUE(ref.complete);

    // 0 = the planner's own count.
    for (const std::size_t s : {1, 2, 3, 64, 0}) {
      SCOPED_TRACE("segments " + std::to_string(s));
      const FaultSimResult r = segmented(w, s, 0);
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.detect_cycle, ref.detect_cycle);
      EXPECT_EQ(r.finalized, ref.finalized);
      EXPECT_EQ(r.detected, ref.detected);

      // Only the final window runs S segments per batch, and a cyclic
      // netlist runs whole batches at any forced count.
      const auto plan = testing::plan_windows(
          ref.detect_cycle, r.stats.lane_width - 1, kVectors, w.depth, s);
      ASSERT_GE(plan.windows.size(), 2u) << "survivors must reach window 1";
      EXPECT_EQ(r.stats.batches, plan.batches);
      EXPECT_EQ(r.stats.segments, plan.segments);
      EXPECT_EQ(r.stats.cycles_budgeted, plan.cycles_budgeted);
      if (plan.cycles_simulated) {
        EXPECT_EQ(r.stats.cycles_simulated, *plan.cycles_simulated);
      }
      EXPECT_GE(r.stats.cycles_budgeted, r.stats.cycles_simulated);
    }
  }
}

TEST(TimeSegments, PlannerSegmentsFeedForwardStage2Only) {
  // The planner's choice when the survivors of window 0 fit one batch
  // at 4096 vectors: no repacking, one final window [128, 4096). LP gets
  // two segments (3968 / (32 * 60)), DEC2 seven (3968 / (32 * 16)),
  // IIR4 none. Counters are a function of the plan, never of the thread
  // count.
  for (const auto& [name, expect] :
       std::vector<std::pair<std::string, std::size_t>>{
           {"LP", 2}, {"DEC2", 7}, {"IIR4", 1}}) {
    SCOPED_TRACE(name);
    const Workload w = workload(name);
    const FaultSimResult r1 = segmented(w, 0, 1);
    const FaultSimResult rn = segmented(w, 0, 0);
    EXPECT_EQ(rn.detect_cycle, r1.detect_cycle);
    EXPECT_EQ(rn.stats.batches, r1.stats.batches);
    EXPECT_EQ(rn.stats.segments, r1.stats.segments);
    EXPECT_EQ(rn.stats.cycles_simulated, r1.stats.cycles_simulated);
    EXPECT_EQ(rn.stats.gates_evaluated, r1.stats.gates_evaluated);
    const std::size_t fpb = r1.stats.lane_width - 1;
    const std::size_t b1 = (w.faults.size() + fpb - 1) / fpb;
    const std::size_t b2 = r1.stats.batches - b1;
    ASSERT_EQ(b2, 1u);
    EXPECT_EQ(r1.stats.segments - b1, expect);
  }
}

TEST(TimeSegments, CancelledPassFinalizesOnlyWholeBatches) {
  // 64-lane batches give the windows after the first several batches,
  // and the final window runs four segments per batch. The token fires
  // at the first finished batch of window 1 (repacked, whole batches)
  // and, in a second run, of the final window, while other workers may
  // still be inside later batches or segments. A batch of the
  // interrupted window is all or nothing: once every run of it finished
  // it finalizes every fault the window decides (detected in it, or any
  // fault of the final window), otherwise none.
  const Workload w = workload("LP");
  const FaultSimResult ref = full_sweep(w);
  constexpr std::size_t kFpb = 63;
  constexpr std::size_t kSegments = 4;
  const auto plan = testing::plan_windows(ref.detect_cycle, kFpb, kVectors,
                                          w.depth, kSegments);
  ASSERT_GE(plan.windows.size(), 3u);
  ASSERT_GE(plan.windows[1].faults.size(), 2 * kFpb + 1);

  for (const std::size_t target : {std::size_t{1}, plan.windows.size() - 1}) {
    const testing::PlannedWindow& win = plan.windows[target];
    const bool final_window = win.to == kVectors;
    // Every fault outside the window was detected before it started.
    const std::size_t before = w.faults.size() - win.faults.size();
    for (const std::size_t threads : {1, 2, 4}) {
      SCOPED_TRACE("window " + std::to_string(target) + ", " +
                   std::to_string(threads) + " threads");
      common::CancelToken token;
      FaultSimOptions opt;
      opt.num_threads = threads;
      opt.engine = FaultSimEngine::Compiled;
      opt.simd = common::SimdBackend::Scalar;
      opt.cancel = &token;
      opt.progress = [&](std::size_t done, std::size_t) {
        if (done > before) token.cancel();
      };
      const FaultSimResult r = detail::simulate_faults_planned(
          w.low.netlist, w.stim, w.faults, opt, {.segments = kSegments});
      ASSERT_EQ(r.stats.lane_width, 64u);
      EXPECT_FALSE(r.complete);

      // Every verdict present is final and exact; an unfinished batch
      // reports nothing, not even a later segment's detection.
      std::size_t detected = 0;
      for (std::size_t i = 0; i < w.faults.size(); ++i) {
        if (r.finalized[i])
          EXPECT_EQ(r.detect_cycle[i], ref.detect_cycle[i]) << "fault " << i;
        else
          EXPECT_EQ(r.detect_cycle[i], -1) << "fault " << i;
        if (r.detect_cycle[i] >= 0) ++detected;
      }
      EXPECT_EQ(r.detected, detected);
      EXPECT_GE(r.finalized_count(), before);

      // At least the batch whose report fired the token finished; at
      // one thread nothing runs after it.
      std::size_t finished = 0;
      for (std::size_t base = 0; base < win.faults.size(); base += kFpb) {
        const std::size_t end = std::min(base + kFpb, win.faults.size());
        std::size_t fin = 0;
        std::size_t decided = 0;
        for (std::size_t p = base; p < end; ++p) {
          const std::size_t i = win.faults[p];
          const std::int32_t d = ref.detect_cycle[i];
          const bool decides =
              final_window || (d >= 0 && std::size_t(d) < win.to);
          decided += decides;
          fin += r.finalized[i];
          EXPECT_TRUE(!r.finalized[i] || decides) << "fault " << i;
        }
        EXPECT_TRUE(fin == 0 || fin == decided) << "batch at " << base;
        if (fin != 0) ++finished;
      }
      EXPECT_GE(finished, 1u);
      if (threads == 1) {
        EXPECT_EQ(finished, 1u);
      }
    }
  }
}

TEST(TimeSegments, ProgressStaysStrictlyIncreasing) {
  const Workload w = workload("DEC2");
  for (const std::size_t s : {0, 3}) {
    for (const std::size_t threads : {1, 4}) {
      std::vector<std::size_t> done;
      FaultSimOptions opt;
      opt.num_threads = threads;
      opt.engine = FaultSimEngine::Compiled;
      opt.progress = [&](std::size_t d, std::size_t total) {
        EXPECT_EQ(total, w.faults.size());
        done.push_back(d);
      };
      detail::simulate_faults_planned(w.low.netlist, w.stim, w.faults, opt,
                                      {.segments = s});
      ASSERT_FALSE(done.empty());
      for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT_GT(done[i], done[i - 1]) << "report " << i;
      EXPECT_EQ(done.back(), w.faults.size());
    }
  }
}

} // namespace
} // namespace fdbist::fault
