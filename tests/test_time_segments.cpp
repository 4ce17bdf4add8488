// Time-segmented final passes (fault/simulator.cpp): on a feed-forward
// netlist each batch of the full-budget pass may be split over time,
// every segment warming up for the register depth from the good state.
// The verdicts must be bit-identical to the whole-batch FullSweep
// reference at any segment count and thread count; a cancelled
// segmented pass must finalize a batch only when every one of its
// segments ran; progress must stay strictly increasing.
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

namespace fdbist::fault {
namespace {

constexpr std::size_t kVectors = 4096;
constexpr std::size_t kStage1 = 128;

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
  return detail::simulate_faults_segmented(w.low.netlist, w.stim, w.faults,
                                           opt, segments);
}

/// Stage-1 survivors in pass order: the faults the reference did not
/// detect within the first 128 cycles.
std::vector<std::size_t> stage1_survivors(const FaultSimResult& ref) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ref.detect_cycle.size(); ++i)
    if (ref.detect_cycle[i] < 0 || std::size_t(ref.detect_cycle[i]) >= kStage1)
      out.push_back(i);
  return out;
}

/// The planner's rule, restated: S = max(1, min(ceil(8 / batches),
/// budget / (32 D))).
std::size_t planner_segments(std::size_t batches, std::size_t depth) {
  return std::max<std::size_t>(
      1, std::min((8 + batches - 1) / batches,
                  kVectors / (32 * std::max<std::size_t>(depth, 1))));
}

TEST(TimeSegments, EveryRegistryDesignMatchesFullSweep) {
  for (const auto& entry : designs::design_registry()) {
    SCOPED_TRACE(entry.name);
    const Workload w = workload(entry.name);
    const FaultSimResult ref = full_sweep(w);
    ASSERT_TRUE(ref.complete);
    const std::size_t survivors = stage1_survivors(ref).size();
    ASSERT_GT(survivors, 0u) << "stage 2 must run";

    // 0 = the planner's own count.
    for (const std::size_t s : {1, 2, 3, 64, 0}) {
      SCOPED_TRACE("segments " + std::to_string(s));
      const FaultSimResult r = segmented(w, s, 0);
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.detect_cycle, ref.detect_cycle);
      EXPECT_EQ(r.finalized, ref.finalized);
      EXPECT_EQ(r.detected, ref.detected);

      // Stage 1 is never segmented; stage 2 runs S segments per batch,
      // and a cyclic netlist runs whole batches at any forced count.
      const std::size_t fpb = r.stats.lane_width - 1;
      const std::size_t b1 = (w.faults.size() + fpb - 1) / fpb;
      const std::size_t b2 = (survivors + fpb - 1) / fpb;
      EXPECT_EQ(r.stats.batches, b1 + b2);
      std::size_t per_batch = 1;
      if (w.depth) per_batch = s != 0 ? s : planner_segments(b2, *w.depth);
      EXPECT_EQ(r.stats.segments, b1 + b2 * per_batch);
      EXPECT_GE(r.stats.cycles_budgeted, r.stats.cycles_simulated);
    }
  }
}

TEST(TimeSegments, PlannerSegmentsFeedForwardStage2Only) {
  // The planner's choice for one stage-2 batch at 4096 vectors: LP two
  // segments (4096 / (32 * 60)), DEC2 eight (the ceiling), IIR4 none.
  // Counters are a function of the pass, never of the thread count.
  for (const auto& [name, expect] :
       std::vector<std::pair<std::string, std::size_t>>{
           {"LP", 2}, {"DEC2", 8}, {"IIR4", 1}}) {
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
  // 64-lane batches give stage 2 several batches of four segments each.
  // The token fires at the first finished stage-2 batch, while other
  // workers may still be inside the segments of later batches.
  const Workload w = workload("LP");
  const FaultSimResult ref = full_sweep(w);
  const auto survivors = stage1_survivors(ref);
  constexpr std::size_t kFpb = 63;
  const std::size_t b2 = (survivors.size() + kFpb - 1) / kFpb;
  ASSERT_GE(b2, 3u);
  const std::size_t stage1_done = w.faults.size() - survivors.size();

  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    common::CancelToken token;
    FaultSimOptions opt;
    opt.num_threads = threads;
    opt.engine = FaultSimEngine::Compiled;
    opt.simd = common::SimdBackend::Scalar;
    opt.cancel = &token;
    opt.progress = [&](std::size_t done, std::size_t) {
      if (done > stage1_done) token.cancel();
    };
    const FaultSimResult r = detail::simulate_faults_segmented(
        w.low.netlist, w.stim, w.faults, opt, 4);
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

    // Stage-2 batches are finalized all or nothing. At least the batch
    // whose report fired the token finished; at one thread nothing runs
    // after it.
    std::size_t finished = 0;
    for (std::size_t base = 0; base < survivors.size(); base += kFpb) {
      const std::size_t end = std::min(base + kFpb, survivors.size());
      std::size_t fin = 0;
      for (std::size_t p = base; p < end; ++p) fin += r.finalized[survivors[p]];
      EXPECT_TRUE(fin == 0 || fin == end - base) << "batch at " << base;
      if (fin != 0) ++finished;
    }
    EXPECT_GE(finished, 1u);
    if (threads == 1) {
      EXPECT_EQ(finished, 1u);
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
      detail::simulate_faults_segmented(w.low.netlist, w.stim, w.faults, opt,
                                        s);
      ASSERT_FALSE(done.empty());
      for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT_GT(done[i], done[i - 1]) << "report " << i;
      EXPECT_EQ(done.back(), w.faults.size());
    }
  }
}

} // namespace
} // namespace fdbist::fault
