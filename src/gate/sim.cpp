#include "gate/sim.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace fdbist::gate {

const char* pin_site_name(PinSite s) {
  switch (s) {
  case PinSite::Output: return "out";
  case PinSite::InputA: return "inA";
  case PinSite::InputB: return "inB";
  }
  return "?";
}

std::size_t sweep_good_machine(const CompiledSchedule& schedule,
                               std::span<const std::int64_t> stimulus,
                               std::size_t cycles,
                               const GoodSweepVisitor& visit) {
  FDBIST_REQUIRE(cycles <= stimulus.size(),
                 "good trace longer than the stimulus");
  if (cycles == 0) return 0;
  const Netlist& nl = schedule.netlist();
  FDBIST_REQUIRE(nl.inputs().size() == 1,
                 "the good-machine sweep drives exactly one primary input");
  const std::size_t width = nl.inputs().front().size();
  FDBIST_REQUIRE(width <= 64, "primary input wider than a stimulus word");
  using W = WordSim::Word;

  const std::size_t seg = sweep_segment_length(cycles);
  const std::size_t segments = (cycles + seg - 1) / seg;
  const std::uint64_t live = low_mask(static_cast<int>(segments));

  // The stimulus transposed once: `width` input bit words per step,
  // lane k of step s carrying cycle k*seg + s (zero past the end).
  std::vector<W> inputs(seg * width);
  std::uint64_t blk[64];
  for (std::size_t s = 0; s < seg; ++s) {
    for (std::size_t k = 0; k < 64; ++k) {
      const std::size_t t = k * seg + s;
      blk[k] = t < cycles ? static_cast<std::uint64_t>(stimulus[t]) : 0;
    }
    transpose64(blk);
    for (std::size_t j = 0; j < width; ++j)
      inputs[s * width + j] = W::from_word0(blk[j]);
  }

  // Sweep 1 starts every segment from reset, which is exact only if
  // each segment also ends in the reset state; that almost never holds,
  // so sweep 1 only finds start states and is not visited. When it does
  // hold, one visited sweep replays it.
  WordSim sim(schedule);
  const std::span<W> state = sim.register_state();
  std::vector<std::uint64_t> start(state.size(), 0); // all from reset
  for (std::size_t sweeps = 1;; ++sweeps) {
    const bool visiting = sweeps > 1;
    for (std::size_t r = 0; r < state.size(); ++r)
      state[r] = W::from_word0(start[r]);
    for (std::size_t s = 0; s < seg; ++s) {
      sim.step_lanes({inputs.data() + s * width, width});
      if (visiting) visit(s, sim);
    }
    // Segment k+1 starts where segment k ended; segment 0 at reset.
    bool changed = false;
    for (std::size_t r = 0; r < state.size(); ++r) {
      const std::uint64_t next = (state[r].word(0) << 1) & live;
      changed |= next != start[r];
      start[r] = next;
    }
    if (visiting && !changed) return sweeps;
  }
}

GoodTrace record_good_trace(const CompiledSchedule& schedule,
                            std::span<const std::int64_t> stimulus,
                            std::size_t cycles) {
  FDBIST_REQUIRE(cycles <= stimulus.size(),
                 "good trace longer than the stimulus");
  const std::size_t n = schedule.size();
  GoodTrace trace;
  trace.words_per_cycle = (n + 63) / 64;
  trace.cycles = cycles;
  trace.bits.assign(trace.words_per_cycle * cycles, 0);

  const std::size_t seg = sweep_segment_length(cycles);
  const std::size_t wpc = trace.words_per_cycle;
  // One step's rows, word-major: packed[w * 64 + k] is word w of lane
  // k's row. Nets past the last one pad with zero, so row padding bits
  // stay zero.
  std::vector<std::uint64_t> packed(wpc * 64, 0);
  sweep_good_machine(schedule, stimulus, cycles,
                     [&](std::size_t s, const WordSim& sim) {
    for (std::size_t i = 0; i < n; ++i)
      packed[i] = sim.net(static_cast<NetId>(i));
    std::fill(packed.begin() + std::ptrdiff_t(n), packed.end(), 0);
    for (std::size_t w = 0; w < wpc; ++w)
      transpose64(std::span<std::uint64_t, 64>(packed.data() + w * 64, 64));
    // Lanes whose cycle k*seg + s lies inside the stimulus, row by row.
    const std::size_t lanes = (cycles - s + seg - 1) / seg;
    for (std::size_t k = 0; k < lanes; ++k) {
      std::uint64_t* row = trace.bits.data() + (k * seg + s) * wpc;
      for (std::size_t w = 0; w < wpc; ++w) row[w] = packed[w * 64 + k];
    }
  });
  return trace;
}

} // namespace fdbist::gate
