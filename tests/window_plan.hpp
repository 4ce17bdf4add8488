// The window schedule of fault::simulate_faults, restated from a
// reference run's verdicts so tests can pin its counters exactly.
//
// Window 0 records [0, first_window) for every fault from reset. Each
// later window packs the faults undetected before its start c, in pass
// order, into batches of fpb. A resumable run (compiled engine,
// word-compare, feed-forward netlist of register depth D) resumes the
// window at c - min(c, D) and ends it at min(N, 2c) while the survivors
// span two batches or more, else at N; a run that cannot resume replays
// one final window [0, N) from reset. Only the final window of a
// resumable run is split into time segments.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "gate/netlist.hpp"
#include "gate/passes/pass.hpp"
#include "gate/schedule.hpp"

namespace fdbist::fault::testing {

struct PlannedWindow {
  std::size_t from = 0; ///< first recorded cycle
  std::size_t to = 0;   ///< one past the last recorded cycle
  std::size_t segments = 1; ///< kernel runs per batch
  std::vector<std::size_t> faults; ///< fault indices in pass order
};

struct WindowPlan {
  std::vector<PlannedWindow> windows;
  std::uint64_t batches = 0;
  std::uint64_t segments = 0;
  std::uint64_t cycles_budgeted = 0;
  /// Cycles stepped, known when no window is segmented: a segment exits
  /// early on mismatches that the verdicts alone do not show.
  std::optional<std::uint64_t> cycles_simulated;
};

/// Register depth of the netlist the compiled engine runs for `faults`
/// under the default pass pipeline (nullopt: register feedback).
inline std::optional<std::size_t>
compiled_register_depth(const gate::Netlist& nl,
                        std::span<const Fault> faults) {
  std::vector<gate::NetId> sites;
  sites.reserve(faults.size());
  for (const Fault& f : faults) sites.push_back(f.gate);
  const auto piped = gate::run_passes(nl, sites, gate::PassOptions{});
  return gate::CompiledSchedule(piped.netlist).register_depth();
}

/// The plan of a complete word-compare run whose verdicts are `detect`.
/// `depth` is the register depth of a resumable run, nullopt for one
/// that cannot resume (FullSweep, a cyclic netlist). `segments` and
/// `first_window` mirror fault::detail::PlanOverride (0 keeps the
/// default).
inline WindowPlan plan_windows(std::span<const std::int32_t> detect,
                               std::size_t fpb, std::size_t vectors,
                               std::optional<std::size_t> depth,
                               std::size_t segments = 0,
                               std::size_t first_window = 0) {
  WindowPlan plan;
  std::uint64_t cycles = 0;
  bool exact = true;
  // A run that records from t starts D cycles earlier (never before 0).
  auto resume = [&](std::size_t t) {
    return t - std::min(t, depth.value_or(0));
  };
  std::vector<std::size_t> live(detect.size());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
  std::size_t from = 0;
  std::size_t to = std::min(first_window != 0 ? first_window : 128, vectors);
  while (!live.empty()) {
    const std::size_t batches = (live.size() + fpb - 1) / fpb;
    const std::size_t span = to - from;
    std::size_t segs = 1;
    if (to == vectors && depth) {
      const std::size_t planned = std::max<std::size_t>(
          1, std::min((8 + batches - 1) / batches,
                      span / (32 * std::max<std::size_t>(*depth, 1))));
      segs = std::min(span, segments != 0 ? segments : planned);
    }
    plan.batches += batches;
    plan.segments += batches * segs;
    for (std::size_t base = 0; base < live.size(); base += fpb) {
      for (std::size_t k = 0; k < segs; ++k)
        plan.cycles_budgeted +=
            from + (k + 1) * span / segs - resume(from + k * span / segs);
      if (segs != 1) {
        exact = false;
        continue;
      }
      // A whole run stops after the last detection once every fault of
      // the batch is detected.
      std::size_t stop = 0;
      bool all = true;
      for (std::size_t p = base; p < std::min(base + fpb, live.size()); ++p) {
        const std::int32_t d = detect[live[p]];
        if (d < 0 || std::size_t(d) >= to)
          all = false;
        else
          stop = std::max(stop, std::size_t(d) + 1);
      }
      cycles += (all ? stop : to) - resume(from);
    }
    plan.windows.push_back({from, to, segs, live});
    if (to == vectors) break;

    std::vector<std::size_t> next;
    for (const std::size_t i : live)
      if (detect[i] < 0 || std::size_t(detect[i]) >= to) next.push_back(i);
    live = std::move(next);
    const std::size_t c = to;
    from = depth ? c : 0;
    to = depth && (live.size() + fpb - 1) / fpb >= 2
             ? std::min(vectors, 2 * c)
             : vectors;
  }
  if (exact) plan.cycles_simulated = cycles;
  return plan;
}

} // namespace fdbist::fault::testing
