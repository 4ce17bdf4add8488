// The worker half of a distributed campaign: a child process that
// receives slice assignments over stdin, fault-simulates each slice,
// persists its partial-result file, and reports over stdout.
//
// A worker is deliberately stateless between slices — every durable
// fact lives in the scratch directory as finished slices' partial
// files, so a SIGKILL at any instant loses at most the slice in flight,
// which the coordinator reassigns. stdout carries only protocol
// lines (dist/protocol.hpp); diagnostics go to stderr prefixed with
// the worker id.
//
// Failpoints hosted in the worker loop (and ONLY here — the
// coordinator's inline path never evaluates them, which is what makes
// inline completion the escape hatch from a poisoned worker binary):
//   worker-crash-mid-slice  evaluated at the first progress report of
//                           each slice; arm with crash@N to let a
//                           worker finish N-1 slices and die mid-way
//                           through the next
//   slow-worker             evaluated when a slice is accepted; arm
//                           with sleep:N past the lease to simulate a
//                           hang (the coordinator must expire the
//                           lease and reassign)
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/error.hpp"
#include "dist/partial.hpp"

namespace fdbist::dist {

struct WorkerOptions {
  /// Identity echoed in HELLO and stderr logs.
  std::size_t worker_id = 0;
  /// Campaign scratch directory (shared with the coordinator).
  std::string dir;
  /// Per-slice compute configuration. `cancel` and `progress` inside
  /// are the worker's own; progress reporting to the coordinator is
  /// layered on top.
  SliceComputeOptions compute;
  /// Minimum milliseconds between PROGRESS heartbeats (the final
  /// report of a slice is never suppressed). Keep well under the
  /// coordinator's lease.
  std::uint64_t heartbeat_ms = 200;

  /// Optional schedule cache (caller-owned, must outlive the call).
  /// When set and compute.artifact is empty, the worker acquires the
  /// campaign's compiled artifact ONCE before entering the command loop
  /// — a respawned worker pointed at an on-disk cache loads the FDBA
  /// file instead of recompiling — and every slice it computes shares
  /// that one handle.
  fault::ScheduleCache* schedule_cache = nullptr;
};

/// Run the worker protocol loop over stdin/stdout until EXIT or EOF.
/// Slice failures are reported as FAIL lines and the loop continues —
/// the returned error is reserved for the worker's own environment
/// breaking (stdout gone, malformed command line from the
/// coordinator).
Expected<void> run_worker(const gate::Netlist& nl,
                          std::span<const std::int64_t> stimulus,
                          std::span<const fault::Fault> faults,
                          const WorkerOptions& opt);

} // namespace fdbist::dist
