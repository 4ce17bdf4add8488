// The coordinator of a sliced fault-simulation campaign.
//
// run_distributed partitions the fault universe into contiguous slices,
// leases them to a pool of worker processes (dist/worker.hpp) over the
// line protocol (dist/protocol.hpp), validates and merges each slice's
// partial-result file through the audited FaultSimResult::merge, and
// returns a result bit-identical to a single-process run — for any
// worker count, any crash schedule, and any interleaving of retries.
//
// With zero workers every slice runs inline in the calling process:
// that mode IS the checkpointed campaign (`fdbist_cli campaign`, the
// bench sweeps). Each finished slice's partial file is its checkpoint,
// and a rerun over the same directory adopts the valid files and
// computes only the missing slices.
//
// Failure policy, in one place:
//
//   worker exits / pipe EOF      slice released (backoff), worker slot
//                                respawned while the respawn budget
//                                lasts
//   lease expires (hung worker)  owner SIGKILLed, slice released
//   FAIL message                 slice released; the worker stays
//   corrupt/foreign partial      file deleted, slice released
//   malformed protocol line      worker SIGKILLed, slice released
//   slice exhausts its attempts  campaign stops, stop_reason WorkerLost
//   no spawnable workers left    coordinator completes remaining slices
//                                inline (graceful degradation down to
//                                zero workers)
//   cancel token / deadline      workers SIGKILLed, stop_reason
//                                Cancelled or DeadlineExceeded; the
//                                result holds the finished slices only
//                                (a slice cut short writes no file and
//                                is recomputed by a later run)
//
// Pre-existing valid partial files in the scratch directory are merged
// up-front, so a restarted coordinator — or one handed another
// coordinator's scratch directory — resumes rather than recomputes. A
// file that fails to load or validate (corrupt, or written by another
// universe, family, signature configuration or slice geometry) is
// deleted and its slice recomputed; it is never merged.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dist/partial.hpp"

namespace fdbist::dist {

struct DistOptions {
  /// Command that execs one worker; the coordinator appends the worker
  /// slot index as the final argument (so end it with a flag that
  /// consumes it, e.g. {..., "--worker-id"}). Empty = run every slice
  /// inline in the coordinator (the zero-worker degenerate mode).
  std::vector<std::string> worker_argv;
  std::size_t num_workers = 4;

  /// Directory for the slice partial-result files; created if missing.
  /// Must be shared with the workers.
  std::string dir;

  /// Faults per slice (the unit of distribution and retry).
  std::size_t slice_faults = 4096;

  /// A worker must report progress on its slice at least this often or
  /// it is declared hung, SIGKILLed, and the slice reassigned. Also the
  /// grace period for a spawned worker's HELLO.
  std::uint64_t lease_ms = 10'000;

  /// Total acquisitions a slice may burn (first try + retries) before
  /// the campaign gives up with WorkerLost.
  std::size_t max_slice_attempts = 5;

  /// Exponential-backoff schedule for re-queuing a failed slice:
  /// base * 2^retries + deterministic jitter, capped. See
  /// dist/queue.hpp.
  std::uint64_t backoff_base_ms = 50;
  std::uint64_t backoff_cap_ms = 2'000;

  /// Worker process spawns allowed beyond the initial num_workers;
  /// once spent, dead slots stay dead and the coordinator degrades —
  /// ultimately to inline completion.
  std::size_t max_respawns = 16;

  /// Wall-clock budget for the whole campaign; 0 = unlimited.
  double deadline_s = 0;

  /// Caller-owned kill switch (must outlive the call); may be null.
  const common::CancelToken* cancel = nullptr;

  /// Called with (faults merged so far, total faults) after every slice
  /// folds in. Monotonic; slice-granular (not per-batch).
  std::function<void(std::size_t, std::size_t)> progress;

  /// Compute configuration for inline slices (and the template the CLI
  /// mirrors into its workers). `cancel`/`progress` inside are ignored
  /// — the coordinator supplies its own.
  SliceComputeOptions compute;

  /// Optional schedule cache for inline slices (caller-owned, must
  /// outlive the call): the coordinator acquires the campaign's
  /// compiled artifact once, on the first slice it runs inline, instead
  /// of re-preparing per slice, and folds the cache stats (plus the
  /// artifact's one pass-pipeline run on a miss) into the result.
  /// Workers bring their own cache (the CLI forwards --schedule-cache
  /// to worker argv).
  fault::ScheduleCache* schedule_cache = nullptr;

  /// Log coordinator events ("[coord] ...") to stderr.
  bool verbose = true;
};

struct DistResult {
  /// Merged verdicts; bit-identical to a single-process run when
  /// complete. stats covers the artifact acquisition and the slices the
  /// coordinator ran inline — partial files deliberately carry
  /// verdicts, not engine counters.
  fault::FaultSimResult sim;
  std::size_t slices = 0;
  /// Slices merged from partial files found before any work started.
  std::size_t resumed_slices = 0;
  std::size_t workers_spawned = 0;
  /// Worker deaths observed (exit, kill, EOF) while owning a slice or
  /// before HELLO.
  std::size_t workers_lost = 0;
  std::size_t leases_expired = 0;
  /// Slice attempts that ended in a release (death, FAIL, bad partial).
  std::size_t slices_reassigned = 0;
  /// DONE reports whose partial failed validation (corrupt or foreign).
  std::size_t partials_rejected = 0;
  std::size_t inline_slices = 0;
  /// Why the run stopped early: Cancelled, DeadlineExceeded, or
  /// WorkerLost (a slice exhausted max_slice_attempts). nullopt when
  /// every slice merged.
  std::optional<ErrorCode> stop_reason;
};

/// Run one campaign. Errors are reserved for environmental failures
/// around the coordinator itself (scratch dir unusable, merge audit
/// violation — a bug); cancellation, deadline, and worker exhaustion
/// come back as a valid partial DistResult with stop_reason set.
Expected<DistResult> run_distributed(const gate::Netlist& nl,
                                     std::span<const std::int64_t> stimulus,
                                     std::span<const fault::Fault> faults,
                                     const DistOptions& opt);

} // namespace fdbist::dist
