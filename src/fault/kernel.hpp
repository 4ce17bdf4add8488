// Width-dispatched batch kernels for the fault simulator.
//
// The batch loop in fault/simulator.cpp is width-agnostic: it talks to
// an abstract BatchWorker whose concrete instantiation fixes the
// simulation word (common/simd.hpp). One virtual call per *batch* —
// hundreds of simulated cycles — so the dispatch cost is noise while
// the gate-evaluation inner loops compile as non-virtual, fully inlined
// code inside exactly one translation unit per ISA:
//
//   kernel.cpp        simd_word<1>,  64 lanes,  baseline flags
//   kernel_avx2.cpp   simd_word<4>, 256 lanes,  -mavx2
//   kernel_avx512.cpp simd_word<8>, 512 lanes,  -mavx512f
//
// Confining each wide instantiation to its own TU (and keeping the
// shared std:: template instantiations out of the ISA TUs via the
// helpers below) is what makes it safe to build the AVX-512 kernel into
// a binary that must still run on machines without AVX-512: no COMDAT
// the linker could resolve to an ISA-tainted copy is emitted there.
//
// Backend resolution (per simulate_faults call): an explicit non-Auto
// request wins, then the FDBIST_SIMD environment override, then the
// widest backend that is both compiled in and supported by the CPU.
// An unavailable request degrades to the best available backend rather
// than failing — verdicts are bit-identical at every width, so the
// choice is purely a throughput matter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/simd.hpp"
#include "fault/simulator.hpp"
#include "gate/schedule.hpp"
#include "gate/sim.hpp"

namespace fdbist::fault::detail {

/// The cycles one kernel run covers: it steps cycles [start, end) and
/// records detections only in [record, end). A run from reset is
/// {0, 0, end}: every cycle recorded. A run past reset — a later window
/// of repacked survivors, or a time segment of one — loads its in-cone
/// registers with the good machine's state from GoodTrace row `start`,
/// broadcast to every lane, and warms up for record - start cycles. Its
/// detections are exact once that warm-up reaches the netlist's register
/// depth (gate::CompiledSchedule::register_depth); a shorter one may
/// miss or delay a detection.
struct Window {
  std::size_t start = 0;
  std::size_t record = 0;
  std::size_t end = 0;
};

/// Per-worker batch executor. One instance per worker thread; the
/// compiled schedule is shared read-only.
class BatchWorker {
public:
  virtual ~BatchWorker() = default;

  /// One batch of `batch.size()` faults (at most lanes-1) over
  /// `window`. Writes the first recorded detection cycle of the fault at
  /// batch position k to detect[k] (entries of undetected faults are
  /// left alone) and returns how many faults it detected. `trace`
  /// selects the engine: non-null runs the cone-restricted compiled
  /// sweep, null the full-netlist reference sweep, which only runs
  /// windows from reset. `full_sweep_gates` is the logic-gate count of
  /// the *unoptimized* netlist, so gate_eval_savings stays comparable
  /// across pass configurations. When `sig.enabled()` (and
  /// `signature_detect` non-null), the batch also runs a bit-sliced
  /// difference MISR per lane — the window must then be a whole batch,
  /// and early exit is suppressed so every lane absorbs the full budget
  /// — and sets signature_detect[i] for faults i whose final signature
  /// differs from the good machine's.
  virtual std::size_t run_batch(std::span<const Fault> faults,
                                std::span<const std::int64_t> stimulus,
                                std::span<const std::size_t> batch,
                                const Window& window,
                                const gate::GoodTrace* trace,
                                std::uint64_t full_sweep_gates,
                                std::int32_t* detect,
                                const SignatureOptions& sig,
                                std::uint8_t* signature_detect) = 0;

  FaultSimStats stats;
};

/// Factory + geometry for one backend.
class BatchKernel {
public:
  virtual ~BatchKernel() = default;
  virtual std::size_t lanes() const = 0;
  virtual common::SimdBackend backend() const = 0;
  virtual std::unique_ptr<BatchWorker>
  make_worker(const gate::CompiledSchedule& sched) const = 0;

  /// Lane 0 is the good machine.
  std::size_t faults_per_batch() const { return lanes() - 1; }
};

/// True when the backend's kernel TU was compiled into this binary.
bool kernel_available(common::SimdBackend b);

/// Resolve a request (possibly Auto) to a concrete backend that is
/// compiled in and CPU-supported. Never returns Auto.
common::SimdBackend resolve_simd_backend(common::SimdBackend requested);

/// Kernel for a resolved backend (degrades to the best available one
/// if the request cannot run here).
const BatchKernel& batch_kernel(common::SimdBackend resolved);

/// Overrides of the window schedule's constants (simulate_faults); 0
/// keeps the default. Verdicts are bit-identical for every value — a
/// fault's detect cycle never depends on how faults are staged into
/// windows, batches or segments — so tests and the differential oracle
/// use these to pin plans the defaults would not choose on their
/// inputs.
struct PlanOverride {
  /// Time segments per batch of a segmentable final window (at most one
  /// per cycle of the window) instead of the planner's count. Windows
  /// the planner never segments — non-final, signature, FullSweep, or a
  /// cyclic netlist — stay whole at any value.
  std::size_t segments = 0;
  /// Length of window 0 instead of 128 cycles.
  std::size_t first_window = 0;
  /// Faults per batch, capped at the backend's lanes - 1: small batches
  /// let a few dozen faults span the several batches repacking needs.
  std::size_t batch_faults = 0;
};

/// simulate_faults under a PlanOverride.
FaultSimResult simulate_faults_planned(const gate::Netlist& nl,
                                       std::span<const std::int64_t> stimulus,
                                       std::span<const Fault> faults,
                                       const FaultSimOptions& opt,
                                       const PlanOverride& plan);

// --- helpers compiled with baseline flags (kernel.cpp), so the ISA TUs
// --- never instantiate shared std::vector machinery themselves.

/// sites = the batch's fault gates (cone roots), in batch order.
void collect_batch_sites(std::span<const Fault> faults,
                         std::span<const std::size_t> batch,
                         std::vector<gate::NetId>& sites);

/// The output-to-MISR wiring: every output bit o is folded (XORed) into
/// MISR bit o mod width, so a MISR narrower than the output word still
/// observes every response bit — without folding, a fault visible only
/// in the truncated upper bits would alias unconditionally, and the
/// measured aliasing could never honor the 2 + 64*N*2^-w expectation.
/// The result is laid out as width rows of ceil(out_w/width) fold
/// entries: sig_nets[b*folds + j] = output bit b + j*width, or
/// gate::kNoNet where no such bit exists. With a cone (compiled
/// engine), out-of-cone output nets provably hold the good value —
/// their difference is identically zero — and also map to gate::kNoNet.
void collect_signature_nets(const gate::Netlist& nl,
                            const SignatureOptions& sig,
                            const gate::CompiledSchedule::Cone* cone,
                            std::vector<gate::NetId>& sig_nets);

/// Scan nonzero difference-signature lane words: batch member k whose
/// lane k+1 is set gets signature_detect[batch[k]] = 1.
void mark_signature_detects(std::span<const std::size_t> batch,
                            const std::uint64_t* nonzero_words,
                            std::uint8_t* signature_detect);

// Defined in the per-ISA TUs; null accessors exist only behind the
// FDBIST_KERNEL_* macros CMake sets when the flags are available.
const BatchKernel* scalar_batch_kernel();
#if defined(FDBIST_KERNEL_AVX2)
const BatchKernel* avx2_batch_kernel();
#endif
#if defined(FDBIST_KERNEL_AVX512)
const BatchKernel* avx512_batch_kernel();
#endif

} // namespace fdbist::fault::detail
