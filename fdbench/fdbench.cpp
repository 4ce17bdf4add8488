// fdbist benchmark.
//
//   fdbench --workload <table4_1t|table6_mt|sliced_signature>
//                  --seed N --seconds S --trace <0|1> [--work-dir DIR]
//
// Runs one workload as a closed loop of iterations for S seconds, checks
// every cell's verdicts, and prints one line per metric followed by a
// final JSON result line. --trace 0 reports the end-to-end metrics;
// --trace 1 also runs traced iterations that time each public library
// call and reports the per-layer metrics instead. fdbench/README.md
// describes the workloads and metrics.
//
// The benchmark is also its own distributed-campaign worker:
//
//   fdbench --dist-worker --seed N --dir DIR --schedule-cache DIR
//                  --worker-id K
//
// rebuilds the sliced_signature universe at the given seed and serves
// slices through dist::run_worker, so seeded stimulus reaches workers.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/compatibility.hpp"
#include "bist/kit.hpp"
#include "common/fingerprint.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/subprocess.hpp"
#include "designs/registry.hpp"
#include "dist/coordinator.hpp"
#include "dist/partial.hpp"
#include "dist/worker.hpp"
#include "fault/fault.hpp"
#include "fault/schedule_cache.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/passes/pass.hpp"
#include "gate/schedule.hpp"
#include "gate/sim.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"

#include "reference.hpp"
#include "spans.hpp"

namespace fdbench {
namespace {

using namespace fdbist;
namespace fs = std::filesystem;

constexpr std::size_t kTable4Vectors = 4096;
constexpr std::size_t kTable6Vectors = 8192;
constexpr std::size_t kSlicedVectors = 4096;
constexpr std::size_t kSliceFaults = 4096;
constexpr int kSignatureWidth = 16;
constexpr std::uint64_t kDefaultSeed = 1;
/// Stand-alone set-ups after every iteration: at least kMinSetupReps,
/// and as many as fit in kSetupShare of the iteration's time. Set-up
/// times jitter from one repetition to the next on a shared host, so
/// setup_s is the median of many samples spread over the run, even when
/// the run fits only a few iterations.
constexpr int kMinSetupReps = 2;
constexpr double kSetupShare = 0.1;

constexpr std::array<const char*, 3> kTable4Designs = {"LP", "BP", "HP"};
constexpr std::array kTable4Kinds = {
    tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD,
    tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp};
constexpr std::array<const char*, 5> kTable6Designs = {"LP", "BP", "HP",
                                                       "IIR4", "DEC2"};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string argv0;
  // --dist-worker mode
  bool dist_worker = false;
  std::string dist_dir;
  std::string cache_dir;
  std::size_t worker_id = 0;
};

std::size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::size_t(std::max(1, CPU_COUNT(&set)));
  return 1;
}

/// Benchmark seed -> LFSR seed: a nonzero state of a `width`-bit
/// register, with seed 1 mapping to 1 (the paper's stimulus).
std::uint32_t lfsr_seed(std::uint64_t seed, int width) {
  const std::uint64_t period = (std::uint64_t{1} << width) - 1;
  return static_cast<std::uint32_t>(1 + (seed + period - 1) % period);
}

/// Peak resident set of this process in KiB (VmHWM). Unlike getrusage's
/// ru_maxrss it starts afresh at exec, so it never includes the memory
/// of the process that forked this one.
double peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (std::string_view(line).starts_with("VmHWM:"))
      return std::strtod(line.c_str() + 6, nullptr);
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Reset VmHWM to the current resident set, so the next peak_rss_kib()
/// reads the peak since this call.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset VmHWM via clear_refs");
}

fault::SignatureOptions signature_options() {
  fault::SignatureOptions sig;
  sig.width = kSignatureWidth;
  sig.taps = tpg::default_polynomial(kSignatureWidth).low_terms;
  return sig;
}

// ---------------------------------------------------------------------
// Verdicts

/// FNV-1a over the little-endian bytes of every detect cycle.
std::uint64_t detect_hash(const std::vector<std::int32_t>& cycles) {
  std::uint64_t h = common::kFnvSeed;
  for (const std::int32_t c : cycles) {
    const auto u = static_cast<std::uint32_t>(c);
    const std::uint8_t b[4] = {std::uint8_t(u), std::uint8_t(u >> 8),
                               std::uint8_t(u >> 16), std::uint8_t(u >> 24)};
    h = common::fnv1a(h, b, sizeof b);
  }
  return h;
}

Verdict verdict_of(const fault::FaultSimResult& r) {
  Verdict v;
  v.missed = r.missed();
  v.detect_hash = detect_hash(r.detect_cycle);
  v.signature_detected = r.signature_detected();
  v.aliased = r.aliased();
  return v;
}

struct CellResult {
  std::string name;
  Verdict verdict;
  std::string error; ///< non-empty when the cell errored
};

/// Per-run verdict reference. At the default seed it starts from the
/// pinned table; at any other seed the first verdict seen for a cell
/// (untraced or traced) becomes the reference every later one must
/// match bit for bit.
class VerdictBook {
public:
  explicit VerdictBook(bool pinned) : pinned_(pinned) {
    if (pinned)
      for (const PinnedVerdict& p : pinned_verdicts()) ref_[p.cell] = p.v;
  }

  bool check(const CellResult& c) {
    if (!c.error.empty()) {
      std::fprintf(stderr, "fdbench: cell %s failed: %s\n", c.name.c_str(),
                   c.error.c_str());
      return false;
    }
    const auto it = ref_.find(c.name);
    if (it == ref_.end()) {
      if (pinned_) {
        std::fprintf(stderr, "fdbench: cell %s has no pinned verdict\n",
                     c.name.c_str());
        return false;
      }
      ref_.emplace(c.name, c.verdict);
      return true;
    }
    if (it->second == c.verdict) return true;
    const Verdict& w = it->second;
    std::fprintf(stderr,
                 "fdbench: cell %s verdict mismatch: got {%zu, %016" PRIx64
                 ", %08" PRIx32 ", %zu, %zu}, want {%zu, %016" PRIx64
                 ", %08" PRIx32 ", %zu, %zu}\n",
                 c.name.c_str(), c.verdict.missed, c.verdict.detect_hash,
                 c.verdict.golden_signature, c.verdict.signature_detected,
                 c.verdict.aliased, w.missed, w.detect_hash,
                 w.golden_signature, w.signature_detected, w.aliased);
    return false;
  }

private:
  bool pinned_;
  std::map<std::string, Verdict> ref_;
};

/// The Table 3 ratings of the standard five generators on LP/BP/HP
/// (EXPERIMENTS.md), G '+', M '±', P '-'.
bool table3_matches(const std::vector<analysis::CompatibilityRow>& rows) {
  static const std::array<const char*, 5> kExpected = {"PGG", "MGG", "GGG",
                                                       "GGG", "GPP"};
  if (rows.size() != kExpected.size()) return false;
  for (std::size_t g = 0; g < rows.size(); ++g) {
    if (rows[g].per_design.size() != 3) return false;
    for (std::size_t d = 0; d < 3; ++d) {
      const analysis::Compatibility c = rows[g].per_design[d].rating;
      const char got = c == analysis::Compatibility::Good       ? 'G'
                       : c == analysis::Compatibility::Marginal ? 'M'
                                                                : 'P';
      if (got != kExpected[g][d]) return false;
    }
  }
  return true;
}

bool same_result(const fault::FaultSimResult& a,
                 const fault::FaultSimResult& b) {
  return a.complete && b.complete && a.detect_cycle == b.detect_cycle &&
         a.signature_detect == b.signature_detect;
}

// ---------------------------------------------------------------------
// Set-up

/// One design's set-up state, held by pointer (BistKit keeps a
/// reference to the design).
struct Prepared {
  rtl::FilterDesign design;
  std::unique_ptr<bist::BistKit> kit;

  const gate::Netlist& netlist() const { return kit->lowered().netlist; }
  std::span<const fault::Fault> faults() const { return kit->faults(); }
  int width_in() const { return design.stats().width_in; }
};

/// Design build, lowering and fault enumeration. Untraced, BistKit does
/// the last two; traced, each goes through its own public call first
/// and the kit (which repeats them) is timed under bist.kit, a span no
/// metric reports.
std::unique_ptr<Prepared> prepare(const std::string& name, Tracer* tr) {
  auto p = std::make_unique<Prepared>();
  {
    Scope s(tr, "designs.build");
    p->design = designs::make_design(name);
  }
  if (tr != nullptr) {
    gate::LoweredDesign lowered;
    {
      Scope s(tr, "gate.lower");
      lowered = gate::lower(p->design.graph);
    }
    std::size_t faults = 0;
    {
      Scope s(tr, "fault.enumerate");
      faults = fault::order_for_simulation(
                   fault::enumerate_adder_faults(lowered), lowered.netlist,
                   p->design.graph)
                   .size();
    }
    Scope s(tr, "bist.kit");
    p->kit = std::make_unique<bist::BistKit>(p->design);
    FDBIST_REQUIRE(p->kit->faults().size() == faults,
                   "fault enumeration disagrees with BistKit");
  } else {
    p->kit = std::make_unique<bist::BistKit>(p->design);
  }
  return p;
}

struct Setup {
  std::vector<std::unique_ptr<Prepared>> designs;
  std::vector<std::int64_t> stimulus; ///< sliced_signature only
};

// ---------------------------------------------------------------------
// Iterations

/// What one closed-loop pass over a workload produced.
struct Iteration {
  double wall_s = 0;
  double setup_s = 0;
  double fault_vectors = 0; ///< sum over cells of faults x vectors
  std::vector<CellResult> cells;
  /// Failed checks that belong to no single cell (Table 3 ratings,
  /// cross-path agreement of the traced extras).
  std::vector<std::string> check_errors;
  /// Summed peak resident KiB of the iteration's worker processes.
  double workers_peak_kib = 0;
  /// Traced iterations: per-layer self times ("<span>_s") and counters.
  std::map<std::string, double> layers;
};

template <typename Fn>
CellResult guarded_cell(const std::string& name, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return CellResult{name, {}, e.what()};
  }
}

void add_counters(std::map<std::string, double>& l,
                  const fault::FaultSimStats& s) {
  l["fault.batches"] += double(s.batches);
  l["fault.cycles_simulated"] += double(s.cycles_simulated);
  l["fault.cycles_budgeted"] += double(s.cycles_budgeted);
  l["fault.gates_evaluated"] += double(s.gates_evaluated);
  l["fault.good_trace_cycles"] += double(s.good_trace_cycles);
}

/// The preparation simulate_faults runs internally, one public call per
/// layer: pass pipeline, schedule compilation, good trace over the full
/// stimulus.
void time_prep_layers(Tracer* tr, const Prepared& p,
                      std::span<const std::int64_t> stimulus) {
  std::vector<gate::NetId> sites;
  sites.reserve(p.faults().size());
  for (const fault::Fault& f : p.faults()) sites.push_back(f.gate);
  std::optional<gate::PassPipelineResult> pipe;
  {
    Scope s(tr, "gate.passes");
    pipe.emplace(gate::run_passes(p.netlist(), sites, gate::PassOptions{}));
  }
  std::optional<gate::CompiledSchedule> sched;
  {
    Scope s(tr, "gate.compile");
    sched.emplace(pipe->netlist);
  }
  Scope s(tr, "gate.trace");
  (void)gate::record_good_trace(*sched, stimulus, stimulus.size());
}

/// One word-compare cell (table4_1t, table6_mt). Untraced it is
/// BistKit::evaluate. Traced, evaluate's steps go call by call, followed
/// by the extra layer calls: prep layers, artifact build, the kernel on
/// that artifact, and the kernel at 1 thread when the workload is
/// threaded. Every traced result must agree bit for bit.
CellResult word_compare_cell(Tracer* tr, int cell, const Prepared& p,
                             tpg::Generator& gen, std::size_t vectors,
                             std::size_t threads, Iteration& it) {
  fault::FaultSimOptions opt;
  opt.num_threads = threads;
  CellResult c{p.design.name + "/" + gen.name(), {}, {}};
  if (tr == nullptr) {
    const bist::BistReport rep = p.kit->evaluate(gen, vectors, opt);
    c.verdict = verdict_of(rep.fault_result);
    c.verdict.golden_signature = rep.golden_signature;
    return c;
  }

  Scope cs(tr, "cell", cell);
  gen.reset();
  std::vector<std::int64_t> stimulus;
  {
    Scope s(tr, "tpg.generate", cell);
    stimulus = gen.generate_raw(vectors);
  }
  fault::FaultSimResult r;
  {
    Scope s(tr, "fault.simulate", cell);
    r = fault::simulate_faults(p.netlist(), stimulus, p.faults(), opt);
  }
  c.verdict = verdict_of(r);
  {
    Scope s(tr, "bist.signature", cell);
    c.verdict.golden_signature = p.kit->golden_signature(stimulus);
  }
  time_prep_layers(tr, p, stimulus);
  {
    Scope s(tr, "schedule_cache.build", cell);
    opt.artifact = fault::build_artifact(p.netlist(), stimulus, p.faults(),
                                         gate::PassOptions{});
  }
  fault::FaultSimResult k;
  {
    Scope s(tr, "fault.kernel", cell);
    k = fault::simulate_faults(p.netlist(), stimulus, p.faults(), opt);
  }
  bool agree = same_result(r, k);
  if (threads > 1) {
    opt.num_threads = 1;
    fault::FaultSimResult k1;
    {
      Scope s(tr, "fault.kernel_1t", cell);
      k1 = fault::simulate_faults(p.netlist(), stimulus, p.faults(), opt);
    }
    agree = agree && same_result(r, k1);
  }
  if (!agree)
    c.error = "simulate_faults, artifact kernel and 1-thread kernel disagree";
  add_counters(it.layers, r.stats);
  it.layers["fault.kernel_gates_evaluated"] += double(k.stats.gates_evaluated);
  return c;
}

Setup setup_designs(std::span<const char* const> names, Tracer* tr) {
  Setup s;
  for (const char* n : names) s.designs.push_back(prepare(n, tr));
  return s;
}

Setup table4_setup(const Options&, Tracer* tr) {
  return setup_designs(kTable4Designs, tr);
}

void table4_body(const Options& o, Setup& s, Tracer* tr, Iteration& it) {
  std::vector<rtl::FilterDesign> designs;
  for (const auto& p : s.designs) designs.push_back(p->design);
  {
    Scope sc(tr, "analysis.compat");
    if (!table3_matches(analysis::compatibility_matrix(designs)))
      it.check_errors.push_back("Table 3 ratings differ from EXPERIMENTS.md");
  }
  int cell = 0;
  for (const auto& p : s.designs) {
    for (const tpg::GeneratorKind kind : kTable4Kinds) {
      auto gen = tpg::make_generator(kind, p->width_in(),
                                     lfsr_seed(o.seed, p->width_in()));
      it.cells.push_back(
          guarded_cell(p->design.name + "/" + gen->name(), [&] {
            return word_compare_cell(tr, cell, *p, *gen, kTable4Vectors, 1,
                                     it);
          }));
      it.fault_vectors += double(p->faults().size() * kTable4Vectors);
      ++cell;
    }
  }
}

std::size_t table6_threads() { return std::min<std::size_t>(4, nproc()); }

Setup table6_setup(const Options&, Tracer* tr) {
  return setup_designs(kTable6Designs, tr);
}

void table6_body(const Options& o, Setup& s, Tracer* tr, Iteration& it) {
  int cell = 0;
  for (const auto& p : s.designs) {
    tpg::SwitchedLfsr gen(p->width_in(), kTable6Vectors / 2,
                          lfsr_seed(o.seed, p->width_in()));
    it.cells.push_back(guarded_cell(p->design.name + "/" + gen.name(), [&] {
      return word_compare_cell(tr, cell, *p, gen, kTable6Vectors,
                               table6_threads(), it);
    }));
    it.fault_vectors += double(p->faults().size() * kTable6Vectors);
    ++cell;
  }
}

// --- sliced_signature ------------------------------------------------

fault::ScheduleCache::Config cache_config(std::string dir) {
  fault::ScheduleCache::Config cfg;
  cfg.dir = std::move(dir);
  return cfg;
}

std::size_t sliced_workers() { return std::min<std::size_t>(2, nproc()); }

/// LP x LFSR-D x 4096, the sliced workload's universe. Shared by the
/// coordinator side and the --dist-worker processes.
Setup sliced_setup(const Options& o, Tracer* tr) {
  Setup s;
  s.designs.push_back(prepare("LP", tr));
  const Prepared& p = *s.designs.front();
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, p.width_in(),
                                 lfsr_seed(o.seed, p.width_in()));
  Scope sc(tr, "tpg.generate");
  s.stimulus = gen->generate_raw(kSlicedVectors);
  return s;
}

/// Load, validate and merge every partial a finished run left in `dir`.
fault::FaultSimResult merge_partials(const std::string& dir, const Prepared& p,
                                     std::span<const std::int64_t> stimulus,
                                     const dist::UniverseFp& fp) {
  const std::size_t total = p.faults().size();
  fault::FaultSimResult m;
  m.total_faults = total;
  m.vectors = stimulus.size();
  m.detect_cycle.assign(total, -1);
  m.finalized.assign(total, 0);
  m.signature_detect.assign(total, 0);
  auto must = [](auto&& e) {
    if (!e) throw std::runtime_error(e.error().to_string());
    return std::forward<decltype(e)>(e);
  };
  for (std::size_t slice = 0, lo = 0; lo < total; ++slice, lo += kSliceFaults) {
    const auto part = must(dist::load_partial(dist::partial_path(dir, slice)));
    must(dist::validate_partial(*part, fp, total, stimulus.size(), lo,
                                std::min(kSliceFaults, total - lo),
                                signature_options()));
    must(dist::merge_partial(m, *part));
  }
  must(m.require_complete());
  return m;
}

/// Sum over worker slots of the largest peak a process in that slot
/// reported (a respawned worker shares its slot with the one it
/// replaced; the slots run concurrently).
double workers_peak_kib(const fs::path& dir) {
  std::map<std::string, double> per_slot;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string n = e.path().filename().string();
    if (!n.starts_with("worker-") || !n.ends_with(".rss")) continue;
    double kib = 0;
    std::ifstream(e.path()) >> kib;
    double& slot = per_slot[n.substr(0, n.find('-', 7))];
    slot = std::max(slot, kib);
  }
  double sum = 0;
  for (const auto& [slot, kib] : per_slot) sum += kib;
  return sum;
}

void sliced_body(const Options& o, Setup& s, Tracer* tr, Iteration& it) {
  static int iteration = 0;
  const Prepared& p = *s.designs.front();
  const fs::path dir = fs::path(o.work_dir) /
                       ("run-" + std::to_string(::getpid())) /
                       ("iter-" + std::to_string(iteration++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  fault::ScheduleCache cache(cache_config((dir / "cache").string()));

  dist::DistOptions dopt;
  dopt.slice_faults = kSliceFaults;
  dopt.compute.num_threads = 1;
  dopt.compute.family = static_cast<std::uint32_t>(p.design.family);
  dopt.compute.signature = signature_options();
  dopt.schedule_cache = &cache;
  dopt.verbose = false;
  const dist::UniverseFp fp = dist::fingerprint_universe(
      p.netlist(), s.stimulus, p.faults(), dopt.compute.family);

  std::optional<fault::FaultSimResult> inline_result;
  auto run = [&](int cell, const char* mode, std::size_t workers) {
    const std::string name = std::string("LP/LFSR-D/") + mode;
    it.cells.push_back(guarded_cell(name, [&] {
      Scope cs(tr, "cell", cell);
      dopt.dir = (dir / mode).string();
      dopt.num_workers = workers;
      dopt.worker_argv.clear();
      if (workers > 0)
        dopt.worker_argv = {common::self_exe_path(o.argv0.c_str()),
                            "--dist-worker",
                            "--seed",
                            std::to_string(o.seed),
                            "--dir",
                            dopt.dir,
                            "--schedule-cache",
                            cache.config().dir,
                            "--worker-id"};
      std::optional<Expected<dist::DistResult>> res;
      {
        Scope sc(tr, workers > 0 ? "dist.workers" : "dist.inline", cell);
        res.emplace(dist::run_distributed(p.netlist(), s.stimulus,
                                          p.faults(), dopt));
      }
      if (!*res) throw std::runtime_error((*res).error().to_string());
      const dist::DistResult& d = **res;
      if (!d.sim.complete || d.stop_reason)
        throw std::runtime_error("distributed run stopped early");
      if (tr != nullptr) {
        std::optional<fault::FaultSimResult> merged;
        {
          Scope sc(tr, "dist.merge", cell);
          merged.emplace(merge_partials(dopt.dir, p, s.stimulus, fp));
        }
        if (!same_result(*merged, d.sim))
          throw std::runtime_error("merged partials differ from the run");
        it.layers["dist.workers_spawned"] += double(d.workers_spawned);
        it.layers["dist.slices_reassigned"] += double(d.slices_reassigned);
        it.layers["dist.partials_rejected"] += double(d.partials_rejected);
      }
      if (workers == 0) inline_result = d.sim;
      else it.workers_peak_kib = workers_peak_kib(dopt.dir);
      return CellResult{name, verdict_of(d.sim), {}};
    }));
    it.fault_vectors += double(p.faults().size() * kSlicedVectors);
  };
  run(0, "inline", 0);
  run(1, "workers", sliced_workers());

  if (tr != nullptr && inline_result) {
    // The layers the sliced runs call internally, one public call each.
    time_prep_layers(tr, p, s.stimulus);
    std::shared_ptr<const fault::CompiledArtifact> art;
    {
      Scope sc(tr, "schedule_cache.build");
      art = fault::build_artifact(p.netlist(), s.stimulus, p.faults(),
                                  gate::PassOptions{});
    }
    const std::string path = (dir / "artifact.fdba").string();
    {
      Scope sc(tr, "schedule_cache.save");
      if (auto r = fault::save_artifact(path, *art); !r)
        it.check_errors.push_back(r.error().to_string());
    }
    fault::FaultSimOptions opt;
    opt.num_threads = 1;
    opt.signature = signature_options();
    {
      Scope sc(tr, "schedule_cache.load");
      auto loaded = fault::load_artifact(path, art->key);
      if (loaded) opt.artifact = *loaded;
      else it.check_errors.push_back(loaded.error().to_string());
    }
    it.layers["schedule_cache.artifact_mb"] +=
        double(fs::file_size(path)) / (1024.0 * 1024.0);
    fault::FaultSimResult r;
    fault::FaultSimResult k;
    {
      Scope sc(tr, "fault.kernel");
      k = fault::simulate_faults(p.netlist(), s.stimulus, p.faults(), opt);
    }
    opt.artifact.reset();
    {
      Scope sc(tr, "fault.simulate");
      r = fault::simulate_faults(p.netlist(), s.stimulus, p.faults(), opt);
    }
    if (!same_result(r, *inline_result) || !same_result(k, *inline_result))
      it.check_errors.push_back(
          "unsliced simulate_faults differs from the sliced runs");
    add_counters(it.layers, r.stats);
    it.layers["fault.kernel_gates_evaluated"] +=
        double(k.stats.gates_evaluated);
  }
  fs::remove_all(dir);
}

int dist_worker_main(const Options& o) {
  const Setup s = sliced_setup(o, nullptr);
  const Prepared& p = *s.designs.front();
  fault::ScheduleCache cache(cache_config(o.cache_dir));
  dist::WorkerOptions wopt;
  wopt.worker_id = o.worker_id;
  wopt.dir = o.dist_dir;
  wopt.compute.num_threads = 1;
  wopt.compute.family = static_cast<std::uint32_t>(p.design.family);
  wopt.compute.signature = signature_options();
  wopt.schedule_cache = &cache;
  auto r = dist::run_worker(p.netlist(), s.stimulus, p.faults(), wopt);
  if (!r) {
    std::fprintf(stderr, "fdbench worker %zu: %s\n", o.worker_id,
                 r.error().to_string().c_str());
    return 1;
  }
  // Report this process's peak memory to the coordinating process, which
  // waits for every worker to exit before run_distributed returns.
  std::ofstream(fs::path(o.dist_dir) /
                ("worker-" + std::to_string(o.worker_id) + "-" +
                 std::to_string(::getpid()) + ".rss"))
      << peak_rss_kib() << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// Run loop and metrics

struct Workload {
  const char* name;
  Setup (*setup)(const Options&, Tracer*);
  void (*body)(const Options&, Setup&, Tracer*, Iteration&);
  std::size_t (*threads)();
  std::size_t (*workers)();
};

std::size_t one() { return 1; }
std::size_t none() { return 0; }

const std::array<Workload, 3> kWorkloads = {{
    {"table4_1t", table4_setup, table4_body, one, none},
    {"table6_mt", table6_setup, table6_body, table6_threads, none},
    {"sliced_signature", sliced_setup, sliced_body, one, sliced_workers},
}};

Iteration run_iteration(const Workload& w, const Options& o, Tracer* tr) {
  Iteration it;
  const std::size_t first_span = tr != nullptr ? tr->spans.size() : 0;
  const double t0 = now_s();
  {
    Scope sc(tr, "iteration");
    Setup s = w.setup(o, tr);
    it.setup_s = now_s() - t0;
    w.body(o, s, tr, it);
  }
  it.wall_s = now_s() - t0;
  if (tr != nullptr)
    for (const auto& [name, self] : tr->self_times(first_span))
      it.layers[name + "_s"] += self;
  return it;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Speedup of a pure spin loop at `threads` over one thread: what the
/// host actually delivers, to read parallel.speedup against. Median of
/// five probes.
double spin_speedup(std::size_t threads) {
  if (threads <= 1) return 1.0;
  static std::atomic<std::uint64_t> sink{0};
  auto probe = [](std::size_t n) {
    const double t0 = now_s();
    common::run_workers(n, [](std::size_t w) {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL + w;
      for (int i = 0; i < 40'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
    return now_s() - t0;
  };
  std::vector<double> s;
  for (int rep = 0; rep < 5; ++rep)
    s.push_back(double(threads) * probe(1) / probe(threads));
  return median(s);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer metrics from the traced iterations (medians of each
/// iteration's sums) plus derived ratios.
std::vector<Metric> layer_metrics(const Workload& w,
                                  const std::vector<Iteration>& traced,
                                  double untraced_wall, double spin,
                                  std::size_t cells_failed) {
  auto med = [&](const std::string& key) {
    std::vector<double> v;
    for (const Iteration& it : traced) {
      const auto f = it.layers.find(key);
      v.push_back(f == it.layers.end() ? 0.0 : f->second);
    }
    return median(v);
  };
  std::vector<Metric> m;
  for (const char* span :
       {"designs.build", "gate.lower", "fault.enumerate", "tpg.generate",
        "analysis.compat", "gate.passes", "gate.compile", "gate.trace",
        "fault.simulate", "fault.kernel", "bist.signature",
        "schedule_cache.build", "schedule_cache.save", "schedule_cache.load",
        "dist.inline", "dist.workers", "dist.merge"})
    m.push_back({std::string(span) + "_s", med(std::string(span) + "_s"), "s"});
  for (const char* counter :
       {"fault.good_trace_cycles", "fault.batches", "fault.cycles_simulated",
        "fault.cycles_budgeted", "fault.gates_evaluated",
        "dist.workers_spawned", "dist.slices_reassigned",
        "dist.partials_rejected"})
    m.push_back({counter, med(counter), "count"});

  const double budgeted = med("fault.cycles_budgeted");
  m.push_back({"fault.cycle_yield",
               budgeted > 0 ? med("fault.cycles_simulated") / budgeted : 0,
               "ratio"});
  const double kernel = med("fault.kernel_s");
  const double kgates = med("fault.kernel_gates_evaluated");
  m.push_back({"fault.ns_per_gate_eval", kgates > 0 ? kernel * 1e9 / kgates : 0,
               "ns"});
  const double speedup =
      w.threads() > 1 && kernel > 0 ? med("fault.kernel_1t_s") / kernel : 1.0;
  m.push_back({"parallel.speedup", speedup, "x"});
  m.push_back({"calib.spin_speedup", spin, "x"});
  m.push_back({"parallel.efficiency", spin > 0 ? speedup / spin : 0, "ratio"});
  m.push_back({"schedule_cache.artifact_mb", med("schedule_cache.artifact_mb"),
               "MiB"});
  std::vector<double> traced_wall;
  for (const Iteration& it : traced) traced_wall.push_back(it.wall_s);
  m.push_back({"trace.overhead_s", median(traced_wall) - untraced_wall, "s"});
  m.push_back({"cells_failed", double(cells_failed), "count"});
  return m;
}

int run(const Options& o) {
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (o.workload == c.name) w = &c;
  if (w == nullptr) {
    std::fprintf(stderr, "fdbench: unknown workload \"%s\"\n",
                 o.workload.c_str());
    return 2;
  }
  common::ignore_sigpipe();
  VerdictBook book(o.seed == kDefaultSeed);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t check_errors = 0;
  auto account = [&](const Iteration& it) {
    for (const CellResult& c : it.cells) {
      ++attempted;
      if (!book.check(c)) ++failed;
    }
    for (const std::string& e : it.check_errors)
      std::fprintf(stderr, "fdbench: check failed: %s\n", e.c_str());
    check_errors += it.check_errors.size();
  };

  // One discarded set-up warms allocator and caches.
  (void)w->setup(o, nullptr);

  // Untraced iterations measure the e2e metrics; a traced run splits
  // its budget between them (for trace.overhead_s) and traced ones.
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> throughput;
  std::vector<double> rss_kib;
  for (const double t0 = now_s(); wall.empty() || now_s() - t0 < budget;) {
    reset_peak_rss();
    const Iteration it = run_iteration(*w, o, nullptr);
    rss_kib.push_back(peak_rss_kib() + it.workers_peak_kib);
    if (wall.empty())
      for (const CellResult& c : it.cells)
        std::printf("cell %s missed %zu hash %016" PRIx64 " golden %08" PRIx32
                    " signature_detected %zu aliased %zu\n",
                    c.name.c_str(), c.verdict.missed, c.verdict.detect_hash,
                    c.verdict.golden_signature, c.verdict.signature_detected,
                    c.verdict.aliased);
    account(it);
    wall.push_back(it.wall_s);
    setup.push_back(it.setup_s);
    throughput.push_back(it.fault_vectors / (it.wall_s - it.setup_s));
    const double until = now_s() + kSetupShare * it.wall_s;
    for (int rep = 0; rep < kMinSetupReps || now_s() < until; ++rep) {
      const double s0 = now_s();
      (void)w->setup(o, nullptr);
      setup.push_back(now_s() - s0);
    }
  }
  const double spin =
      w->threads() > 1 ? spin_speedup(w->threads()) : 1.0;

  std::vector<Iteration> traced;
  Tracer tracer;
  if (o.trace) {
    for (const double t0 = now_s(); traced.empty() || now_s() - t0 < budget;) {
      traced.push_back(run_iteration(*w, o, &tracer));
      account(traced.back());
    }
  }

  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = layer_metrics(*w, traced, median(wall), spin, failed);
    const fs::path out = fs::path(o.work_dir) / "traces";
    fs::create_directories(out);
    const std::string path =
        (out / (o.workload + "-seed" + std::to_string(o.seed) + ".json"))
            .string();
    if (!tracer.write_chrome_trace(path))
      std::fprintf(stderr, "fdbench: cannot write %s\n", path.c_str());
    else
      std::printf("trace %s (%zu spans)\n", path.c_str(), tracer.spans.size());
  } else {
    metrics = {{"wall_s", median(wall), "s"},
               {"setup_s", median(setup), "s"},
               {"fault_vectors_per_s", median(throughput), "1/s"},
               {"peak_rss_mb", median(rss_kib) / 1024, "MiB"}};
  }

  std::printf("workload %s seed %" PRIu64 " iterations %zu traced %zu "
              "threads %zu workers %zu\n",
              o.workload.c_str(), o.seed, wall.size(), traced.size(),
              w->threads(), w->workers());
  std::printf("iteration wall_s");
  for (const double v : wall) std::printf(" %.4f", v);
  std::printf("\niteration peak_rss_mb");
  for (const double v : rss_kib) std::printf(" %.2f", v / 1024);
  std::printf("\nsetup samples_s");
  for (const double v : setup) std::printf(" %.4f", v);
  std::printf("\n");
  if (!o.trace && w->threads() > 1)
    std::printf("calib.spin_speedup %.4f x\n", spin);
  std::printf("cells_failed %zu count (of %zu attempted)\n", failed,
              attempted);
  for (const Metric& m : metrics)
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit);

  const bool correct = failed == 0 && check_errors == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  fs::remove_all(fs::path(o.work_dir) / ("run-" + std::to_string(::getpid())));
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: fdbench --workload <table4_1t|table6_mt|"
               "sliced_signature> --seed N --seconds S --trace <0|1> "
               "[--work-dir DIR]\n"
               "       fdbench --dist-worker --seed N --dir DIR "
               "--schedule-cache DIR --worker-id K\n");
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  o.argv0 = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--dist-worker") {
      o.dist_worker = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* v = argv[++i];
    auto size = [&](const char* what, std::size_t lo, std::size_t hi) {
      auto r = common::parse_size(v, what, lo, hi);
      if (!r) std::fprintf(stderr, "fdbench: %s\n", r.error().to_string().c_str());
      return r ? std::optional<std::size_t>(*r) : std::nullopt;
    };
    std::optional<std::size_t> n;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      if (!(n = size("--seed", 0, SIZE_MAX))) return std::nullopt;
      o.seed = *n;
    } else if (a == "--seconds") {
      if (!(n = size("--seconds", 1, 3600))) return std::nullopt;
      o.seconds = double(*n);
    } else if (a == "--trace") {
      if (!(n = size("--trace", 0, 1))) return std::nullopt;
      o.trace = *n == 1;
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--dir") {
      o.dist_dir = v;
    } else if (a == "--schedule-cache") {
      o.cache_dir = v;
    } else if (a == "--worker-id") {
      if (!(n = size("--worker-id", 0, 1u << 20))) return std::nullopt;
      o.worker_id = *n;
    } else {
      return std::nullopt;
    }
  }
  if (o.dist_worker ? o.dist_dir.empty() : o.workload.empty())
    return std::nullopt;
  return o;
}

} // namespace
} // namespace fdbench

int main(int argc, char** argv) {
  const auto o = fdbench::parse(argc, argv);
  if (!o) return fdbench::usage();
  try {
    return o->dist_worker ? fdbench::dist_worker_main(*o) : fdbench::run(*o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdbench: %s\n", e.what());
    return 1;
  }
}
