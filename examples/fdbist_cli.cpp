// fdbist_cli — command-line driver over the whole library. Run it
// with no arguments for the synopsis (usage() below).
//
// <design> is any name from `fdbist_cli designs` (case-insensitive:
// LP, BP, HP, IIR4, DEC2, ...). Generators: lfsr1 lfsr2 lfsrd lfsrm
// ramp mixed — generated at the design's input width (the packed word
// for decimators). An unknown design or generator is a usage error
// (exit 2). The four run commands (faultsim, campaign, coordinate,
// worker) share one grammar and one flag parser (run_spec.hpp): a
// command's own flags are extra rows of the same table.
// --signature W routes verdicts through a width-W MISR difference
// register in the fault kernel (W in 2..31; the default primitive
// polynomial) and reports measured aliasing against the word-compare
// ground truth.
// --threads N shards fault simulation across N workers (0 = one per
// hardware thread, the default; 1 = single-threaded legacy path).
// Results are bit-identical for every N.
// spectra's [samples] must fill at least one Welch segment (256).
//
// --schedule-cache DIR keeps compiled-artifact (FDBA) files in DIR so
// repeat runs, campaign slices, and (re)spawned workers load the
// prepared schedule + good trace instead of recompiling; with no flag,
// FDBIST_SCHEDULE_CACHE supplies the directory, and --no-schedule-cache
// turns caching off even when the variable is set. Results are
// bit-identical with the cache on, off, cold, or warm; cache and
// preparation statistics print to stderr so the stdout coverage line
// stays diffable against an uncached run.
//
// `campaign` is `faultsim` with resilience: the `coordinate` runtime
// with zero workers. It splits the faults into --checkpoint-every-sized
// slices (default 1024) and saves each finished slice's verdicts as a
// file in the --checkpoint directory; a killed run restarted with
// --resume adopts the valid slice files and computes only the rest
// (final results bit-identical to an uninterrupted run). A slice file
// that is corrupt or was written by another design, stimulus, family,
// signature or slice size is deleted and recomputed, never merged.
// Without --resume this run's slice files are deleted first; without
// --checkpoint they live in a private temporary directory removed on
// exit. --deadline-s stops the engine gracefully at batch boundaries,
// reporting coverage-so-far over the finished slices.
//
// `coordinate` runs the same campaign distributed over --workers child
// processes (each `fdbist_cli worker`, spawned automatically on the
// same run), leasing --slice-faults-sized slices, retrying through
// crashes and hangs, and merging partial results into a final line
// byte-identical to `faultsim`. --dir holds the slice files; a re-run
// with the same --dir resumes from whatever survived. `worker` is the
// child half — it is spawned by `coordinate`, not typed by hand.
//
// `fuzz` runs the differential verification subsystem (src/verify/):
// replay the corpus, then `--cases` fresh random cases through every
// redundant evaluation path (RTL vs gate sim, Compiled vs FullSweep
// fault engines, sliced campaigns, property checkers). Failures are
// delta-debugged to minimal reproducers and written to --corpus.
// --mutate K injects a deliberate kernel mutation into every case (the
// oracle self-test: the run MUST end with findings and exit 4).
//
// Exit codes: 0 success, 1 runtime error, 2 bad usage, 4 fuzz
// discrepancy (the differential oracle found a mismatch). A campaign
// stopped before finishing reports *why* in its status: 3 cancellation,
// 5 deadline expiry, 6 worker loss (a slice exhausted its retry
// budget). All three still print coverage-so-far.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "analysis/compatibility.hpp"
#include "analysis/variance.hpp"
#include "bist/kit.hpp"
#include "common/subprocess.hpp"
#include "designs/registry.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "dsp/spectrum.hpp"
#include "fault/schedule_cache.hpp"
#include "gate/verilog.hpp"
#include "rtl/dot_export.hpp"
#include "run_spec.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"
#include "verify/fuzz.hpp"

namespace {

using namespace fdbist;
using cli::Flag;
using cli::kMaxVectors;
using cli::kUnbounded;
using Args = std::span<const std::string>;

/// argv[0] as invoked, for `coordinate` to respawn itself as workers.
const char* g_argv0 = "fdbist_cli";

/// A size flag no command line set.
constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  fdbist_cli designs\n"
      "  fdbist_cli [--threads N] design     <lowpass|highpass|bandpass> "
      "<taps> <f1> [f2]\n"
      "  fdbist_cli [--threads N] analyze    <design>\n"
      "  fdbist_cli [--threads N] faultsim   <run>\n"
      "  fdbist_cli [--threads N] campaign   <run> [--checkpoint DIR] "
      "[--checkpoint-every N]\n"
      "                                      [--resume] [--deadline-s S]\n"
      "  fdbist_cli [--threads N] coordinate <run> --dir DIR [--workers N] "
      "[--slice-faults N]\n"
      "                                      [--lease-ms N] "
      "[--max-attempts N] [--backoff-ms N]\n"
      "                                      [--backoff-cap-ms N] "
      "[--max-respawns N]\n"
      "                                      [--deadline-s S] "
      "[--worker-cmd PATH]\n"
      "  fdbist_cli [--threads N] worker     <run> --dir DIR --worker-id N\n"
      "  fdbist_cli [--threads N] spectra    <generator> [samples]\n"
      "  fdbist_cli [--threads N] export     <design> <verilog|dot>\n"
      "  fdbist_cli fuzz [--seed N] [--cases N] [--corpus DIR]\n"
      "                  [--minimize 0|1] [--mutate K] "
      "[--family <fir|iir|decimator>]\n"
      "<run>: <design> <generator> <vectors> [--signature W]\n"
      "       [--schedule-cache DIR | --no-schedule-cache]\n"
      "<design>: a registry name (`fdbist_cli designs` lists them), "
      "case-insensitive\n"
      "generators: lfsr1 lfsr2 lfsrd lfsrm ramp mixed (run at the "
      "design's input width)\n"
      "--signature W: compact responses in a width-W MISR (2..31) and "
      "report measured aliasing\n"
      "--threads N: fault-sim worker threads (0 = one per hardware "
      "thread; results identical for any N)\n"
      "--checkpoint DIR: campaign slice files (--checkpoint-every N "
      "faults each, default 1024)\n"
      "--schedule-cache DIR: reuse compiled schedules across slices, "
      "processes and runs\n"
      "            (env FDBIST_SCHEDULE_CACHE; --no-schedule-cache "
      "overrides; results identical)\n"
      "exit codes: 0 ok, 1 error, 2 usage, 4 fuzz discrepancy;\n"
      "            partial campaigns: 3 cancelled, 5 deadline exceeded, "
      "6 worker loss\n");
  return 2;
}

/// Cache + preparation observability. Printed to stderr so the stdout
/// coverage line stays byte-identical with and without a cache (the
/// warm-cache smoke test diffs stdout directly). `scope` says whose
/// work the counters cover when that is not the whole run.
void print_cache_stats(const fault::FaultSimStats& s,
                       const std::string& scope) {
  std::fprintf(stderr,
               "[cache] artifact hits mem %llu disk %llu, misses %llu, "
               "evictions %llu, load failures %llu, schedule compilations "
               "%llu%s\n",
               static_cast<unsigned long long>(s.artifact_mem_hits),
               static_cast<unsigned long long>(s.artifact_disk_hits),
               static_cast<unsigned long long>(s.artifact_misses),
               static_cast<unsigned long long>(s.artifact_evictions),
               static_cast<unsigned long long>(s.artifact_load_failures),
               static_cast<unsigned long long>(s.schedule_compilations),
               scope.c_str());
  std::fprintf(stderr,
               "[prep] passes %.2f ms, compile %.2f ms, trace %.2f ms, "
               "artifact load %.2f ms, build %.2f ms, save %.2f ms%s\n",
               s.prep_passes_ns / 1e6, s.prep_compile_ns / 1e6,
               s.prep_trace_ns / 1e6, s.prep_artifact_load_ns / 1e6,
               s.prep_artifact_build_ns / 1e6, s.prep_artifact_save_ns / 1e6,
               scope.c_str());
}

int cmd_design(Args a) {
  if (a.size() < 3) return usage();
  dsp::FirSpec spec;
  const bool taps = cli::store({"<taps>", 3, 4096, &spec.taps}, a[1]);
  const bool f1 = cli::store({"<f1>", 0.0, 0.5, &spec.f1}, a[2]);
  if (!taps || !f1) return usage();
  spec.kaiser_beta = 6.0;
  if (a[0] == "lowpass") {
    spec.kind = dsp::FilterKind::Lowpass;
  } else if (a[0] == "highpass") {
    spec.kind = dsp::FilterKind::Highpass;
  } else if (a[0] == "bandpass") {
    if (a.size() < 4 || !cli::store({"<f2>", 0.0, 0.5, &spec.f2}, a[3]))
      return usage();
    spec.kind = dsp::FilterKind::Bandpass;
  } else {
    return usage();
  }
  auto h = dsp::design_fir(spec);
  const double scale = 0.98 / dsp::l1_norm(h);
  for (double& v : h) v *= scale;
  const auto d = rtl::build_fir(h, {}, a[0]);
  const auto s = d.stats();
  std::printf("%s: %zu taps, %zu adders, %zu registers, widths "
              "%d/%d/%d\n",
              a[0].c_str(), spec.taps, s.adders, s.registers, s.width_in,
              s.width_coef, s.width_out);
  std::printf("recommended generator: %s\n",
              tpg::kind_name(analysis::recommend_generator(d)));
  return 0;
}

int cmd_designs() {
  for (const auto& e : designs::design_registry()) {
    const auto d = designs::make_design(e.name);
    const auto s = d.stats();
    char shape[32];
    if (d.family == rtl::DesignFamily::Fir)
      std::snprintf(shape, sizeof shape, "%zu taps", d.coefs.size());
    else if (d.family == rtl::DesignFamily::IirBiquad)
      std::snprintf(shape, sizeof shape, "%zu sections", d.sections);
    else
      std::snprintf(shape, sizeof shape, "%zu phases", d.sections);
    std::printf("%-6s %-20s %-12s widths %d/%d/%d, %3zu adders  %s\n",
                e.name.c_str(), rtl::family_name(d.family), shape,
                s.width_in, s.width_coef, s.width_out, s.adders,
                e.description.c_str());
  }
  return 0;
}

int cmd_analyze(Args a) {
  if (a.empty()) return usage();
  const auto name = cli::resolve_design(a[0]);
  if (!name) return usage();
  const auto d = designs::make_design(*name);
  std::printf("design %s: %zu adders\n", d.name.c_str(),
              d.stats().adders);
  const auto sigma = analysis::predict_sigma_lfsr1(d, 12);
  const auto problems = analysis::find_attenuation_problems(d, sigma);
  std::printf("LFSR-1 attenuation screen: %zu adders flagged\n",
              problems.size());
  for (std::size_t i = 0; i < problems.size() && i < 10; ++i)
    std::printf("  %-16s sigma/range %.4f -> ~%d hard upper bits\n",
                d.graph.node(problems[i].node).name.c_str(),
                problems[i].relative, problems[i].untestable_upper_bits);
  std::printf("recommendation: %s\n",
              tpg::kind_name(analysis::recommend_generator(d)));
  return 0;
}

/// Everything a run command builds from its RunSpec, once: the design,
/// its BIST kit (lowered netlist and ordered fault universe), the
/// stimulus, the schedule cache and the compute options.
struct Run {
  rtl::FilterDesign design; ///< the kit holds a reference to it
  bist::BistKit kit;
  std::unique_ptr<tpg::Generator> gen;
  std::vector<std::int64_t> stimulus;
  std::unique_ptr<fault::ScheduleCache> cache;
  dist::SliceComputeOptions opt;

  explicit Run(const cli::RunSpec& s)
      : design(designs::make_design(s.design)), kit(design) {
    gen = cli::make_generator(s.generator, s.vectors,
                              design.stats().width_in);
    gen->reset();
    stimulus = gen->generate_raw(s.vectors);
    // An explicit --schedule-cache DIR wins; otherwise
    // FDBIST_SCHEDULE_CACHE supplies the directory; --no-schedule-cache
    // turns caching off even when the variable is set.
    const std::string dir = s.no_cache ? ""
                            : s.cache_dir.empty()
                                ? fault::ScheduleCache::env_dir()
                                : s.cache_dir;
    if (!dir.empty())
      cache = std::make_unique<fault::ScheduleCache>(
          fault::ScheduleCache::Config{dir});
    opt.num_threads = s.threads;
    opt.family = static_cast<std::uint32_t>(design.family);
    if (s.signature != 0) {
      opt.signature.width = static_cast<int>(s.signature);
      opt.signature.taps =
          tpg::default_polynomial(opt.signature.width).low_terms;
    }
  }

  Run(const Run&) = delete; // kit would still point at the source's design

  const gate::Netlist& netlist() const { return kit.lowered().netlist; }
  std::span<const fault::Fault> faults() const { return kit.faults(); }

  /// The run's stdout, shared by faultsim, campaign and coordinate so
  /// the smoke tests can diff them directly: the coverage line, plus the
  /// measured aliasing of the compactor next to the paper's
  /// 2 + 64*N*2^-w expectation (DESIGN.md §13) when --signature is on.
  /// A run stopped early prints coverage-so-far instead, and its exit
  /// status says why.
  int report(const fault::FaultSimResult& r, std::optional<ErrorCode> stop,
             const std::string& cache_scope = "") const {
    if (cache != nullptr) print_cache_stats(r.stats, cache_scope);
    if (!r.complete) {
      std::printf("partial (%s): finalized %zu/%zu faults, coverage-so-far "
                  "%.3f%% (%zu detected)\n",
                  error_code_name(*stop), r.finalized_count(), r.total_faults,
                  100 * r.coverage(), r.detected);
      switch (*stop) {
      case ErrorCode::Cancelled: return 3;
      case ErrorCode::DeadlineExceeded: return 5;
      case ErrorCode::WorkerLost: return 6;
      default: return 1;
      }
    }
    std::printf("%s + %s, %zu vectors: coverage %.3f%% (%zu/%zu), "
                "missed %zu, golden signature %08X\n",
                design.name.c_str(), gen->name().c_str(),
                stimulus.size(), 100 * r.coverage(), r.detected,
                r.total_faults, r.missed(), kit.golden_signature(stimulus));
    const fault::SignatureOptions& sig = opt.signature;
    if (sig.enabled())
      std::printf("signature %d-bit (taps %03X): detected %zu/%zu, aliased "
                  "%zu (expected < %.2f)\n",
                  sig.width, sig.taps, r.signature_detected(), r.detected,
                  r.aliased(),
                  2.0 + 64.0 * double(r.detected) *
                            std::ldexp(1.0, -sig.width));
    return 0;
  }
};

int cmd_faultsim(Args args) {
  cli::RunSpec spec;
  if (!cli::parse_run(args, spec)) return usage();
  const Run run(spec);
  fault::FaultSimOptions opt = run.opt;
  const fault::FaultSimStats prep = fault::acquire_artifact(
      run.cache.get(), run.netlist(), run.stimulus, run.faults(), opt);
  auto r = fault::simulate_faults(run.netlist(), run.stimulus, run.faults(),
                                  opt);
  r.stats.merge(prep);
  return run.report(r, std::nullopt);
}

/// campaign and coordinate: run the slices through the coordinator,
/// log its summary to stderr, and report.
int distribute(const Run& run, dist::DistOptions& dopt,
               const std::function<void(const dist::DistResult&)>& summary) {
  dopt.compute = run.opt;
  dopt.schedule_cache = run.cache.get();
  auto res = dist::run_distributed(run.netlist(), run.stimulus, run.faults(),
                                   dopt);
  if (!res) {
    std::fprintf(stderr, "fdbist_cli: %s\n", res.error().to_string().c_str());
    return 1;
  }
  summary(*res);
  // Workers acquire their own artifacts and log their own counters; the
  // coordinator's cover only the slices it ran inline.
  std::string scope;
  if (dopt.num_workers > 0)
    scope = " (coordinator's inline slices: " +
            std::to_string(res->inline_slices) + " of " +
            std::to_string(res->slices) + "; workers log their own)";
  return run.report(res->sim, res->stop_reason, scope);
}

/// A temporary directory removed, with its contents, on scope exit.
struct PrivateDir {
  std::string path;
  ~PrivateDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

int cmd_campaign(Args args) {
  cli::RunSpec spec;
  dist::DistOptions dopt;
  dopt.num_workers = 0;
  dopt.slice_faults = 1024;
  dopt.verbose = false;
  bool resume = false;
  const Flag extra[] = {
      {"--checkpoint", 0, kUnbounded, &dopt.dir},
      {"--checkpoint-every", 1, kMaxVectors, &dopt.slice_faults},
      {"--resume", 0, 0, &resume},
      {"--deadline-s", 0, 1e9, &dopt.deadline_s},
  };
  if (!cli::parse_run(args, spec, extra)) return usage();
  if (resume && dopt.dir.empty()) {
    std::fprintf(stderr, "fdbist_cli: --resume requires --checkpoint\n");
    return usage();
  }
  const Run run(spec);
  if (isatty(fileno(stderr)) != 0) {
    dopt.progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r  [campaign] %3d%%",
                   total == 0 ? 100 : int(100 * done / total));
      if (done >= total) std::fprintf(stderr, "\n");
      std::fflush(stderr);
    };
  }

  // The slice directory: private and removed on exit without
  // --checkpoint; otherwise a fresh run drops this run's old slice
  // files (and nothing else in the directory) before starting.
  PrivateDir tmp_dir;
  if (dopt.dir.empty()) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "fdbist-campaign-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::fprintf(stderr, "fdbist_cli: cannot create a temporary slice "
                           "directory\n");
      return 1;
    }
    dopt.dir = tmp_dir.path = tmpl;
  } else if (!resume) {
    const std::size_t slices =
        (run.faults().size() + dopt.slice_faults - 1) / dopt.slice_faults;
    for (std::size_t s = 0; s < slices; ++s)
      std::remove(dist::partial_path(dopt.dir, s).c_str());
  }

  return distribute(run, dopt, [&](const dist::DistResult& res) {
    if (res.resumed_slices > 0)
      std::fprintf(stderr,
                   "resumed from %s: %zu slices already finalized, %zu run "
                   "now\n",
                   dopt.dir.c_str(), res.resumed_slices, res.inline_slices);
  });
}

int cmd_worker(Args args) {
  cli::RunSpec spec;
  dist::WorkerOptions wopt;
  wopt.worker_id = kUnset;
  const Flag extra[] = {
      {"--dir", 0, kUnbounded, &wopt.dir},
      {"--worker-id", 0, 1u << 20, &wopt.worker_id},
  };
  if (!cli::parse_run(args, spec, extra)) return usage();
  if (wopt.dir.empty() || wopt.worker_id == kUnset) {
    std::fprintf(stderr, "fdbist_cli: worker requires --dir and "
                         "--worker-id\n");
    return usage();
  }
  const Run run(spec);
  wopt.compute = run.opt;
  wopt.schedule_cache = run.cache.get();
  auto r = dist::run_worker(run.netlist(), run.stimulus, run.faults(), wopt);
  if (!r) {
    std::fprintf(stderr, "fdbist_cli: worker %zu: %s\n", wopt.worker_id,
                 r.error().to_string().c_str());
    return 1;
  }
  return 0;
}

// The coordinator's u64 millisecond fields are stored through the flag
// table's std::size_t targets.
static_assert(std::is_same_v<std::uint64_t, std::size_t>);

int cmd_coordinate(Args args) {
  cli::RunSpec spec;
  dist::DistOptions dopt;
  std::string worker_cmd;
  const Flag extra[] = {
      {"--dir", 0, kUnbounded, &dopt.dir},
      {"--workers", 0, 256, &dopt.num_workers},
      {"--slice-faults", 1, kMaxVectors, &dopt.slice_faults},
      {"--lease-ms", 1, 1u << 30, &dopt.lease_ms},
      {"--max-attempts", 1, 1u << 20, &dopt.max_slice_attempts},
      {"--backoff-ms", 0, 1u << 30, &dopt.backoff_base_ms},
      {"--backoff-cap-ms", 0, 1u << 30, &dopt.backoff_cap_ms},
      {"--max-respawns", 0, 1u << 20, &dopt.max_respawns},
      {"--deadline-s", 0, 1e9, &dopt.deadline_s},
      {"--worker-cmd", 0, kUnbounded, &worker_cmd},
  };
  if (!cli::parse_run(args, spec, extra)) return usage();
  if (dopt.dir.empty()) {
    std::fprintf(stderr, "fdbist_cli: coordinate requires --dir\n");
    return usage();
  }
  const Run run(spec);

  // Workers are this very binary re-invoked in `worker` mode on the same
  // run at one thread each; the coordinator appends the slot index after
  // the trailing --worker-id. The resolved cache decision is passed on
  // explicitly: a shared directory lets every worker (and every respawn)
  // load the coordinator-era FDBA file instead of recompiling, and a
  // cache that is off here stays off even when the children's
  // environment sets FDBIST_SCHEDULE_CACHE. --workers 0 skips processes
  // entirely (every slice runs inline).
  if (dopt.num_workers > 0) {
    cli::RunSpec w = spec;
    w.threads = 1;
    w.cache_dir = run.cache != nullptr ? run.cache->config().dir : "";
    w.no_cache = run.cache == nullptr;
    dopt.worker_argv = cli::to_argv(w, "worker");
    dopt.worker_argv.insert(dopt.worker_argv.begin(),
                            worker_cmd.empty()
                                ? common::self_exe_path(g_argv0)
                                : worker_cmd);
    dopt.worker_argv.insert(dopt.worker_argv.end(),
                            {"--dir", dopt.dir, "--worker-id"});
  }

  return distribute(run, dopt, [](const dist::DistResult& res) {
    std::fprintf(stderr,
                 "[coord] %zu slices (%zu resumed, %zu inline), %zu workers "
                 "spawned, %zu lost, %zu leases expired, %zu reassignments, "
                 "%zu partials rejected\n",
                 res.slices, res.resumed_slices, res.inline_slices,
                 res.workers_spawned, res.workers_lost, res.leases_expired,
                 res.slices_reassigned, res.partials_rejected);
  });
}

int cmd_fuzz(Args a) {
  verify::FuzzOptions fopt;
  std::size_t minimize = 1;
  std::size_t mutate = kUnset;
  std::string family;
  const Flag rows[] = {
      {"--seed", 0, kUnbounded, &fopt.seed},
      {"--cases", 1, 1u << 24, &fopt.cases},
      {"--corpus", 0, kUnbounded, &fopt.corpus_dir},
      {"--minimize", 0, 1, &minimize},
      {"--mutate", 0, 1u << 20, &mutate},
      {"--family", 1, kUnbounded, &family},
  };
  if (!cli::parse_flags(a, rows, "fuzz")) return usage();
  fopt.minimize = minimize != 0;
  if (mutate != kUnset) fopt.mutate = static_cast<std::int32_t>(mutate);
  if (!family.empty()) {
    rtl::DesignFamily fam;
    if (!rtl::parse_design_family(family.c_str(), fam)) {
      std::fprintf(stderr,
                   "fdbist_cli: unknown family \"%s\" (fir, iir, "
                   "decimator)\n",
                   family.c_str());
      return usage();
    }
    fopt.family = static_cast<std::int32_t>(fam);
  }
  if (isatty(fileno(stderr)) != 0) {
    fopt.progress = [](std::size_t done, std::size_t total) {
      if (done % 64 == 0 || done == total) {
        std::fprintf(stderr, "\r  [fuzz] %zu/%zu cases", done, total);
        if (done == total) std::fprintf(stderr, "\n");
        std::fflush(stderr);
      }
    };
  }

  const auto report = verify::run_fuzz(fopt);
  std::printf("fuzz: seed %llu, %zu cases, %zu corpus replayed, "
              "%zu findings, %zu io errors\n",
              static_cast<unsigned long long>(fopt.seed), report.cases_run,
              report.corpus_replayed, report.findings.size(),
              report.io_errors.size());
  for (const std::string& e : report.io_errors)
    std::printf("  io: %s\n", e.c_str());
  for (const auto& f : report.findings) {
    std::printf("  [%s%s] %s\n", verify::case_kind_name(f.kind),
                f.from_corpus ? ", corpus" : "", f.detail.c_str());
    if (f.case_seed != 0)
      std::printf("    case seed %llu\n",
                  static_cast<unsigned long long>(f.case_seed));
    if (f.minimized_logic_gates > 0)
      std::printf("    minimized to %zu logic gates (%zu oracle calls)\n",
                  f.minimized_logic_gates,
                  f.minimize_stats.predicate_calls);
    if (!f.corpus_path.empty())
      std::printf("    reproducer: %s\n", f.corpus_path.c_str());
  }
  if (!report.findings.empty()) return 4;
  return report.io_errors.empty() ? 0 : 1;
}

int cmd_spectra(Args a) {
  if (a.empty()) return usage();
  dsp::WelchOptions opt;
  std::size_t samples = std::size_t{1} << 14;
  // The floor is one Welch segment: welch_psd needs a whole one.
  if (a.size() > 1 &&
      !cli::store({"[samples]", double(opt.segment), double(1 << 24),
                   &samples},
                  a[1]))
    return usage();
  auto gen = cli::make_generator(a[0], samples, 12);
  if (!gen) return usage();
  const auto x = gen->generate_real(samples);
  const auto psd = dsp::welch_psd(x, opt);
  const auto db = dsp::to_db(psd);
  const auto f = dsp::welch_frequencies(opt);
  for (std::size_t k = 0; k < psd.size(); k += 4)
    std::printf("%.4f %8.2f\n", f[k], db[k]);
  return 0;
}

int cmd_export(Args a) {
  if (a.size() < 2) return usage();
  const auto name = cli::resolve_design(a[0]);
  if (!name) return usage();
  const auto d = designs::make_design(*name);
  if (a[1] == "verilog") {
    const auto low = gate::lower(d.graph);
    gate::VerilogOptions opt;
    opt.module_name = "fdbist_" + d.name;
    gate::write_verilog(std::cout, low.netlist, opt);
    return 0;
  }
  if (a[1] == "dot") {
    rtl::write_dot(std::cout, d.graph, {d.name, true});
    return 0;
  }
  return usage();
}

} // namespace

int main(int argc, char** argv) {
  if (argc >= 1 && argv[0] != nullptr) g_argv0 = argv[0];
  const std::vector<std::string> args(argv + std::min(argc, 1), argv + argc);
  // The global --threads flag is checked here for every command; the
  // run commands read it again into their RunSpec.
  std::size_t threads = 0;
  const auto at = cli::command_index(args, threads);
  if (!at) return usage();
  const std::string& cmd = args[*at];
  const Args rest = Args(args).subspan(*at + 1);
  try {
    if (cmd == "designs") return cmd_designs();
    if (cmd == "design") return cmd_design(rest);
    if (cmd == "analyze") return cmd_analyze(rest);
    if (cmd == "faultsim") return cmd_faultsim(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "coordinate") return cmd_coordinate(args);
    if (cmd == "worker") return cmd_worker(args);
    if (cmd == "spectra") return cmd_spectra(rest);
    if (cmd == "export") return cmd_export(rest);
    if (cmd == "fuzz") return cmd_fuzz(rest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
