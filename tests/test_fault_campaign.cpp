// Checkpointed, cancellable fault-sim campaigns: the zero-worker mode
// of dist::run_distributed, where each finished slice's partial file is
// the checkpoint. Resume must be bit-identical to an uninterrupted run
// (for any thread count, engine, SIMD width and interruption point), an
// unusable slice file must be deleted and recomputed — never merged —
// and cancellation/deadlines must yield valid partial results without
// hanging the pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <signal.h>

#include "common/failpoint.hpp"
#include "dist/coordinator.hpp"
#include "gate/lower.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"

namespace fdbist::fault {
namespace {

using dist::DistOptions;
using dist::DistResult;

struct Fixture {
  rtl::FilterDesign design;
  gate::LoweredDesign low;
  std::vector<Fault> faults;
  std::vector<std::int64_t> stim;
};

// Small enough for fast tests, big enough that a campaign with
// 64-fault slices spans several slices.
const Fixture& fixture() {
  static const Fixture f = [] {
    auto d = rtl::build_fir(
        {0.27, -0.19, 0.13, 0.094, -0.071, 0.052, -0.038, 0.024}, {},
        "camp8");
    auto low = gate::lower(d.graph);
    auto faults = order_for_simulation(enumerate_adder_faults(low),
                                       low.netlist, d.graph);
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
    auto stim = gen->generate_raw(256);
    return Fixture{std::move(d), std::move(low), std::move(faults),
                   std::move(stim)};
  }();
  return f;
}

// A second design/stimulus pair for foreign-slice-file tests.
const Fixture& other_fixture() {
  static const Fixture f = [] {
    auto d = rtl::build_fir({0.31, -0.22, 0.11, 0.05}, {}, "camp4");
    auto low = gate::lower(d.graph);
    auto faults = order_for_simulation(enumerate_adder_faults(low),
                                       low.netlist, d.graph);
    auto gen = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
    auto stim = gen->generate_raw(256);
    return Fixture{std::move(d), std::move(low), std::move(faults),
                   std::move(stim)};
  }();
  return f;
}

constexpr std::size_t kSlice = 64;

std::size_t slice_count() {
  return (fixture().faults.size() + kSlice - 1) / kSlice;
}

/// Fresh per-test scratch directory (no slice file exists yet).
class CampaignTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_campaign_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name = "slices") const {
    return (dir_ / name).string();
  }

private:
  std::filesystem::path dir_;
};

/// A zero-worker campaign over `dir` in 64-fault slices.
DistOptions campaign(const std::string& dir, std::size_t threads = 1) {
  DistOptions opt;
  opt.num_workers = 0;
  opt.dir = dir;
  opt.slice_faults = kSlice;
  opt.compute.num_threads = threads;
  opt.verbose = false;
  return opt;
}

Expected<DistResult> run(const DistOptions& opt,
                         const Fixture& f = fixture()) {
  return dist::run_distributed(f.low.netlist, f.stim, f.faults, opt);
}

FaultSimResult uninterrupted() {
  FaultSimOptions opt;
  opt.num_threads = 1;
  return simulate_faults(fixture().low.netlist, fixture().stim,
                         fixture().faults, opt);
}

void expect_bit_identical(const FaultSimResult& r) {
  const auto oracle = uninterrupted();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.detected, oracle.detected);
  EXPECT_EQ(r.total_faults, oracle.total_faults);
  ASSERT_EQ(r.detect_cycle.size(), oracle.detect_cycle.size());
  for (std::size_t i = 0; i < r.detect_cycle.size(); ++i)
    ASSERT_EQ(r.detect_cycle[i], oracle.detect_cycle[i]) << "fault " << i;
}

/// Cancel the campaign from DistOptions::progress once `slices` slices
/// have been saved.
void cancel_after(DistOptions& opt, common::CancelToken& token,
                  std::size_t slices) {
  opt.cancel = &token;
  opt.progress = [&token, slices, calls = std::size_t{0}](
                     std::size_t, std::size_t) mutable {
    if (++calls >= slices) token.cancel();
  };
}

/// Rerun over a directory holding one damaged slice file: the file is
/// deleted and that slice alone recomputed.
void expect_one_slice_recomputed(const std::string& dir) {
  auto r = run(campaign(dir));
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_slices, slice_count() - 1);
  EXPECT_EQ(r->inline_slices, 1u);
  expect_bit_identical(r->sim);
}

TEST_F(CampaignTest, FixtureSpansSeveralSlices) {
  ASSERT_GT(fixture().faults.size(), std::size_t{4} * kSlice)
      << "fixture too small to exercise slicing";
}

TEST_F(CampaignTest, CompleteCampaignMatchesPlainEngine) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string dir = path(("t" + std::to_string(threads)).c_str());
    auto r = run(campaign(dir, threads));
    ASSERT_TRUE(r) << r.error().to_string();
    expect_bit_identical(r->sim);
    EXPECT_EQ(r->slices, slice_count());
    EXPECT_EQ(r->inline_slices, slice_count());
    EXPECT_FALSE(r->stop_reason.has_value());
    for (std::size_t s = 0; s < slice_count(); ++s)
      EXPECT_TRUE(std::filesystem::exists(dist::partial_path(dir, s))) << s;
  }
}

// The slice files are the checkpoint: loading them back reproduces the
// campaign's verdicts exactly.
TEST_F(CampaignTest, CheckpointRoundTrips) {
  auto r = run(campaign(path()));
  ASSERT_TRUE(r) << r.error().to_string();
  const Fixture& fx = fixture();
  const auto fp =
      dist::fingerprint_universe(fx.low.netlist, fx.stim, fx.faults);
  FaultSimResult restored;
  restored.total_faults = fx.faults.size();
  restored.vectors = fx.stim.size();
  restored.detect_cycle.assign(fx.faults.size(), -1);
  restored.finalized.assign(fx.faults.size(), 0);
  for (std::size_t s = 0; s < slice_count(); ++s) {
    const std::size_t lo = s * kSlice;
    const std::size_t count = std::min(kSlice, fx.faults.size() - lo);
    auto p = dist::load_partial(dist::partial_path(path(), s));
    ASSERT_TRUE(p) << p.error().to_string();
    ASSERT_TRUE(dist::validate_partial(*p, fp, fx.faults.size(),
                                       fx.stim.size(), lo, count));
    ASSERT_TRUE(dist::merge_partial(restored, *p));
  }
  ASSERT_TRUE(restored.require_complete());
  EXPECT_EQ(restored.detect_cycle, r->sim.detect_cycle);
  EXPECT_EQ(restored.detected, r->sim.detected);
}

// The core robustness guarantee: cancel a campaign after k slices
// (simulating a kill), then rerun over the same directory — the final
// result must be bit-identical to an uninterrupted run, single- and
// multi-threaded, and exactly the k saved slices are adopted.
TEST_F(CampaignTest, ResumeEqualsUninterruptedAtEveryCutPoint) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t cut : {std::size_t{1}, std::size_t{2},
                                  std::size_t{5}}) {
      const std::string dir =
          path(("cut" + std::to_string(threads) + "_" + std::to_string(cut))
                   .c_str());

      common::CancelToken token;
      DistOptions opt = campaign(dir, threads);
      cancel_after(opt, token, cut);
      auto first = run(opt);
      ASSERT_TRUE(first) << first.error().to_string();
      ASSERT_FALSE(first->sim.complete)
          << "cut " << cut << " did not interrupt the campaign";
      EXPECT_EQ(first->stop_reason, ErrorCode::Cancelled);
      EXPECT_EQ(first->inline_slices, cut);
      // Coverage-so-far counts finished slices only.
      EXPECT_EQ(first->sim.finalized_count(), cut * kSlice);

      auto resumed = run(campaign(dir, threads));
      ASSERT_TRUE(resumed) << resumed.error().to_string();
      EXPECT_EQ(resumed->resumed_slices, cut)
          << "resume must pick up exactly the saved slices";
      EXPECT_EQ(resumed->inline_slices, slice_count() - cut);
      expect_bit_identical(resumed->sim);
    }
  }
}

// Verdicts are pure functions of (netlist, stimulus, fault) — neither
// the engine nor the SIMD backend is part of a slice file's identity —
// so a campaign cut short under one configuration and resumed under
// another must merge to the bit-identical uninterrupted result.
TEST_F(CampaignTest, ResumeUnderADifferentEngineIsBitIdentical) {
  using Engine = FaultSimEngine;
  using Simd = common::SimdBackend;
  struct Leg {
    Engine engine;
    Simd simd;
  };
  int n = 0;
  for (const auto& [first_leg, resume_leg] :
       {std::pair{Leg{Engine::FullSweep, Simd::Auto},
                  Leg{Engine::Compiled, Simd::Auto}},
        std::pair{Leg{Engine::Compiled, Simd::Auto},
                  Leg{Engine::FullSweep, Simd::Auto}},
        std::pair{Leg{Engine::FullSweep, Simd::Auto},
                  Leg{Engine::Auto, Simd::Auto}},
        std::pair{Leg{Engine::Compiled, Simd::Scalar},
                  Leg{Engine::Compiled, Simd::Auto}}}) {
    const std::string dir = path(("mixed" + std::to_string(n++)).c_str());

    common::CancelToken token;
    DistOptions opt = campaign(dir);
    opt.compute.engine = first_leg.engine;
    opt.compute.simd = first_leg.simd;
    cancel_after(opt, token, 2);
    auto first = run(opt);
    ASSERT_TRUE(first) << first.error().to_string();
    ASSERT_FALSE(first->sim.complete);
    EXPECT_EQ(first->sim.stats.engine, first_leg.engine == Engine::Auto
                                           ? Engine::Compiled
                                           : first_leg.engine);
    if (first_leg.simd == Simd::Scalar) {
      EXPECT_EQ(first->sim.stats.lane_width, 64u);
    }

    DistOptions resume_opt = campaign(dir, 2);
    resume_opt.compute.engine = resume_leg.engine;
    resume_opt.compute.simd = resume_leg.simd;
    auto resumed = run(resume_opt);
    ASSERT_TRUE(resumed) << resumed.error().to_string();
    EXPECT_EQ(resumed->resumed_slices, 2u);
    expect_bit_identical(resumed->sim);
  }
}

TEST_F(CampaignTest, EngineOptionIsForwardedToEachSlice) {
  for (const auto engine :
       {FaultSimEngine::FullSweep, FaultSimEngine::Compiled}) {
    DistOptions opt = campaign(path(fault_sim_engine_name(engine)));
    opt.compute.engine = engine;
    auto r = run(opt);
    ASSERT_TRUE(r) << r.error().to_string();
    EXPECT_EQ(r->sim.stats.engine, engine);
    if (engine == FaultSimEngine::FullSweep)
      EXPECT_EQ(r->sim.stats.gates_evaluated, r->sim.stats.gates_full_sweep);
    else
      EXPECT_LT(r->sim.stats.gates_evaluated, r->sim.stats.gates_full_sweep);
    expect_bit_identical(r->sim);
  }
}

TEST_F(CampaignTest, ResumeOfCompletedCampaignIsIdenticalAndRunsNothing) {
  auto first = run(campaign(path(), 2));
  ASSERT_TRUE(first);
  ASSERT_TRUE(first->sim.complete);

  auto again = run(campaign(path(), 2));
  ASSERT_TRUE(again);
  EXPECT_EQ(again->inline_slices, 0u);
  EXPECT_EQ(again->resumed_slices, slice_count());
  EXPECT_EQ(again->sim.stats.batches, 0u);
  expect_bit_identical(again->sim);
}

TEST_F(CampaignTest, MissingCheckpointWithResumeIsAFreshStart) {
  auto r = run(campaign(path("never_written")));
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_slices, 0u);
  expect_bit_identical(r->sim);
}

TEST_F(CampaignTest, TruncatedCheckpointIsCorrupt) {
  ASSERT_TRUE(run(campaign(path())));
  const std::string file = dist::partial_path(path(), 1);
  const auto full_size = std::filesystem::file_size(file);
  for (const std::uintmax_t keep :
       {std::uintmax_t{0}, std::uintmax_t{10}, std::uintmax_t{70},
        full_size - 1}) {
    std::filesystem::resize_file(file, keep);
    auto loaded = dist::load_partial(file);
    ASSERT_FALSE(loaded) << "kept " << keep << " of " << full_size
                         << " bytes";
    EXPECT_EQ(loaded.error().code, ErrorCode::CorruptCheckpoint) << keep;
    expect_one_slice_recomputed(path());
    EXPECT_EQ(std::filesystem::file_size(file), full_size)
        << "the recomputed slice must be saved again";
  }
}

TEST_F(CampaignTest, CorruptedMagicAndVersionAreRefused) {
  ASSERT_TRUE(run(campaign(path())));
  const std::string file = dist::partial_path(path(), 0);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.write("NOPE", 4); // clobber magic
  }
  auto bad_magic = dist::load_partial(file);
  ASSERT_FALSE(bad_magic);
  EXPECT_EQ(bad_magic.error().code, ErrorCode::CorruptCheckpoint);
  EXPECT_NE(bad_magic.error().message.find("magic"), std::string::npos);
  expect_one_slice_recomputed(path());

  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    const std::uint32_t future = 999;
    f.write(reinterpret_cast<const char*>(&future), sizeof future);
  }
  auto bad_version = dist::load_partial(file);
  ASSERT_FALSE(bad_version);
  EXPECT_EQ(bad_version.error().code, ErrorCode::CorruptCheckpoint);
  EXPECT_NE(bad_version.error().message.find("version"), std::string::npos);
  expect_one_slice_recomputed(path());
}

TEST_F(CampaignTest, FlippedPayloadByteFailsChecksum) {
  ASSERT_TRUE(run(campaign(path())));
  const std::string file = dist::partial_path(path(), 0);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(100);
    char x = 0;
    f.read(&x, 1);
    x = static_cast<char>(x ^ 0x5A); // guaranteed to differ
    f.seekp(100);
    f.write(&x, 1);
  }
  auto loaded = dist::load_partial(file);
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.error().code, ErrorCode::CorruptCheckpoint);
  EXPECT_NE(loaded.error().message.find("checksum"), std::string::npos);
  expect_one_slice_recomputed(path());
}

/// Rerun over a directory of foreign slice files: none may be merged,
/// every slice is recomputed, and the result is the one-shot one.
void expect_all_recomputed(const DistOptions& opt) {
  auto r = run(opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_slices, 0u) << "a foreign slice file was merged";
  EXPECT_EQ(r->inline_slices, r->slices);
  expect_bit_identical(r->sim);
}

TEST_F(CampaignTest, ForeignCheckpointsAreRefusedWithFingerprintMismatch) {
  const Fixture& fx = fixture();
  const auto fp =
      dist::fingerprint_universe(fx.low.netlist, fx.stim, fx.faults);
  // Slice files written by a different *design*.
  {
    const std::string dir = path("foreign_design");
    ASSERT_TRUE(run(campaign(dir), other_fixture()));
    auto p = dist::load_partial(dist::partial_path(dir, 0));
    ASSERT_TRUE(p);
    auto refused = dist::validate_partial(*p, fp, fx.faults.size(),
                                          fx.stim.size(), 0, kSlice);
    ASSERT_FALSE(refused);
    EXPECT_EQ(refused.error().code, ErrorCode::FingerprintMismatch);
    expect_all_recomputed(campaign(dir));
  }
  // Same design, different *stimulus*.
  {
    const std::string dir = path("foreign_stim");
    auto gen = tpg::make_generator(tpg::GeneratorKind::Ramp, 12);
    const auto other_stim = gen->generate_raw(256);
    ASSERT_TRUE(dist::run_distributed(fx.low.netlist, other_stim, fx.faults,
                                      campaign(dir)));
    expect_all_recomputed(campaign(dir));
  }
  // Same campaign, different slice geometry.
  {
    const std::string dir = path("geometry");
    ASSERT_TRUE(run(campaign(dir)));
    DistOptions opt = campaign(dir);
    opt.slice_faults = kSlice / 2;
    expect_all_recomputed(opt);
  }
}

SignatureOptions test_signature(int width) {
  SignatureOptions sig;
  sig.width = width;
  sig.taps = tpg::default_polynomial(width).low_terms;
  return sig;
}

FaultSimResult one_shot_signature(int width) {
  FaultSimOptions sopt;
  sopt.num_threads = 1;
  sopt.signature = test_signature(width);
  return simulate_faults(fixture().low.netlist, fixture().stim,
                         fixture().faults, sopt);
}

TEST_F(CampaignTest, SignatureCampaignMatchesOneShotThroughKillAndResume) {
  // Signature verdicts ride in the slice files next to detect_cycle, so
  // a campaign cancelled mid-flight and resumed must reproduce BOTH
  // verdict sets of a one-shot signature run bit-for-bit.
  const auto oracle = one_shot_signature(10);
  ASSERT_EQ(oracle.signature_detect.size(), fixture().faults.size());
  ASSERT_GT(oracle.signature_detected(), 0u);

  common::CancelToken token;
  DistOptions opt = campaign(path());
  opt.compute.signature = test_signature(10);
  cancel_after(opt, token, 2);
  auto first = run(opt);
  ASSERT_TRUE(first) << first.error().to_string();
  ASSERT_FALSE(first->sim.complete);

  DistOptions resume_opt = campaign(path(), 2);
  resume_opt.compute.signature = test_signature(10);
  auto resumed = run(resume_opt);
  ASSERT_TRUE(resumed) << resumed.error().to_string();
  EXPECT_EQ(resumed->resumed_slices, 2u);
  EXPECT_TRUE(resumed->sim.complete);
  EXPECT_EQ(resumed->sim.detect_cycle, oracle.detect_cycle);
  EXPECT_EQ(resumed->sim.signature_detect, oracle.signature_detect);
  EXPECT_EQ(resumed->sim.signature_detected(), oracle.signature_detected());
  EXPECT_EQ(resumed->sim.aliased(), oracle.aliased());
}

TEST_F(CampaignTest, ForeignFamilyTagIsRefusedOnResume) {
  // Identical netlist/stimulus/faults, different declared design family:
  // the family tag is part of a slice file's identity precisely because
  // the structural fingerprints cannot tell such twins apart.
  DistOptions opt = campaign(path());
  opt.compute.family = 1;
  ASSERT_TRUE(run(opt));

  opt.compute.family = 2;
  expect_all_recomputed(opt);
  auto p = dist::load_partial(dist::partial_path(path(), 0));
  ASSERT_TRUE(p);
  EXPECT_EQ(p->fp.family, 2u) << "the foreign file must have been replaced";
}

TEST_F(CampaignTest, ForeignSignatureConfigurationIsRefusedOnResume) {
  DistOptions opt = campaign(path());
  opt.compute.signature = test_signature(10);
  ASSERT_TRUE(run(opt));

  // A different MISR width changes the verdict set.
  DistOptions wider = opt;
  wider.compute.signature = test_signature(12);
  auto r = run(wider);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_slices, 0u);
  EXPECT_EQ(r->sim.signature_detect, one_shot_signature(12).signature_detect);

  // So does dropping compaction entirely.
  DistOptions plain = opt;
  plain.compute.signature = {};
  expect_all_recomputed(plain);
}

TEST_F(CampaignTest, DeadlineYieldsPartialResultAndReason) {
  DistOptions opt = campaign(path(), 4);
  opt.deadline_s = 1e-9; // expires immediately; workers must still join
  auto r = run(opt);
  ASSERT_TRUE(r);
  EXPECT_FALSE(r->sim.complete);
  EXPECT_EQ(r->stop_reason, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(r->sim.total_faults, fixture().faults.size());
  // Coverage-so-far is consistent: it covers finished slices only, and
  // detected counts only real verdicts.
  EXPECT_EQ(r->sim.finalized_count(), r->inline_slices * kSlice);
  std::size_t detected = 0;
  for (const std::int32_t c : r->sim.detect_cycle)
    if (c >= 0) ++detected;
  EXPECT_EQ(r->sim.detected, detected);
}

TEST_F(CampaignTest, OversizedStimulusIsRefusedLoudly) {
  // A span can claim an enormous extent without backing memory — the
  // guard must fire before any simulation touches it.
  std::span<const std::int64_t> bogus(
      fixture().stim.data(),
      std::size_t(std::numeric_limits<std::int32_t>::max()) + 1);
  FaultSimOptions opt;
  EXPECT_THROW(simulate_faults(fixture().low.netlist, bogus,
                               fixture().faults, opt),
               precondition_error);
}

// ---------------------------------------------------------------------------
// Crash consistency of the atomic slice-file write. Each death test
// SIGKILLs a forked child at one "partial-*" failpoint seam inside
// dist::save_partial and then audits the filesystem the child left
// behind: at no seam may a torn or half-renamed file ever load.

class CampaignDeathTest : public CampaignTest {};

dist::SlicePartial tagged_partial(std::int32_t tag) {
  dist::SlicePartial p;
  p.fp = {1, 2, 3};
  p.total_faults = 16;
  p.vectors = 16;
  p.lo = 0;
  p.detect_cycle.assign(8, tag);
  return p;
}

TEST_F(CampaignDeathTest, TornWriteNeverYieldsALoadableFile) {
  const std::string p = path("slice.part");
  const auto part = tagged_partial(11);
  EXPECT_EXIT(
      {
        (void)common::failpoint_configure("partial-torn-write=crash");
        (void)dist::save_partial(p, part);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  EXPECT_FALSE(std::filesystem::exists(p))
      << "a crash before the rename must leave the target untouched";
  EXPECT_FALSE(dist::load_partial(p));
  // The half-written tmp file, if present, must refuse to load too.
  if (std::filesystem::exists(p + ".tmp")) {
    EXPECT_FALSE(dist::load_partial(p + ".tmp"));
  }
}

// A campaign killed while saving its first slice leaves no slice file,
// and the rerun computes everything from scratch.
TEST_F(CampaignDeathTest, CrashBeforeRenameLeavesNoCheckpoint) {
  const std::string dir = path();
  ASSERT_FALSE(fixture().faults.empty()); // build the fixture pre-fork
  EXPECT_EXIT(
      {
        (void)common::failpoint_configure("partial-before-rename=crash");
        (void)run(campaign(dir));
      },
      ::testing::KilledBySignal(SIGKILL), "");
  EXPECT_FALSE(std::filesystem::exists(dist::partial_path(dir, 0)));
  EXPECT_FALSE(dist::load_partial(dist::partial_path(dir, 0)));
  auto r = run(campaign(dir));
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_slices, 0u);
  expect_bit_identical(r->sim);
}

TEST_F(CampaignDeathTest, CrashBeforeRenameKeepsThePreviousCheckpoint) {
  const std::string p = path("slice.part");
  const auto old_part = tagged_partial(33);
  ASSERT_TRUE(dist::save_partial(p, old_part));
  const auto new_part = tagged_partial(44);
  EXPECT_EXIT(
      {
        (void)common::failpoint_configure("partial-before-rename=crash");
        (void)dist::save_partial(p, new_part);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  auto survivor = dist::load_partial(p);
  ASSERT_TRUE(survivor) << "previous good slice file must still load: "
                        << survivor.error().to_string();
  EXPECT_EQ(survivor->detect_cycle, old_part.detect_cycle)
      << "the interrupted save must not have replaced the old content";
}

TEST_F(CampaignDeathTest, CrashAfterRenameIsDurable) {
  const std::string p = path("slice.part");
  const auto part = tagged_partial(55);
  EXPECT_EXIT(
      {
        (void)common::failpoint_configure("partial-after-rename=crash");
        (void)dist::save_partial(p, part);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  auto loaded = dist::load_partial(p);
  ASSERT_TRUE(loaded) << "a renamed slice file is committed: "
                      << loaded.error().to_string();
  EXPECT_EQ(loaded->detect_cycle, part.detect_cycle);
  EXPECT_EQ(loaded->lo, part.lo);
}

} // namespace
} // namespace fdbist::fault
