// Distributed-campaign runtime: backoff and lease-queue invariants,
// wire-protocol strictness, failpoint grammar, partial-result
// durability and audits, merge associativity/commutativity, and
// coordinator equality with one-shot runs under crash schedules —
// including an end-to-end run with real worker processes when the CLI
// binary is available.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <signal.h>

#include "bist/kit.hpp"
#include "common/failpoint.hpp"
#include "designs/reference.hpp"
#include "dist/coordinator.hpp"
#include "dist/partial.hpp"
#include "dist/protocol.hpp"
#include "dist/queue.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"

namespace fdbist::dist {
namespace {

using fault::Fault;
using fault::FaultSimResult;

struct Fixture {
  rtl::FilterDesign design;
  gate::LoweredDesign low;
  std::vector<Fault> faults;
  std::vector<std::int64_t> stim;
};

// Small enough for fast tests, big enough that any slice size in
// [1, faults] yields several slices worth of merge traffic.
const Fixture& fixture() {
  static const Fixture f = [] {
    auto d = rtl::build_fir(
        {0.27, -0.19, 0.13, 0.094, -0.071, 0.052, -0.038, 0.024}, {},
        "dist8");
    auto low = gate::lower(d.graph);
    auto faults = fault::order_for_simulation(
        fault::enumerate_adder_faults(low), low.netlist, d.graph);
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
    auto stim = gen->generate_raw(128);
    return Fixture{std::move(d), std::move(low), std::move(faults),
                   std::move(stim)};
  }();
  return f;
}

/// One-shot single-threaded verdicts: the oracle every distributed
/// schedule must reproduce bit-identically.
const FaultSimResult& reference() {
  static const FaultSimResult r = [] {
    fault::FaultSimOptions opt;
    opt.num_threads = 1;
    return simulate_faults(fixture().low.netlist, fixture().stim,
                           fixture().faults, opt);
  }();
  return r;
}

void expect_matches_reference(const FaultSimResult& r) {
  const FaultSimResult& ref = reference();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.detected, ref.detected);
  ASSERT_EQ(r.detect_cycle.size(), ref.detect_cycle.size());
  for (std::size_t i = 0; i < r.detect_cycle.size(); ++i)
    ASSERT_EQ(r.detect_cycle[i], ref.detect_cycle[i]) << "fault " << i;
}

/// An unmerged result shell over the fixture universe.
FaultSimResult empty_like(const FaultSimResult& ref) {
  FaultSimResult r;
  r.total_faults = ref.total_faults;
  r.vectors = ref.vectors;
  r.detect_cycle.assign(ref.total_faults, -1);
  r.finalized.assign(ref.total_faults, 0);
  r.complete = false;
  return r;
}

/// A fully finalized partial covering [lo, lo+count) of `ref`.
FaultSimResult window(const FaultSimResult& ref, std::size_t lo,
                      std::size_t count) {
  FaultSimResult p;
  p.total_faults = count;
  p.vectors = ref.vectors;
  p.detect_cycle.assign(ref.detect_cycle.begin() + long(lo),
                        ref.detect_cycle.begin() + long(lo + count));
  p.finalized.assign(count, 1);
  for (const std::int32_t c : p.detect_cycle)
    if (c >= 0) ++p.detected;
  return p;
}

std::vector<SliceSpec> random_partition(std::mt19937_64& rng,
                                        std::size_t n) {
  std::vector<SliceSpec> out;
  std::size_t lo = 0;
  while (lo < n) {
    std::uniform_int_distribution<std::size_t> d(
        1, std::max<std::size_t>(1, (n - lo + 3) / 4));
    const std::size_t c = std::min(n - lo, d(rng));
    out.push_back({lo, c});
    lo += c;
  }
  return out;
}

/// Installs a failpoint spec for one test and always clears the
/// process-wide registry on the way out, pass or fail.
struct FailpointGuard {
  explicit FailpointGuard(const std::string& spec) {
    auto r = common::failpoint_configure(spec);
    if (!r) ADD_FAILURE() << r.error().to_string();
  }
  ~FailpointGuard() { (void)common::failpoint_configure(""); }
};

/// Fresh per-test scratch directory.
class DistTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_dist_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  std::string sub(const std::string& name) const {
    const auto p = dir_ / name;
    std::filesystem::create_directories(p);
    return p.string();
  }

private:
  std::filesystem::path dir_;
};

class DistDeathTest : public DistTest {};

// ---------------------------------------------------------------------------
// backoff_delay_ms

TEST(DistBackoff, DoublesFromBaseAndCaps) {
  const std::uint64_t base = 100, cap = 800;
  for (std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
    std::uint64_t prev_raw = 0;
    for (std::size_t attempt = 0; attempt < 12; ++attempt) {
      const std::uint64_t d = backoff_delay_ms(attempt, base, cap, seed);
      const std::uint64_t raw = std::min<std::uint64_t>(base << attempt, cap);
      EXPECT_GE(d, raw) << "attempt " << attempt;
      EXPECT_LT(d, raw + base) << "jitter must stay below one base";
      EXPECT_GE(raw, prev_raw) << "undelayed schedule must be monotone";
      prev_raw = raw;
    }
    // Deep attempts saturate at the cap (plus bounded jitter).
    EXPECT_GE(backoff_delay_ms(40, base, cap, seed), cap);
    EXPECT_LT(backoff_delay_ms(40, base, cap, seed), cap + base);
  }
}

TEST(DistBackoff, DeterministicPerSeedAndDecorrelatedAcrossSeeds) {
  EXPECT_EQ(backoff_delay_ms(2, 100, 800, 42),
            backoff_delay_ms(2, 100, 800, 42));
  std::vector<std::uint64_t> delays;
  for (std::uint64_t seed = 0; seed < 32; ++seed)
    delays.push_back(backoff_delay_ms(0, 1000, 1000, seed));
  std::sort(delays.begin(), delays.end());
  delays.erase(std::unique(delays.begin(), delays.end()), delays.end());
  EXPECT_GT(delays.size(), 1u) << "jitter ignored the seed";
}

TEST(DistBackoff, ZeroBaseMeansNoDelayAndNoJitter) {
  for (std::size_t attempt = 0; attempt < 8; ++attempt)
    EXPECT_EQ(backoff_delay_ms(attempt, 0, 1000, 99), 0u);
}

// ---------------------------------------------------------------------------
// SliceQueue (injected clock; no sleeping)

struct FakeClock {
  std::uint64_t now = 0;
  SliceQueue::Clock fn() {
    return [this] { return now; };
  }
};

std::vector<SliceSpec> three_slices() { return {{0, 4}, {4, 4}, {8, 2}}; }

TEST(DistQueue, LeaseLifecycleLowestPendingFirst) {
  FakeClock clk;
  SliceQueue q(three_slices(), 100, 3, 10, 40, 7, clk.fn());
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.work_remains());

  const auto a = q.acquire(1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(q.state(0), SliceState::Leased);
  EXPECT_EQ(q.owner(0), 1u);
  EXPECT_EQ(q.attempts(0), 1u);

  const auto b = q.acquire(2);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 1u);

  q.complete(*a);
  q.complete(*b);
  EXPECT_EQ(q.done_count(), 2u);
  EXPECT_FALSE(q.all_done());

  const auto c = q.acquire(1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, 2u);
  q.complete(*c);
  EXPECT_TRUE(q.all_done());
  EXPECT_FALSE(q.work_remains());
  EXPECT_FALSE(q.acquire(1).has_value());
}

TEST(DistQueue, RenewPushesTheLeaseDeadlineOut) {
  FakeClock clk;
  SliceQueue q(three_slices(), 100, 3, 10, 40, 7, clk.fn());
  ASSERT_TRUE(q.acquire(0).has_value());

  clk.now = 99;
  EXPECT_TRUE(q.expired().empty());
  q.renew(0); // deadline now 199
  clk.now = 150;
  EXPECT_TRUE(q.expired().empty());
  clk.now = 199;
  const auto dead = q.expired();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], 0u);
}

TEST(DistQueue, ReleaseGatesReacquisitionBehindBackoff) {
  FakeClock clk;
  SliceQueue q(three_slices(), 100, 3, 10, 40, 7, clk.fn());
  ASSERT_TRUE(q.acquire(0).has_value());
  clk.now = 200;
  EXPECT_TRUE(q.release(0));
  EXPECT_EQ(q.state(0), SliceState::Pending);

  // Slice 0 is backing off (delay in [10, 20) for base 10): the next
  // acquire must skip it and hand out slice 1 instead.
  const auto next = q.acquire(5);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);

  clk.now = 200 + 2 * 10; // past any jittered base-10 first backoff
  const auto again = q.acquire(5);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, 0u);
  EXPECT_EQ(q.attempts(0), 2u);
}

TEST(DistQueue, MaxAttemptsExhaustsTheSlice) {
  FakeClock clk;
  SliceQueue q({{0, 8}}, 100, 2, 10, 40, 3, clk.fn());
  ASSERT_TRUE(q.acquire(0).has_value());
  EXPECT_TRUE(q.release(0)) << "one attempt left";
  clk.now += 100;
  ASSERT_TRUE(q.acquire(0).has_value());
  EXPECT_EQ(q.attempts(0), 2u);
  EXPECT_FALSE(q.release(0)) << "attempts exhausted";
  clk.now += 100'000;
  EXPECT_FALSE(q.acquire(0).has_value())
      << "an exhausted slice must never be handed out again";
  EXPECT_TRUE(q.work_remains()) << "the slice is still not done";
}

TEST(DistQueue, ReleaseOfUnleasedSliceIsANoOp) {
  FakeClock clk;
  SliceQueue q(three_slices(), 100, 2, 10, 40, 3, clk.fn());
  EXPECT_TRUE(q.release(1)); // pending, untouched
  const auto a = q.acquire(0);
  ASSERT_TRUE(a.has_value());
  q.complete(*a);
  EXPECT_TRUE(q.release(*a)); // done, untouched
  EXPECT_EQ(q.state(*a), SliceState::Done);
}

TEST(DistQueue, NextEventDelayTracksLeasesAndBackoffs) {
  FakeClock clk;
  const std::uint64_t seed = 9;
  SliceQueue q({{0, 8}}, 500, 3, 50, 200, seed, clk.fn());
  EXPECT_EQ(q.next_event_delay_ms(10'000), 10'000u) << "nothing scheduled";

  ASSERT_TRUE(q.acquire(0).has_value());
  EXPECT_EQ(q.next_event_delay_ms(10'000), 500u);
  EXPECT_EQ(q.next_event_delay_ms(5), 5u) << "cap clamps";
  clk.now = 100;
  EXPECT_EQ(q.next_event_delay_ms(10'000), 400u);

  clk.now = 600;
  ASSERT_EQ(q.expired().size(), 1u);
  EXPECT_TRUE(q.release(0));
  // The only event is now slice 0's first backoff, whose schedule is
  // the published backoff_delay_ms function (queue seed + slice index).
  EXPECT_EQ(q.next_event_delay_ms(10'000),
            backoff_delay_ms(0, 50, 200, seed + 0));
}

// ---------------------------------------------------------------------------
// wire protocol

TEST(DistProtocol, RoundTripsEveryMessageKind) {
  Message hello;
  hello.kind = MsgKind::Hello;
  hello.a = 3;
  Message slice;
  slice.kind = MsgKind::Slice;
  slice.a = 2;
  slice.b = 100;
  slice.c = 50;
  Message progress;
  progress.kind = MsgKind::Progress;
  progress.a = 2;
  progress.b = 10;
  Message done;
  done.kind = MsgKind::Done;
  done.a = 4;
  Message fail;
  fail.kind = MsgKind::Fail;
  fail.a = 1;
  fail.text = "io cannot open: /tmp/x";
  Message exit_msg;
  exit_msg.kind = MsgKind::Exit;

  for (const Message& m :
       {hello, slice, progress, done, fail, exit_msg}) {
    const std::string line = format_message(m);
    auto p = parse_message(line);
    ASSERT_TRUE(p) << line << ": " << p.error().to_string();
    EXPECT_EQ(p->kind, m.kind) << line;
    EXPECT_EQ(p->a, m.a) << line;
    EXPECT_EQ(p->b, m.b) << line;
    EXPECT_EQ(p->c, m.c) << line;
    EXPECT_EQ(p->text, m.text) << line;
  }
}

TEST(DistProtocol, RejectsMalformedLinesWithProtocolErrors) {
  const char* bad[] = {
      "",           "HELLO",      "HELLO x",    "HELLO 1 2",
      "SLICE 1 2",  "SLICE 1 2 x", "SLICE -1 0 4", "PROGRESS 5",
      "PROGRESS 1 2 3", "DONE",   "DONE 1 2",   "FAIL 3",
      "FAIL",       "hello 1",    "BOGUS 1",    "EXIT now",
  };
  for (const char* line : bad) {
    auto p = parse_message(line);
    ASSERT_FALSE(p) << "accepted \"" << line << "\"";
    EXPECT_EQ(p.error().code, ErrorCode::Protocol) << line;
  }
}

// ---------------------------------------------------------------------------
// failpoints

TEST(DistFailpoints, ParsesTheFullGrammar) {
  auto specs = common::parse_failpoints(
      "a=crash,b=sleep:250@3,c=corrupt,d=off,e=error");
  ASSERT_TRUE(specs) << specs.error().to_string();
  ASSERT_EQ(specs->size(), 5u);
  EXPECT_EQ((*specs)[0].name, "a");
  EXPECT_EQ((*specs)[0].action, common::FailAction::Crash);
  EXPECT_EQ((*specs)[0].from_hit, 1u);
  EXPECT_EQ((*specs)[1].name, "b");
  EXPECT_EQ((*specs)[1].action, common::FailAction::Sleep);
  EXPECT_EQ((*specs)[1].sleep_ms, 250u);
  EXPECT_EQ((*specs)[1].from_hit, 3u);
  EXPECT_EQ((*specs)[2].action, common::FailAction::Corrupt);
  EXPECT_EQ((*specs)[3].action, common::FailAction::Off);
  EXPECT_EQ((*specs)[4].action, common::FailAction::Error);
}

TEST(DistFailpoints, RejectsMalformedSpecs) {
  const char* bad[] = {
      "a",        "a=",        "=crash", "a=bogus",      "a=crash@0",
      "a=crash@", "a=sleep:",  "a=sleep:x", "a=crash,,b=off",
  };
  for (const char* spec : bad) {
    auto r = common::parse_failpoints(spec);
    ASSERT_FALSE(r) << "accepted \"" << spec << "\"";
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument) << spec;
  }
}

TEST(DistFailpoints, ArmsFromTheConfiguredHitCount) {
  FailpointGuard guard("fp-dist-count=corrupt@3,fp-dist-now=error");
  EXPECT_TRUE(common::failpoints_active());
  EXPECT_FALSE(common::failpoint_eval("fp-dist-count")) << "hit 1";
  EXPECT_FALSE(common::failpoint_eval("fp-dist-count")) << "hit 2";
  EXPECT_TRUE(common::failpoint_eval("fp-dist-count")) << "hit 3 arms";
  EXPECT_TRUE(common::failpoint_eval("fp-dist-count")) << "stays armed";
  EXPECT_TRUE(common::failpoint_eval("fp-dist-now")) << "default from 1";
  EXPECT_FALSE(common::failpoint_eval("fp-dist-unregistered"));
}

TEST(DistFailpoints, ClearingDisablesEverySite) {
  {
    FailpointGuard guard("fp-dist-clear=error");
    EXPECT_TRUE(common::failpoint_eval("fp-dist-clear"));
  }
  EXPECT_FALSE(common::failpoint_eval("fp-dist-clear"));
}

// ---------------------------------------------------------------------------
// partial-result files

SlicePartial sample_partial() {
  SlicePartial p;
  p.fp = {0xDEAD, 0xBEEF, 0xF00D};
  p.total_faults = 100;
  p.vectors = 64;
  p.lo = 10;
  p.detect_cycle.resize(20);
  for (std::size_t i = 0; i < p.detect_cycle.size(); ++i)
    p.detect_cycle[i] = i % 3 == 0 ? -1 : std::int32_t(i);
  return p;
}

TEST_F(DistTest, PartialRoundTrips) {
  const SlicePartial p = sample_partial();
  const std::string path = partial_path(dir(), 4);
  ASSERT_TRUE(save_partial(path, p));
  auto r = load_partial(path);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->fp, p.fp);
  EXPECT_EQ(r->total_faults, p.total_faults);
  EXPECT_EQ(r->vectors, p.vectors);
  EXPECT_EQ(r->lo, p.lo);
  EXPECT_EQ(r->detect_cycle, p.detect_cycle);
}

/// sample_partial from a signature-compacted slice of a non-FIR design:
/// family tag in the universe fingerprint, MISR configuration in the
/// header, signature verdicts next to detect_cycle.
SlicePartial sample_sig_partial() {
  SlicePartial p = sample_partial();
  p.fp.family = 2;
  p.sig_width = 12;
  p.sig_taps = 0x53;
  p.signature_detect.assign(p.detect_cycle.size(), 0);
  for (std::size_t i = 0; i < p.detect_cycle.size(); ++i)
    p.signature_detect[i] = p.detect_cycle[i] >= 0 && i % 5 != 0 ? 1 : 0;
  return p;
}

TEST_F(DistTest, SignaturePartialRoundTripsWithFamilyTag) {
  const SlicePartial p = sample_sig_partial();
  const std::string path = partial_path(dir(), 7);
  ASSERT_TRUE(save_partial(path, p));
  auto r = load_partial(path);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->fp, p.fp);
  EXPECT_EQ(r->fp.family, 2u);
  EXPECT_EQ(r->sig_width, p.sig_width);
  EXPECT_EQ(r->sig_taps, p.sig_taps);
  EXPECT_EQ(r->detect_cycle, p.detect_cycle);
  EXPECT_EQ(r->signature_detect, p.signature_detect);
}

TEST_F(DistTest, VersionOnePartialIsRefused) {
  // v1 files predate the family tag and v2 files are host-endian;
  // neither has a safe reading here — the coordinator deletes and
  // recomputes. The version is named before the checksum is checked.
  for (const std::uint8_t version : {1, 2}) {
    SCOPED_TRACE(int(version));
    const std::string path = partial_path(dir(), 0);
    ASSERT_TRUE(save_partial(path, sample_partial()));
    {
      std::FILE* f = std::fopen(path.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
      const std::uint8_t le[4] = {version, 0, 0, 0};
      ASSERT_EQ(std::fwrite(le, 1, sizeof le, f), sizeof le);
      std::fclose(f);
    }
    auto r = load_partial(path);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);
    EXPECT_NE(r.error().message.find("version"), std::string::npos);
  }
}

TEST_F(DistTest, ValidateRefusesForeignFamilyAndSignatureConfig) {
  const SlicePartial p = sample_sig_partial();
  fault::SignatureOptions sig;
  sig.width = int(p.sig_width);
  sig.taps = p.sig_taps;
  EXPECT_TRUE(validate_partial(p, p.fp, 100, 64, 10, 20, sig));

  UniverseFp foreign = p.fp;
  foreign.family = 1;
  auto r = validate_partial(p, foreign, 100, 64, 10, 20, sig);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);

  fault::SignatureOptions wider = sig;
  wider.width = 14;
  r = validate_partial(p, p.fp, 100, 64, 10, 20, wider);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);

  fault::SignatureOptions other_poly = sig;
  other_poly.taps ^= 0x6;
  r = validate_partial(p, p.fp, 100, 64, 10, 20, other_poly);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);

  // A word-compare-only campaign must refuse a compacted partial, and a
  // compacted campaign must refuse a word-compare-only partial.
  r = validate_partial(p, p.fp, 100, 64, 10, 20, {});
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);
  const SlicePartial plain = sample_partial();
  fault::SignatureOptions enabled = sig;
  UniverseFp plain_fp = plain.fp;
  r = validate_partial(plain, plain_fp, 100, 64, 10, 20, enabled);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);
}

TEST_F(DistTest, PartialChecksumCatchesAFlippedByte) {
  const std::string path = partial_path(dir(), 0);
  ASSERT_TRUE(save_partial(path, sample_partial()));
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 70, SEEK_SET), 0); // inside the payload
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 70, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  auto r = load_partial(path);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);
}

TEST_F(DistTest, PartialTruncationIsCorruptAndAbsenceIsIo) {
  const std::string path = partial_path(dir(), 0);
  ASSERT_TRUE(save_partial(path, sample_partial()));
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 9);
  auto r = load_partial(path);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);

  std::filesystem::resize_file(path, 10);
  r = load_partial(path);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);

  auto missing = load_partial(partial_path(dir(), 99));
  ASSERT_FALSE(missing);
  EXPECT_EQ(missing.error().code, ErrorCode::Io);
}

TEST_F(DistTest, ValidateRefusesForeignUniversesAndWrongWindows) {
  const SlicePartial p = sample_partial();
  const UniverseFp fp = p.fp;
  EXPECT_TRUE(validate_partial(p, fp, 100, 64, 10, 20));

  UniverseFp foreign = fp;
  foreign.stimulus ^= 1;
  auto r = validate_partial(p, foreign, 100, 64, 10, 20);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);

  r = validate_partial(p, fp, 101, 64, 10, 20);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);
  r = validate_partial(p, fp, 100, 63, 10, 20);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);

  r = validate_partial(p, fp, 100, 64, 11, 20);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);
  r = validate_partial(p, fp, 100, 64, 10, 19);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);
}

TEST_F(DistTest, ComputeAndSaveSliceMatchesTheReferenceWindow) {
  const Fixture& fx = fixture();
  const UniverseFp fp = fingerprint_universe(fx.low.netlist, fx.stim,
                                             fx.faults);
  const std::size_t lo = 10, count = 37;
  SliceComputeOptions opt;
  opt.num_threads = 1;
  auto r = compute_and_save_slice(fx.low.netlist, fx.stim, fx.faults, fp,
                                  dir(), 2, lo, count, opt);
  ASSERT_TRUE(r) << r.error().to_string();

  auto p = load_partial(partial_path(dir(), 2));
  ASSERT_TRUE(p) << p.error().to_string();
  ASSERT_TRUE(validate_partial(*p, fp, fx.faults.size(), fx.stim.size(),
                               lo, count));
  for (std::size_t i = 0; i < count; ++i)
    ASSERT_EQ(p->detect_cycle[i], reference().detect_cycle[lo + i])
        << "fault " << lo + i;
}

TEST_F(DistTest, CorruptResultFailpointIsCaughtByTheChecksum) {
  FailpointGuard guard("corrupt-result=corrupt");
  const Fixture& fx = fixture();
  const UniverseFp fp = fingerprint_universe(fx.low.netlist, fx.stim,
                                             fx.faults);
  SliceComputeOptions opt;
  opt.num_threads = 1;
  ASSERT_TRUE(compute_and_save_slice(fx.low.netlist, fx.stim, fx.faults, fp,
                                     dir(), 0, 0, 16, opt));
  auto p = load_partial(partial_path(dir(), 0));
  ASSERT_FALSE(p) << "a corrupted partial must never load";
  EXPECT_EQ(p.error().code, ErrorCode::CorruptCheckpoint);
}

TEST_F(DistDeathTest, PartialCrashBeforeRenameLeavesNoLoadableFile) {
  const std::string path = partial_path(dir(), 0);
  const SlicePartial p = sample_partial();
  EXPECT_EXIT(
      {
        (void)common::failpoint_configure("partial-before-rename=crash");
        (void)save_partial(path, p);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(load_partial(path));
}

// ---------------------------------------------------------------------------
// FaultSimResult::merge audits

TEST_F(DistTest, MergeIsAssociativeAndCommutativeOverDisjointWindows) {
  const FaultSimResult& ref = reference();
  const std::size_t n = ref.total_faults;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    std::mt19937_64 rng(seed);
    const auto parts = random_partition(rng, n);
    ASSERT_GT(parts.size(), 2u);

    std::vector<std::size_t> order(parts.size());
    std::iota(order.begin(), order.end(), 0u);

    FaultSimResult first;
    for (int round = 0; round < 2; ++round) {
      std::shuffle(order.begin(), order.end(), rng);
      FaultSimResult base = empty_like(ref);
      for (const std::size_t k : order) {
        auto m = base.merge(window(ref, parts[k].lo, parts[k].count),
                            parts[k].lo);
        ASSERT_TRUE(m) << m.error().to_string();
      }
      ASSERT_TRUE(base.require_complete());
      EXPECT_TRUE(base.complete);
      EXPECT_EQ(base.detected, ref.detected);
      EXPECT_EQ(base.detect_cycle, ref.detect_cycle);
      EXPECT_EQ(base.finalized, ref.finalized);
      if (round == 0)
        first = base;
      else
        EXPECT_EQ(first.detect_cycle, base.detect_cycle)
            << "arrival order changed the merged state (seed " << seed
            << ")";
    }
  }
}

TEST_F(DistTest, MergeRejectsOverlapEvenWhenVerdictsAgree) {
  const FaultSimResult& ref = reference();
  FaultSimResult base = empty_like(ref);
  ASSERT_TRUE(base.merge(window(ref, 0, 10), 0));
  const auto detected_before = base.detected;
  const auto cycles_before = base.detect_cycle;

  auto same = base.merge(window(ref, 0, 10), 0);
  ASSERT_FALSE(same) << "identical double-merge must still be an overlap";
  EXPECT_EQ(same.error().code, ErrorCode::MergeOverlap);

  auto shifted = base.merge(window(ref, 5, 10), 5);
  ASSERT_FALSE(shifted);
  EXPECT_EQ(shifted.error().code, ErrorCode::MergeOverlap);

  EXPECT_EQ(base.detected, detected_before) << "failed merge mutated state";
  EXPECT_EQ(base.detect_cycle, cycles_before);
}

TEST_F(DistTest, MergeRejectsBadWindowsAndVectorMismatch) {
  const FaultSimResult& ref = reference();
  const std::size_t n = ref.total_faults;
  FaultSimResult base = empty_like(ref);

  auto past_end = base.merge(window(ref, n - 5, 5), n - 4);
  ASSERT_FALSE(past_end);
  EXPECT_EQ(past_end.error().code, ErrorCode::InvalidArgument);

  auto off_oob = base.merge(window(ref, 0, 1), n + 1);
  ASSERT_FALSE(off_oob);
  EXPECT_EQ(off_oob.error().code, ErrorCode::InvalidArgument);

  FaultSimResult short_stim = window(ref, 0, 5);
  short_stim.vectors = ref.vectors - 1;
  auto vecs = base.merge(short_stim, 0);
  ASSERT_FALSE(vecs);
  EXPECT_EQ(vecs.error().code, ErrorCode::InvalidArgument);
}

TEST_F(DistTest, MergeRejectsSignaturePresenceMismatch) {
  // One side compacted responses, the other did not: the verdict sets
  // are not comparable and the merge must refuse, both ways round.
  const FaultSimResult& ref = reference();
  {
    FaultSimResult base = empty_like(ref);
    FaultSimResult part = window(ref, 0, 10);
    part.signature_detect.assign(10, 1);
    auto r = base.merge(part, 0);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
  }
  {
    FaultSimResult base = empty_like(ref);
    base.signature_detect.assign(base.total_faults, 0);
    auto r = base.merge(window(ref, 0, 10), 0);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
  }
  // Matching compacted sides merge and carry the verdicts across.
  {
    FaultSimResult base = empty_like(ref);
    base.signature_detect.assign(base.total_faults, 0);
    FaultSimResult part = window(ref, 5, 10);
    part.signature_detect.assign(10, 0);
    part.signature_detect[3] = 1;
    ASSERT_TRUE(base.merge(part, 5));
    EXPECT_EQ(base.signature_detect[8], 1);
  }
}

TEST_F(DistTest, RequireCompleteNamesTheFirstGap) {
  const FaultSimResult& ref = reference();
  const std::size_t n = ref.total_faults;
  const std::size_t a = n / 3, b = 2 * n / 3;
  FaultSimResult base = empty_like(ref);
  ASSERT_TRUE(base.merge(window(ref, 0, a), 0));
  ASSERT_TRUE(base.merge(window(ref, b, n - b), b));

  auto gap = base.require_complete();
  ASSERT_FALSE(gap);
  EXPECT_EQ(gap.error().code, ErrorCode::MergeGap);
  EXPECT_NE(gap.error().message.find(std::to_string(a)), std::string::npos)
      << "gap message should name fault " << a << ": "
      << gap.error().message;
  EXPECT_FALSE(base.complete);

  ASSERT_TRUE(base.merge(window(ref, a, b - a), a));
  ASSERT_TRUE(base.require_complete());
  EXPECT_TRUE(base.complete);
  EXPECT_EQ(base.detect_cycle, ref.detect_cycle);
}

TEST_F(DistTest, MergeAbsorbsOnlyFinalizedEntries) {
  const FaultSimResult& ref = reference();
  FaultSimResult base = empty_like(ref);

  FaultSimResult evens = window(ref, 0, 10);
  FaultSimResult odds = window(ref, 0, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    (i % 2 == 0 ? odds : evens).finalized[i] = 0;
    (i % 2 == 0 ? odds : evens).detect_cycle[i] = -1;
  }
  ASSERT_TRUE(base.merge(evens, 0));
  EXPECT_EQ(base.finalized[1], 0) << "unfinalized entries must not land";
  EXPECT_EQ(base.detect_cycle[1], -1);

  // The complementary half-finalized partial is NOT an overlap.
  ASSERT_TRUE(base.merge(odds, 0));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(base.finalized[i], 1) << i;
    EXPECT_EQ(base.detect_cycle[i], ref.detect_cycle[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// run_distributed (inline mode: full slice/partial/merge machinery,
// no child processes)

TEST_F(DistTest, InlineDistributedMatchesOneShot) {
  const Fixture& fx = fixture();
  const std::size_t n = fx.faults.size();
  DistOptions dopt;
  dopt.num_workers = 0;
  dopt.dir = dir();
  dopt.slice_faults = n / 4 + 1; // ragged final slice
  dopt.compute.num_threads = 1;
  dopt.verbose = false;
  std::vector<std::size_t> seen;
  dopt.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, n);
    seen.push_back(done);
  };

  auto res = run_distributed(fx.low.netlist, fx.stim, fx.faults, dopt);
  ASSERT_TRUE(res) << res.error().to_string();
  EXPECT_FALSE(res->stop_reason.has_value());
  expect_matches_reference(res->sim);
  EXPECT_EQ(res->slices, (n + dopt.slice_faults - 1) / dopt.slice_faults);
  EXPECT_EQ(res->inline_slices, res->slices);
  EXPECT_EQ(res->resumed_slices, 0u);
  EXPECT_EQ(res->workers_spawned, 0u);

  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_GT(seen[i], seen[i - 1]) << "progress must be monotonic";
  EXPECT_EQ(seen.back(), n);
}

TEST_F(DistTest, SecondRunResumesEverySliceFromPartials) {
  const Fixture& fx = fixture();
  DistOptions dopt;
  dopt.num_workers = 0;
  dopt.dir = dir();
  dopt.slice_faults = fx.faults.size() / 3 + 1;
  dopt.compute.num_threads = 1;
  dopt.verbose = false;
  auto first = run_distributed(fx.low.netlist, fx.stim, fx.faults, dopt);
  ASSERT_TRUE(first) << first.error().to_string();
  ASSERT_TRUE(first->sim.complete);

  auto second = run_distributed(fx.low.netlist, fx.stim, fx.faults, dopt);
  ASSERT_TRUE(second) << second.error().to_string();
  EXPECT_EQ(second->resumed_slices, second->slices);
  EXPECT_EQ(second->inline_slices, 0u);
  expect_matches_reference(second->sim);
  EXPECT_EQ(second->sim.detect_cycle, first->sim.detect_cycle);
}

TEST_F(DistTest, CrashScheduleDeterminism) {
  // Simulate arbitrary worker-crash histories: some slices already have
  // valid partials (workers that finished, then died), some were
  // cancelled mid-slice (killed before saving anything), the rest were
  // never started. Whatever the schedule, the coordinator must converge
  // to verdicts bit-identical to the one-shot reference.
  const Fixture& fx = fixture();
  const std::size_t n = fx.faults.size();
  const UniverseFp fp = fingerprint_universe(fx.low.netlist, fx.stim,
                                             fx.faults);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::mt19937_64 rng(seed);
    const std::string d = sub("seed" + std::to_string(seed));
    std::uniform_int_distribution<std::size_t> szdist(1, n);
    const std::size_t per = szdist(rng);
    std::vector<SliceSpec> specs;
    for (std::size_t lo = 0; lo < n; lo += per)
      specs.push_back({lo, std::min(per, n - lo)});

    SliceComputeOptions sopt;
    sopt.num_threads = 1;
    std::size_t precomputed = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t roll = rng();
      if (roll % 2 == 0) {
        ASSERT_TRUE(compute_and_save_slice(fx.low.netlist, fx.stim,
                                           fx.faults, fp, d, i, specs[i].lo,
                                           specs[i].count, sopt));
        ++precomputed;
      } else if (roll % 3 == 0) {
        // A worker killed mid-slice leaves no file at all.
        common::CancelToken tok;
        tok.cancel();
        SliceComputeOptions cancelled = sopt;
        cancelled.cancel = &tok;
        auto r = compute_and_save_slice(fx.low.netlist, fx.stim, fx.faults,
                                        fp, d, i, specs[i].lo,
                                        specs[i].count, cancelled);
        EXPECT_FALSE(r) << "a cancelled slice must not report success";
        EXPECT_FALSE(std::filesystem::exists(partial_path(d, i)));
      }
    }

    DistOptions dopt;
    dopt.num_workers = 0;
    dopt.dir = d;
    dopt.slice_faults = per;
    dopt.compute.num_threads = 1;
    dopt.verbose = false;
    auto res = run_distributed(fx.low.netlist, fx.stim, fx.faults, dopt);
    ASSERT_TRUE(res) << res.error().to_string();
    expect_matches_reference(res->sim);
    EXPECT_EQ(res->resumed_slices, precomputed) << "seed " << seed;
    EXPECT_EQ(res->inline_slices, res->slices - precomputed);
  }
}

TEST_F(DistTest, PersistentCorruptionExhaustsAttemptsIntoWorkerLost) {
  FailpointGuard guard("corrupt-result=corrupt");
  const Fixture& fx = fixture();
  DistOptions dopt;
  dopt.num_workers = 0;
  dopt.dir = dir();
  dopt.slice_faults = fx.faults.size(); // one slice: exact retry counting
  dopt.max_slice_attempts = 2;
  dopt.backoff_base_ms = 1;
  dopt.backoff_cap_ms = 2;
  dopt.compute.num_threads = 1;
  dopt.verbose = false;
  auto res = run_distributed(fx.low.netlist, fx.stim, fx.faults, dopt);
  ASSERT_TRUE(res) << res.error().to_string();
  ASSERT_TRUE(res->stop_reason.has_value());
  EXPECT_EQ(*res->stop_reason, ErrorCode::WorkerLost);
  EXPECT_FALSE(res->sim.complete);
  EXPECT_EQ(res->partials_rejected, 2u)
      << "every attempt's corrupt partial must be rejected";
  EXPECT_EQ(res->slices_reassigned, 2u);
}

TEST_F(DistTest, DeadlineAndCancellationStopWithTypedReasons) {
  const Fixture& fx = fixture();
  DistOptions dopt;
  dopt.num_workers = 0;
  dopt.dir = sub("deadline");
  dopt.compute.num_threads = 1;
  dopt.verbose = false;
  dopt.deadline_s = 1e-9;
  auto dl = run_distributed(fx.low.netlist, fx.stim, fx.faults, dopt);
  ASSERT_TRUE(dl) << dl.error().to_string();
  ASSERT_TRUE(dl->stop_reason.has_value());
  EXPECT_EQ(*dl->stop_reason, ErrorCode::DeadlineExceeded);
  EXPECT_FALSE(dl->sim.complete);

  common::CancelToken tok;
  tok.cancel();
  DistOptions copt = dopt;
  copt.dir = sub("cancel");
  copt.deadline_s = 0;
  copt.cancel = &tok;
  auto cl = run_distributed(fx.low.netlist, fx.stim, fx.faults, copt);
  ASSERT_TRUE(cl) << cl.error().to_string();
  ASSERT_TRUE(cl->stop_reason.has_value());
  EXPECT_EQ(*cl->stop_reason, ErrorCode::Cancelled);
  EXPECT_FALSE(cl->sim.complete);
}

TEST_F(DistTest, MissingWorkerBinaryDegradesToInlineCompletion) {
  const Fixture& fx = fixture();
  DistOptions dopt;
  dopt.num_workers = 2;
  dopt.max_respawns = 0;
  dopt.worker_argv = {"/nonexistent-fdbist-worker", "--worker-id"};
  dopt.dir = dir();
  dopt.slice_faults = fx.faults.size() / 3 + 1;
  dopt.lease_ms = 5'000;
  dopt.backoff_base_ms = 1;
  dopt.backoff_cap_ms = 2;
  dopt.compute.num_threads = 1;
  dopt.verbose = false;
  auto res = run_distributed(fx.low.netlist, fx.stim, fx.faults, dopt);
  ASSERT_TRUE(res) << res.error().to_string();
  expect_matches_reference(res->sim);
  EXPECT_EQ(res->inline_slices, res->slices)
      << "with no spawnable workers every slice must run inline";
}

// ---------------------------------------------------------------------------
// end-to-end: real worker processes via the CLI binary

TEST_F(DistTest, RealWorkerProcessesMatchOneShot) {
#ifndef FDBIST_CLI_PATH
  GTEST_SKIP() << "FDBIST_CLI_PATH not defined";
#else
  const std::string cli = FDBIST_CLI_PATH;
  if (!std::filesystem::exists(cli))
    GTEST_SKIP() << "fdbist_cli not built at " << cli;

  const auto d = designs::make_reference(designs::ReferenceFilter::Lowpass);
  bist::BistKit kit(d);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD);
  gen->reset();
  const auto stim = gen->generate_raw(32);
  const auto ref = simulate_faults(kit.lowered().netlist, stim,
                                   kit.faults(), {});

  DistOptions dopt;
  dopt.num_workers = 2;
  dopt.dir = dir();
  dopt.slice_faults = kit.faults().size() / 3 + 1;
  dopt.lease_ms = 60'000; // sanitizer builds can be slow; don't flake
  dopt.verbose = false;
  dopt.worker_argv = {cli,
                      "--threads", "1",
                      "worker", "lp", "lfsrd", "32",
                      "--dir", dir(),
                      "--worker-id"};
  auto res = run_distributed(kit.lowered().netlist, stim, kit.faults(),
                             dopt);
  ASSERT_TRUE(res) << res.error().to_string();
  EXPECT_TRUE(res->sim.complete);
  EXPECT_GE(res->workers_spawned, 2u);
  EXPECT_EQ(res->sim.detected, ref.detected);
  ASSERT_EQ(res->sim.detect_cycle.size(), ref.detect_cycle.size());
  EXPECT_EQ(res->sim.detect_cycle, ref.detect_cycle)
      << "worker-computed verdicts diverged from the one-shot run";
#endif
}

} // namespace
} // namespace fdbist::dist
