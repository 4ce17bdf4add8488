// The fdbist_cli contract: what the run commands print on stdout and
// the exit codes they return, the usage errors of their shared flag
// grammar, and the RunSpec round trip that carries a coordinator's run
// to its workers. The binary is driven through the shell, like a user
// or a script would.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <sys/wait.h>

#include "run_spec.hpp"

namespace fdbist::cli {
namespace {

struct Outcome {
  int status = -1;
  std::string out;
};

/// Run `fdbist_cli <args>` and capture stdout (and stderr when
/// `with_stderr`; otherwise stderr is discarded).
Outcome run_cli(const std::string& args, bool with_stderr = false) {
  const std::string cmd = std::string("'") + FDBIST_CLI_PATH + "' " + args +
                          (with_stderr ? " 2>&1" : " 2>/dev/null");
  Outcome o;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return o;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;)
    o.out.append(buf, n);
  const int st = ::pclose(p);
  o.status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  return o;
}

class CliTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!std::filesystem::exists(FDBIST_CLI_PATH))
      GTEST_SKIP() << "fdbist_cli not built at " << FDBIST_CLI_PATH;
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_cli_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir(const std::string& name) const {
    return "'" + (dir_ / name).string() + "'";
  }

private:
  std::filesystem::path dir_;
};

struct Golden {
  const char* run;
  const char* out;
};

// stdout of faultsim, campaign and coordinate at 512 LFSR-D vectors.
const Golden kGolden[] = {
    {"LP lfsrd 512",
     "LP + LFSR-D, 512 vectors: coverage 99.004% (24950/25201), missed 251, "
     "golden signature 001D6D38\n"},
    {"LP lfsrd 512 --signature 16",
     "LP + LFSR-D, 512 vectors: coverage 99.004% (24950/25201), missed 251, "
     "golden signature 001D6D38\n"
     "signature 16-bit (taps 100B): detected 24950/24950, aliased 0 "
     "(expected < 26.37)\n"},
    {"IIR4 lfsrd 512",
     "IIR4 + LFSR-D, 512 vectors: coverage 97.875% (14971/15296), missed "
     "325, golden signature 00F67A3F\n"},
    {"IIR4 lfsrd 512 --signature 16",
     "IIR4 + LFSR-D, 512 vectors: coverage 97.875% (14971/15296), missed "
     "325, golden signature 00F67A3F\n"
     "signature 16-bit (taps 100B): detected 14970/14971, aliased 1 "
     "(expected < 16.62)\n"},
    {"DEC2 lfsrd 512",
     "DEC2 + LFSR-D, 512 vectors: coverage 99.018% (15233/15384), missed "
     "151, golden signature 00249AAE\n"},
    {"DEC2 lfsrd 512 --signature 16",
     "DEC2 + LFSR-D, 512 vectors: coverage 99.018% (15233/15384), missed "
     "151, golden signature 00249AAE\n"
     "signature 16-bit (taps 100B): detected 15233/15233, aliased 0 "
     "(expected < 16.88)\n"},
};

TEST_F(CliTest, FaultsimCampaignAndCoordinatePrintTheGoldenLines) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.run);
    const Outcome fs = run_cli(std::string("faultsim ") + g.run);
    EXPECT_EQ(fs.status, 0);
    EXPECT_EQ(fs.out, g.out);
    const Outcome cp = run_cli(std::string("campaign ") + g.run);
    EXPECT_EQ(cp.status, 0);
    EXPECT_EQ(cp.out, g.out);
    // With --signature the workers must compact too, or every partial
    // they write is refused and the run cannot finish cleanly.
    const Outcome co =
        run_cli(std::string("coordinate ") + g.run + " --workers 2 --dir " +
                dir(std::string("coord-") + std::to_string(&g - kGolden)));
    EXPECT_EQ(co.status, 0);
    EXPECT_EQ(co.out, g.out);
  }
}

TEST_F(CliTest, CoordinatorCacheLinesNameTheirScope) {
  // With workers, the coordinator's [cache]/[prep] counters cover only
  // the slices it ran inline: the lines must say so instead of reading
  // like a run that loaded and compiled nothing.
  const Outcome co = run_cli("coordinate LP lfsrd 512 --workers 2 --dir " +
                                 dir("coord") + " --schedule-cache " +
                                 dir("cache"),
                             true);
  EXPECT_EQ(co.status, 0);
  for (const char* tag : {"\n[cache] ", "\n[prep] "}) {
    SCOPED_TRACE(tag);
    const std::size_t at = ("\n" + co.out).find(tag);
    ASSERT_NE(at, std::string::npos) << co.out;
    const std::string line = co.out.substr(at, co.out.find('\n', at) - at);
    EXPECT_NE(line.find(" (coordinator's inline slices: "), std::string::npos)
        << line;
    EXPECT_NE(line.find(" of 7; workers log their own)"), std::string::npos)
        << line;
  }
  // A run without workers is all inline: no scope.
  const Outcome cp = run_cli("campaign LP lfsrd 512 --schedule-cache " +
                                 dir("cache"),
                             true);
  EXPECT_EQ(cp.status, 0);
  EXPECT_NE(cp.out.find("[cache] "), std::string::npos) << cp.out;
  EXPECT_EQ(cp.out.find("inline slices"), std::string::npos) << cp.out;
}

TEST_F(CliTest, UsageErrorsExitTwoAndPrintNothing) {
  const std::string bad[] = {
      "faultsim LP lfsrd 0",
      "faultsim LP lfsrd 512 --signature 1",
      "campaign LP lfsrd 512 --resume",
      "worker LP lfsrd 512 --dir " + dir("w"),
      "coordinate LP lfsrd 512",
      "faultsim LP lfsrd 512 --schedule-cache " + dir("c") +
          " --no-schedule-cache",
      "--threads x faultsim LP lfsrd 512",
      "faultsim LP lfsrd 512 --bogus",
  };
  for (const std::string& args : bad) {
    SCOPED_TRACE(args);
    const Outcome o = run_cli(args);
    EXPECT_EQ(o.status, 2);
    EXPECT_EQ(o.out, "");
  }
}

TEST_F(CliTest, ValueFlagGivenLastNamesItself) {
  const Outcome o = run_cli("faultsim lp lfsrd 256 --signature", true);
  EXPECT_EQ(o.status, 2);
  EXPECT_NE(o.out.find("--signature requires a value"), std::string::npos)
      << o.out;
}

TEST_F(CliTest, UnknownGeneratorListsTheAcceptedOnes) {
  for (const char* args : {"faultsim lp bogus 256", "spectra bogus"}) {
    SCOPED_TRACE(args);
    const Outcome o = run_cli(args, true);
    EXPECT_EQ(o.status, 2);
    EXPECT_NE(o.out.find("unknown generator \"bogus\" (lfsr1 lfsr2 lfsrd "
                         "lfsrm ramp mixed)"),
              std::string::npos)
        << o.out;
  }
}

TEST_F(CliTest, SpectraNeedsOneWelchSegment) {
  EXPECT_EQ(run_cli("spectra lfsrd 255").status, 2);
  const Outcome o = run_cli("spectra lfsrd 256");
  EXPECT_EQ(o.status, 0);
  EXPECT_FALSE(o.out.empty());
}

TEST(RunSpec, ToArgvParsesBackToTheSameSpec) {
  RunSpec a;
  a.design = "IIR4";
  a.generator = "mixed";
  a.vectors = 4096;
  a.threads = 3;
  RunSpec b = a;
  b.signature = 16;
  b.cache_dir = "/tmp/fdba cache";
  RunSpec c = a;
  c.no_cache = true;
  for (const RunSpec& spec : {a, b, c}) {
    RunSpec back;
    ASSERT_TRUE(parse_run(to_argv(spec, "worker"), back));
    EXPECT_EQ(back, spec);
  }
}

} // namespace
} // namespace fdbist::cli
