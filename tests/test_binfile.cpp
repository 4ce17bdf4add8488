// The one binary codec (common/binfile.hpp) and the two formats built
// on it:
//   - the writer is little-endian whatever the host, and open() checks
//     size, magic, version and checksum in that order;
//   - the bytes of a fixed FDBP slice partial and of a fixed FDBA
//     artifact are pinned, so a layout change without a version bump
//     fails here;
//   - a hostile-length sweep over the one reader: every truncation, and
//     every count or length field set to 2^31, 2^32-1 and 2^64-1 with
//     the checksum restamped, must give a typed error — never a crash,
//     never an allocation sized by the hostile count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bist/kit.hpp"
#include "common/atomic_file.hpp"
#include "common/binfile.hpp"
#include "common/fingerprint.hpp"
#include "designs/registry.hpp"
#include "dist/partial.hpp"
#include "fault/schedule_cache.hpp"
#include "gate/lower.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"

// The largest single operator-new request made while g_tracking is on.
// Replacing the global allocation functions lets the sweep see an
// allocation sized by a hostile count, not just survive it; one past
// kTrackedCap throws instead of being attempted, so a regression fails
// the test rather than exhausting the host. (Outside ASan builds the
// good trace's pages are mapped directly and escape the probe;
// read_trace guards them with the same fits().) Every unaligned form is
// replaced, so no pointer crosses between these and the runtime's own,
// and they stay out of line so no caller sees malloc paired with delete.
namespace {
std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest{0};
constexpr std::size_t kTrackedCap = std::size_t{64} << 20;
} // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
    if (n > kTrackedCap) throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace fdbist {
namespace {

namespace binfile = common::binfile;

constexpr char kTestMagic[4] = {'T', 'E', 'S', 'T'};

/// Error messages and file paths are allocated on the error path too;
/// they are bounded by this, whatever the file claims.
constexpr std::size_t kMessageSlack = 1024;

/// Tracks the largest allocation over its lifetime.
struct AllocationProbe {
  AllocationProbe() {
    g_largest = 0;
    g_tracking = true;
  }
  ~AllocationProbe() { g_tracking = false; }
  std::size_t largest() const { return g_largest; }
};

std::uint64_t fnv(const std::vector<std::uint8_t>& bytes) {
  return common::fnv1a(common::kFnvSeed, bytes.data(), bytes.size());
}

/// Overwrite `width` little-endian bytes at `off`.
void put_le(std::vector<std::uint8_t>& bytes, std::size_t off,
            std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i)
    bytes[off + i] = std::uint8_t(v >> (8 * i));
}

std::uint64_t get_le(const std::vector<std::uint8_t>& bytes, std::size_t off,
                     std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i)
    v |= std::uint64_t(bytes[off + i]) << (8 * i);
  return v;
}

/// Re-seal after patching a field, so the damage under test is the
/// field, not the checksum.
void restamp(std::vector<std::uint8_t>& bytes) {
  put_le(bytes, bytes.size() - 8,
         common::fnv1a(common::kFnvSeed, bytes.data(), bytes.size() - 8), 8);
}

constexpr std::uint64_t kHostileValues[] = {
    std::uint64_t{1} << 31, (std::uint64_t{1} << 32) - 1, ~std::uint64_t{0}};

/// A count or length field of a file: its offset and width in bytes.
struct Field {
  std::size_t offset;
  std::size_t width;
};

class BinFileTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_binfile_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Save `p` and return the file's bytes.
  std::vector<std::uint8_t> partial_bytes(const dist::SlicePartial& p) const {
    const std::string file = path("pinned.part");
    EXPECT_TRUE(dist::save_partial(file, p));
    auto bytes = binfile::read_file(file);
    EXPECT_TRUE(bytes);
    return bytes ? *bytes : std::vector<std::uint8_t>{};
  }

private:
  std::filesystem::path dir_;
};

dist::SlicePartial plain_partial() {
  dist::SlicePartial p;
  p.fp = {0xDEAD, 0xBEEF, 0xF00D};
  p.total_faults = 100;
  p.vectors = 64;
  p.lo = 10;
  p.detect_cycle.resize(20);
  for (std::size_t i = 0; i < p.detect_cycle.size(); ++i)
    p.detect_cycle[i] = i % 3 == 0 ? -1 : std::int32_t(i);
  return p;
}

dist::SlicePartial signature_partial() {
  dist::SlicePartial p = plain_partial();
  p.fp.family = 2;
  p.sig_width = 12;
  p.sig_taps = 0x53;
  p.signature_detect.resize(p.detect_cycle.size());
  for (std::size_t i = 0; i < p.detect_cycle.size(); ++i)
    p.signature_detect[i] = p.detect_cycle[i] >= 0 && i % 5 != 0 ? 1 : 0;
  return p;
}

// ---------------------------------------------------------------------------
// The codec.

TEST(BinFile, WriterIsLittleEndianWhateverTheHost) {
  binfile::Writer w(kTestMagic, 7);
  w.put_u32(0x01020304);
  w.put_u64(0x0102030405060708);
  w.put_i32(-2);
  w.put_u8(0xAB);
  const std::vector<std::uint8_t> bytes = std::move(w).seal();
  const std::vector<std::uint8_t> body = {
      'T', 'E', 'S', 'T', 7, 0, 0, 0,             // magic, version
      0x04, 0x03, 0x02, 0x01,                     // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // u64
      0xFE, 0xFF, 0xFF, 0xFF,                     // i32 -2
      0xAB};
  ASSERT_EQ(bytes.size(), body.size() + 8);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), bytes.begin()));
  EXPECT_EQ(get_le(bytes, body.size(), 8), fnv(body));

  auto r = binfile::open(bytes, kTestMagic, 7, ErrorCode::CorruptArtifact,
                         "test file");
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->take_u32(), 0x01020304u);
  EXPECT_EQ(r->take_u64(), 0x0102030405060708u);
  EXPECT_EQ(r->take_i32(), -2);
  EXPECT_EQ(r->take_u8(), 0xAB);
  EXPECT_EQ(r->remaining(), 0u);
  EXPECT_FALSE(r->failed());
}

TEST(BinFile, OpenChecksSizeMagicVersionAndChecksumInThatOrder) {
  binfile::Writer w(kTestMagic, 3);
  w.put_u64(42);
  const std::vector<std::uint8_t> good = std::move(w).seal();
  const auto refusal = [](const std::vector<std::uint8_t>& bytes) {
    auto r = binfile::open(bytes, kTestMagic, 3, ErrorCode::CorruptCheckpoint,
                           "test file");
    EXPECT_FALSE(r);
    if (r) return std::string();
    EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);
    EXPECT_EQ(r.error().message.rfind("test file ", 0), 0u)
        << r.error().message;
    return r.error().message;
  };

  EXPECT_NE(refusal({good.begin(), good.begin() + 15}).find("truncated"),
            std::string::npos);
  // Magic and version are named even though their damage also broke the
  // checksum: a file of another format or version says so.
  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_NE(refusal(bad_magic).find("magic"), std::string::npos);
  auto bad_version = good;
  bad_version[4] = 2;
  EXPECT_NE(refusal(bad_version).find("version 2"), std::string::npos);
  auto flipped = good;
  flipped[9] ^= 0x10;
  EXPECT_NE(refusal(flipped).find("checksum"), std::string::npos);
}

TEST(BinFile, ReaderFailsStickyAndFitsGuardsCounts) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6};
  binfile::Reader r(bytes);
  EXPECT_TRUE(r.fits(1, 6));
  EXPECT_FALSE(r.fits(2, 4));
  EXPECT_FALSE(r.fits(~std::uint64_t{0}, 1));
  EXPECT_EQ(r.take_u32(), 0x04030201u);
  EXPECT_EQ(r.take_u32(), 0u); // two bytes left: fails
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.take_u8(), 0u);
  EXPECT_TRUE(r.failed());
}

TEST(BinFile, BulkArraysMatchOneTakePerElement) {
  const std::vector<std::int32_t> cycles = {0, -1, 0x01020304, -2, 4095};
  const std::vector<std::uint8_t> flags = {1, 0, 0xAB};
  binfile::Writer bulk(kTestMagic, 1);
  bulk.put_array<std::int32_t>(cycles);
  bulk.put_array<std::uint8_t>(flags);
  bulk.put_array<std::int32_t>({});
  binfile::Writer each(kTestMagic, 1);
  for (const std::int32_t c : cycles) each.put_i32(c);
  for (const std::uint8_t f : flags) each.put_u8(f);
  const std::vector<std::uint8_t> bytes = std::move(bulk).seal();
  EXPECT_EQ(bytes, std::move(each).seal());

  auto r = binfile::open(bytes, kTestMagic, 1, ErrorCode::CorruptCheckpoint,
                         "test file");
  ASSERT_TRUE(r) << r.error().to_string();
  std::vector<std::int32_t> got_cycles(cycles.size());
  std::vector<std::uint8_t> got_flags(flags.size());
  r->take_array(std::span(got_cycles));
  r->take_array(std::span(got_flags));
  EXPECT_FALSE(r->failed());
  EXPECT_EQ(got_cycles, cycles);
  EXPECT_EQ(got_flags, flags);
  EXPECT_EQ(r->remaining(), 0u);

  // A short stream fails as a whole and leaves the array untouched.
  const std::vector<std::uint8_t> six = {1, 2, 3, 4, 5, 6};
  binfile::Reader short_reader(six);
  std::vector<std::int32_t> two = {7, 7};
  short_reader.take_array(std::span(two));
  EXPECT_TRUE(short_reader.failed());
  EXPECT_EQ(two, (std::vector<std::int32_t>{7, 7}));
  EXPECT_EQ(short_reader.remaining(), 0u);
}

TEST_F(BinFileTest, AtomicWriteRoundTripsAnEmptyFile) {
  // An empty span carries a null data pointer; the write must not hand
  // it to fwrite (undefined behaviour that UBSan reports).
  const std::string file = path("empty.bin");
  ASSERT_TRUE(common::atomic_write_file(file, {}));
  auto empty = binfile::read_file(file);
  ASSERT_TRUE(empty) << empty.error().to_string();
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));

  // And it still replaces a non-empty file.
  const std::vector<std::uint8_t> three = {1, 2, 3};
  ASSERT_TRUE(common::atomic_write_file(file, three));
  ASSERT_TRUE(common::atomic_write_file(file, {}));
  EXPECT_EQ(std::filesystem::file_size(file), 0u);
}

// ---------------------------------------------------------------------------
// Pinned layouts. A failure here means the bytes of a format changed:
// bump its version (and test the refusal of the old one) instead of
// re-pinning.

TEST_F(BinFileTest, PartialLayoutIsPinned) {
  const auto plain = partial_bytes(plain_partial());
  ASSERT_EQ(plain.size(), 80u + 4 * 20 + 8);
  EXPECT_EQ(get_le(plain, 4, 4), dist::kPartialVersion);
  EXPECT_EQ(dist::kPartialVersion, 3u);
  EXPECT_EQ(fnv(plain), 0x74ef008593c8b5a6ull);

  const auto sig = partial_bytes(signature_partial());
  ASSERT_EQ(sig.size(), 80u + 5 * 20 + 8);
  EXPECT_EQ(fnv(sig), 0xbdabff7a1a78d924ull);
}

TEST(BinFile, ArtifactLayoutIsPinned) {
  // DEC2 x 64 LFSR-D vectors, passes off: the bytes the parent codec
  // wrote. FDBA kept version 1 when it moved onto common/binfile, so
  // every cache directory stays warm.
  const rtl::FilterDesign design = designs::make_design("DEC2");
  const bist::BistKit kit(design);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD,
                                 design.stats().width_in);
  gen->reset();
  const auto stimulus = gen->generate_raw(64);
  const auto art =
      fault::build_artifact(kit.lowered().netlist, stimulus, kit.faults(),
                            gate::PassOptions{false, false, false, false});
  const auto bytes = fault::serialize_artifact(*art);
  EXPECT_EQ(bytes.size(), 280675u);
  EXPECT_EQ(get_le(bytes, 4, 4), gate::kArtifactVersion);
  EXPECT_EQ(fnv(bytes), 0x8b4c0bbf76467c65ull);
}

// ---------------------------------------------------------------------------
// Hostile lengths.

TEST_F(BinFileTest, HostilePartialLengthsAreTypedErrors) {
  const std::string file = path("hostile.part");
  for (const dist::SlicePartial& p : {plain_partial(), signature_partial()}) {
    const auto good = partial_bytes(p);
    fault::SignatureOptions sig;
    sig.width = int(p.sig_width);
    sig.taps = p.sig_taps;
    // Load and audit a mutant the way the coordinator does; it must be
    // refused with a typed error, allocating no more than the file.
    const auto expect_refused = [&](const std::vector<std::uint8_t>& bytes,
                                    const std::string& what) {
      std::ofstream(file, std::ios::binary | std::ios::trunc)
          .write(reinterpret_cast<const char*>(bytes.data()),
                 std::streamsize(bytes.size()));
      AllocationProbe probe;
      auto loaded = dist::load_partial(file);
      Expected<void> audited = Error{};
      if (loaded)
        audited = dist::validate_partial(*loaded, p.fp, p.total_faults,
                                         p.vectors, p.lo,
                                         p.detect_cycle.size(), sig);
      const std::size_t largest = probe.largest();
      ASSERT_FALSE(loaded && audited) << what << " was accepted";
      const Error& e = loaded ? audited.error() : loaded.error();
      EXPECT_TRUE(e.code == ErrorCode::CorruptCheckpoint ||
                  e.code == ErrorCode::FingerprintMismatch)
          << what << ": " << e.to_string();
      EXPECT_LE(largest, std::max(bytes.size(), kMessageSlack)) << what;
    };

    for (std::size_t keep = 0; keep < good.size(); ++keep)
      expect_refused({good.begin(), good.begin() + std::ptrdiff_t(keep)},
                     "a " + std::to_string(keep) + "-byte prefix");

    // total faults, vectors, lo, count (u64); signature width (u32).
    const Field fields[] = {{32, 8}, {40, 8}, {48, 8}, {56, 8}, {68, 4}};
    for (const Field& f : fields)
      for (const std::uint64_t v : kHostileValues) {
        auto bad = good;
        put_le(bad, f.offset, v, f.width);
        restamp(bad);
        expect_refused(bad, "field @" + std::to_string(f.offset) + " = " +
                                std::to_string(v));
      }
    // A count inside an equally inflated universe passes the window
    // check; only fits() stands between it and the allocation.
    for (const std::uint64_t v : kHostileValues) {
      auto bad = good;
      put_le(bad, 32, ~std::uint64_t{0}, 8);
      put_le(bad, 56, v, 8);
      restamp(bad);
      expect_refused(bad, "count = " + std::to_string(v) + " of 2^64-1");
    }
  }
}

/// Offsets of every count or length field of an FDBA file, walking the
/// sections in the order gate/artifact.hpp and fault/schedule_cache.cpp
/// write them.
std::vector<Field> artifact_count_fields(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<Field> out = {{40, 8}, {48, 8}}; // header: faults, vectors
  std::size_t at = 64;
  const auto count = [&](std::size_t width) {
    out.push_back({at, width});
    at += width;
    return std::size_t(get_le(bytes, at - width, width));
  };
  at += 9 * count(8); // gates: op, a, b
  at += 8 * count(8); // registers: d, q
  for (int io = 0; io < 2; ++io) {
    const std::size_t groups = count(8); // input, then output groups
    for (std::size_t g = 0; g < groups; ++g) at += 4 * count(8);
  }
  at += 4 * count(8); // retarget map
  at += 6 * count(8); // collapsed faults: gate, site, stuck
  const std::size_t n = count(8);
  (void)count(8);      // logic gates
  at += 9 * n + 4 * n; // op, a, b; fan-out offsets [0, n)
  const std::size_t edges = count(4); // offset [n] = adjacency length
  at += 4 * edges + 4 * n + n;        // adjacency, register map, outputs
  const std::size_t words = count(8);
  const std::size_t cycles = count(8);
  EXPECT_EQ(at + 8 * words * cycles + 8, bytes.size());
  return out;
}

TEST(BinFile, HostileArtifactLengthsAreTypedErrors) {
  // Small on purpose: every prefix is parsed, so the sweep is quadratic
  // in the file size.
  rtl::FirBuilderOptions narrow;
  narrow.input_width = 6;
  narrow.coef_width = 8;
  narrow.product_frac = 8;
  narrow.output_width = 10;
  const auto d = rtl::build_fir({0.31, -0.22, 0.11}, narrow, "hostile3");
  const auto low = gate::lower(d.graph);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(low), low.netlist, d.graph);
  auto gen = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 6);
  const auto stimulus = gen->generate_raw(8);
  const auto art = fault::build_artifact(low.netlist, stimulus, faults,
                                         gate::PassOptions{});
  const fault::ArtifactKey key = art->key;
  const auto good = fault::serialize_artifact(*art);
  ASSERT_TRUE(fault::deserialize_artifact(good, key));

  const auto expect_refused = [&](std::span<const std::uint8_t> bytes,
                                  const std::string& what) {
    AllocationProbe probe;
    auto r = fault::deserialize_artifact(bytes, key);
    const std::size_t largest = probe.largest();
    ASSERT_FALSE(r) << what << " was accepted";
    EXPECT_TRUE(r.error().code == ErrorCode::CorruptArtifact ||
                r.error().code == ErrorCode::FingerprintMismatch)
        << what << ": " << r.error().to_string();
    EXPECT_LE(largest, std::max(bytes.size(), kMessageSlack)) << what;
  };

  for (std::size_t keep = 0; keep < good.size(); ++keep)
    expect_refused(std::span(good).first(keep),
                   "a " + std::to_string(keep) + "-byte prefix");

  const std::vector<Field> fields = artifact_count_fields(good);
  ASSERT_GE(fields.size(), 14u);
  for (const Field& f : fields)
    for (const std::uint64_t v : kHostileValues) {
      auto bad = good;
      put_le(bad, f.offset, v, f.width);
      restamp(bad);
      expect_refused(bad, "field @" + std::to_string(f.offset) + " = " +
                              std::to_string(v));
    }
}

} // namespace
} // namespace fdbist
