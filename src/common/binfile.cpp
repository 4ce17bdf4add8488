#include "common/binfile.hpp"

#include <cstdio>
#include <cstring>

#include "common/fingerprint.hpp"

namespace fdbist::common::binfile {

namespace {

constexpr std::size_t kFrameBytes = 4 + 4 + 8; // magic, version, checksum

} // namespace

Writer::Writer(const char (&magic)[4], std::uint32_t version) {
  for (const char c : magic) put_u8(std::uint8_t(c));
  put_u32(version);
}

std::vector<std::uint8_t> Writer::seal() && {
  put_u64(fnv1a(kFnvSeed, bytes_.data(), bytes_.size()));
  return std::move(bytes_);
}

Expected<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Error{ErrorCode::Io, "cannot open " + path};
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof chunk, f)) > 0;)
    bytes.insert(bytes.end(), chunk, chunk + n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Error{ErrorCode::Io, "read error on " + path};
  return bytes;
}

Expected<Reader> open(std::span<const std::uint8_t> bytes,
                      const char (&magic)[4], std::uint32_t version,
                      ErrorCode code, const std::string& noun) {
  if (bytes.size() < kFrameBytes)
    return Error{code, noun + " is truncated (" +
                           std::to_string(bytes.size()) + " bytes)"};
  if (std::memcmp(bytes.data(), magic, 4) != 0)
    return Error{code, noun + " has bad magic (expected \"" +
                           std::string(magic, 4) + "\")"};
  const std::size_t body_end = bytes.size() - 8;
  Reader r(bytes.first(body_end));
  (void)r.take_u32(); // the magic, already compared
  const std::uint32_t got = r.take_u32();
  if (got != version)
    return Error{code, noun + " has unsupported version " +
                           std::to_string(got) + " (expected " +
                           std::to_string(version) + ")"};
  if (fnv1a(kFnvSeed, bytes.data(), body_end) !=
      Reader(bytes.subspan(body_end)).take_u64())
    return Error{code, noun + " failed its checksum"};
  return r;
}

} // namespace fdbist::common::binfile
