#include "fault/schedule_cache.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>

#include "common/atomic_file.hpp"
#include "common/binfile.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/fingerprint.hpp"
#include "fault/fault.hpp"
#include "gate/sim.hpp"

namespace fdbist::fault {

namespace {

std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

Error corrupt(const std::string& what) {
  return Error{ErrorCode::CorruptArtifact, what};
}

/// Same cap the simulator's Auto engine applies to the good trace: an
/// artifact whose trace cannot fit the compiled engine's budget would
/// never be used, so don't build (or retain) one.
constexpr std::size_t kArtifactTraceCap = std::size_t{512} << 20;

template <typename T, typename A>
std::size_t vector_bytes(const std::vector<T, A>& v) {
  return v.capacity() * sizeof(T);
}

} // namespace

std::uint64_t ArtifactKey::hash() const {
  std::uint64_t h = common::kFnvSeed;
  h = common::fnv1a_value(h, netlist_fp);
  h = common::fnv1a_value(h, stimulus_fp);
  h = common::fnv1a_value(h, faults_fp);
  h = common::fnv1a_value(h, pass_config);
  h = common::fnv1a_value(h, schedule_format);
  return h;
}

std::uint32_t encode_pass_config(const gate::PassOptions& p) {
  std::uint32_t m = 0;
  if (p.constant_fold) m |= 1u << 0;
  if (p.cse) m |= 1u << 1;
  if (p.dead_cone) m |= 1u << 2;
  if (p.relayout) m |= 1u << 3;
  return m;
}

ArtifactKey make_artifact_key(const gate::Netlist& nl,
                              std::span<const std::int64_t> stimulus,
                              std::span<const Fault> faults,
                              const gate::PassOptions& passes) {
  ArtifactKey k;
  k.netlist_fp = fingerprint_netlist(nl);
  k.stimulus_fp = fingerprint_stimulus(stimulus);
  k.faults_fp = fingerprint_faults(faults);
  k.pass_config = encode_pass_config(passes);
  k.schedule_format = gate::kScheduleFormatVersion;
  return k;
}

std::size_t CompiledArtifact::memory_bytes() const {
  std::size_t b = sizeof(CompiledArtifact);
  b += netlist.size() * (sizeof(gate::Gate) + sizeof(gate::GateOrigin));
  b += netlist.registers().size() * sizeof(gate::RegBit);
  b += vector_bytes(net_map);
  b += vector_bytes(collapsed_faults);
  b += vector_bytes(trace.bits);
  if (schedule) {
    // SoA arrays + CSR, all sized by the post-pass netlist.
    const std::size_t n = schedule->size();
    b += n * (sizeof(gate::GateOp) + 2 * sizeof(gate::NetId) +
              sizeof(std::int32_t) + 1) +
         (n + 1) * sizeof(std::int32_t);
    std::size_t edges = 0;
    for (const gate::Gate& g : netlist.gates()) {
      if (g.a != gate::kNoNet) ++edges;
      if (g.b != gate::kNoNet) ++edges;
    }
    edges += netlist.registers().size();
    b += edges * sizeof(gate::NetId);
  }
  return b;
}

FaultSimStats acquire_artifact(ScheduleCache* cache, const gate::Netlist& nl,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               FaultSimOptions& opt) {
  FaultSimStats st;
  if (cache == nullptr || opt.artifact != nullptr ||
      opt.engine == FaultSimEngine::FullSweep)
    return st;
  ArtifactCacheStats cs;
  opt.artifact = cache->acquire(nl, stimulus, faults, opt.passes, cs);
  st.artifact_mem_hits = cs.mem_hits;
  st.artifact_disk_hits = cs.disk_hits;
  st.artifact_misses = cs.misses;
  st.artifact_evictions = cs.evictions;
  st.artifact_load_failures = cs.load_failures;
  st.prep_artifact_load_ns = cs.load_ns;
  st.prep_artifact_build_ns = cs.build_ns;
  st.prep_artifact_save_ns = cs.save_ns;
  // A cache miss built the artifact, which compiled the schedule once —
  // the one compilation a sliced campaign pays per design.
  st.schedule_compilations = cs.misses;
  if (opt.artifact == nullptr || !opt.artifact->ran_passes || cs.misses == 0)
    return st;
  st.pipeline_runs = 1;
  st.pipeline_gates_before = opt.artifact->gates_before;
  st.pipeline_gates_after = opt.artifact->gates_after;
  for (const gate::PassDelta& pd : opt.artifact->deltas) {
    auto& pc = st.passes[std::size_t(pd.kind)];
    pc.runs += pd.runs;
    pc.gates_removed += pd.gates_removed;
    pc.edges_removed += pd.edges_removed;
    pc.regs_removed += pd.regs_removed;
  }
  return st;
}

std::shared_ptr<const CompiledArtifact> build_artifact(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    std::span<const Fault> faults, const gate::PassOptions& passes) {
  FDBIST_REQUIRE(!stimulus.empty() && !faults.empty(),
                 "artifact build needs a stimulus and a fault universe");
  auto art = std::make_shared<CompiledArtifact>();
  art->key = make_artifact_key(nl, stimulus, faults, passes);
  art->fault_count = faults.size();
  art->stimulus_len = stimulus.size();

  if (passes.any()) {
    // Protect the FULL universe's sites: a superset of any slice's
    // sites, so one artifact serves every slice bit-identically.
    std::vector<gate::NetId> sites;
    sites.reserve(faults.size());
    for (const Fault& f : faults) sites.push_back(f.gate);
    gate::PassPipelineResult pipe = gate::run_passes(nl, sites, passes);
    art->netlist = std::move(pipe.netlist);
    art->net_map = std::move(pipe.net_map);
    art->ran_passes = true;
    art->gates_before = pipe.gates_before;
    art->gates_after = pipe.gates_after;
    art->deltas = std::move(pipe.deltas);
  } else {
    // No pipeline: the artifact still caches compilation and the trace.
    // A structural copy through add_gate keeps the artifact
    // self-contained (it must not reference the caller's netlist).
    for (const gate::Gate& g : nl.gates())
      art->netlist.add_gate(g.op, g.a, g.b);
    art->netlist.registers() = nl.registers();
    art->netlist.inputs() = nl.inputs();
    art->netlist.outputs() = nl.outputs();
    art->net_map.resize(nl.size());
    for (std::size_t i = 0; i < nl.size(); ++i)
      art->net_map[i] = gate::NetId(i);
    art->gates_before = art->gates_after = nl.logic_gate_count();
  }

  art->collapsed_faults.assign(faults.begin(), faults.end());
  for (Fault& f : art->collapsed_faults) {
    const gate::NetId m = art->net_map[std::size_t(f.gate)];
    FDBIST_ASSERT(m != gate::kNoNet, "pass pipeline dropped a fault site");
    f.gate = m;
  }

  art->schedule.emplace(art->netlist);
  art->trace =
      gate::record_good_trace(*art->schedule, stimulus, stimulus.size());
  return art;
}

std::vector<std::uint8_t> serialize_artifact(const CompiledArtifact& art) {
  FDBIST_REQUIRE(art.schedule.has_value(),
                 "serializing an artifact without a schedule");
  common::binfile::Writer w(gate::kArtifactMagic, gate::kArtifactVersion);
  gate::ArtifactHeader h;
  h.schedule_format = art.key.schedule_format;
  h.pass_config = art.key.pass_config;
  h.netlist_fp = art.key.netlist_fp;
  h.stimulus_fp = art.key.stimulus_fp;
  h.faults_fp = art.key.faults_fp;
  h.fault_count = art.fault_count;
  h.stimulus_len = art.stimulus_len;
  gate::write_artifact_header(w, h);

  gate::write_netlist(w, art.netlist);

  w.put_u64(art.net_map.size());
  for (const gate::NetId m : art.net_map) w.put_i32(m);

  w.put_u64(art.collapsed_faults.size());
  for (const Fault& f : art.collapsed_faults) {
    w.put_i32(f.gate);
    w.put_u8(std::uint8_t(f.site));
    w.put_u8(f.stuck);
  }

  gate::write_schedule(w, *art.schedule);
  gate::write_trace(w, art.trace);
  return std::move(w).seal();
}

Expected<std::shared_ptr<const CompiledArtifact>> deserialize_artifact(
    std::span<const std::uint8_t> bytes, const ArtifactKey& expect) {
  auto opened = common::binfile::open(bytes, gate::kArtifactMagic,
                                      gate::kArtifactVersion,
                                      ErrorCode::CorruptArtifact, "artifact");
  if (!opened) return opened.error();
  common::binfile::Reader& r = *opened;

  auto header = gate::read_artifact_header(r);
  if (!header) return header.error();
  ArtifactKey got;
  got.netlist_fp = header->netlist_fp;
  got.stimulus_fp = header->stimulus_fp;
  got.faults_fp = header->faults_fp;
  got.pass_config = header->pass_config;
  got.schedule_format = header->schedule_format;
  if (!(got == expect))
    return Error{ErrorCode::FingerprintMismatch,
                 "artifact was written for a different "
                 "design/stimulus/universe/configuration"};

  auto art = std::make_shared<CompiledArtifact>();
  art->key = got;
  art->fault_count = header->fault_count;
  art->stimulus_len = header->stimulus_len;

  auto nl = gate::read_netlist(r);
  if (!nl) return nl.error();
  art->netlist = std::move(*nl);
  const std::size_t post_n = art->netlist.size();

  const std::uint64_t map_size = r.take_u64();
  if (r.failed() || !r.fits(map_size, 4))
    return corrupt("retarget map exceeds the file");
  art->net_map.resize(std::size_t(map_size));
  for (std::uint64_t i = 0; i < map_size; ++i) {
    const gate::NetId m = r.take_i32();
    if (m != gate::kNoNet && (m < 0 || std::size_t(m) >= post_n))
      return corrupt("retarget map entry out of range");
    art->net_map[std::size_t(i)] = m;
  }

  const std::uint64_t fault_count = r.take_u64();
  if (r.failed() || !r.fits(fault_count, 6))
    return corrupt("fault universe exceeds the file");
  if (fault_count != art->fault_count)
    return corrupt("fault section holds " + std::to_string(fault_count) +
                   " faults, header claims " +
                   std::to_string(art->fault_count));
  art->collapsed_faults.resize(std::size_t(fault_count));
  for (std::uint64_t i = 0; i < fault_count; ++i) {
    Fault& f = art->collapsed_faults[std::size_t(i)];
    f.gate = r.take_i32();
    const std::uint8_t site = r.take_u8();
    f.stuck = r.take_u8();
    if (f.gate < 0 || std::size_t(f.gate) >= post_n ||
        site > std::uint8_t(gate::PinSite::InputB) || f.stuck > 1)
      return corrupt("collapsed fault " + std::to_string(i) + " is invalid");
    f.site = gate::PinSite(site);
  }

  auto parts = gate::read_schedule(r, art->netlist);
  if (!parts) return parts.error();
  art->schedule.emplace(art->netlist, std::move(*parts));

  auto trace = gate::read_trace(r, post_n, std::size_t(art->stimulus_len));
  if (!trace) return trace.error();
  art->trace = std::move(*trace);

  if (r.failed()) return corrupt("artifact ends prematurely");
  if (r.remaining() != 0)
    return corrupt(std::to_string(r.remaining()) +
                   " trailing bytes after the trace");
  return std::shared_ptr<const CompiledArtifact>(std::move(art));
}

Expected<void> save_artifact(const std::string& path,
                             const CompiledArtifact& art) {
  if (common::failpoint_eval("artifact-save-error"))
    return Error{ErrorCode::Io, "injected artifact save failure (failpoint)"};
  const std::vector<std::uint8_t> bytes = serialize_artifact(art);
  return common::atomic_write_file(path, bytes, "artifact");
}

Expected<std::shared_ptr<const CompiledArtifact>> load_artifact(
    const std::string& path, const ArtifactKey& expect) {
  auto bytes = common::binfile::read_file(path);
  if (!bytes) return bytes.error();
  // Chaos seam: simulate a disk that returned garbage. The flipped byte
  // must be caught by the checksum like any real corruption.
  if (common::failpoint_eval("artifact-load-corrupt") && !bytes->empty())
    (*bytes)[bytes->size() / 2] ^= 0x5A;
  return deserialize_artifact(*bytes, expect);
}

ScheduleCache::ScheduleCache(Config cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.dir.empty()) {
    // Best-effort: a directory that cannot be created degrades to
    // per-save Io errors, which acquire() already absorbs.
    ::mkdir(cfg_.dir.c_str(), 0777);
  }
}

std::string ScheduleCache::entry_path(const ArtifactKey& key) const {
  char name[32];
  std::snprintf(name, sizeof name, "fdba-%016llx.fdba",
                static_cast<unsigned long long>(key.hash()));
  return cfg_.dir + "/" + name;
}

std::string ScheduleCache::env_dir() {
  const char* dir = std::getenv("FDBIST_SCHEDULE_CACHE");
  return dir == nullptr ? std::string() : std::string(dir);
}

std::size_t ScheduleCache::resident_bytes() const {
  const std::scoped_lock lock(mu_);
  return bytes_;
}

std::size_t ScheduleCache::resident_entries() const {
  const std::scoped_lock lock(mu_);
  return map_.size();
}

std::shared_ptr<const CompiledArtifact> ScheduleCache::lookup_locked(
    const ArtifactKey& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it); // touch
  return it->second.art;
}

void ScheduleCache::insert(const std::shared_ptr<const CompiledArtifact>& art,
                           ArtifactCacheStats& stats) {
  const std::size_t bytes = art->memory_bytes();
  if (bytes > cfg_.mem_budget_bytes) return; // handed out, never retained
  const std::scoped_lock lock(mu_);
  if (map_.find(art->key) != map_.end()) return; // racing build: keep first
  lru_.push_front(art->key);
  map_.emplace(art->key, Entry{art, bytes, lru_.begin()});
  bytes_ += bytes;
  while (bytes_ > cfg_.mem_budget_bytes && lru_.size() > 1) {
    const ArtifactKey victim = lru_.back();
    const auto vit = map_.find(victim);
    bytes_ -= vit->second.bytes;
    map_.erase(vit);
    lru_.pop_back();
    ++stats.evictions;
  }
}

std::shared_ptr<const CompiledArtifact> ScheduleCache::acquire(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    std::span<const Fault> faults, const gate::PassOptions& passes,
    ArtifactCacheStats& stats) {
  if (faults.empty() || stimulus.empty()) return nullptr;
  if (gate::GoodTrace::bytes_needed(nl.size(), stimulus.size()) >
      kArtifactTraceCap)
    return nullptr; // the compiled engine would refuse this trace anyway

  const ArtifactKey key = make_artifact_key(nl, stimulus, faults, passes);
  {
    const std::scoped_lock lock(mu_);
    if (auto hit = lookup_locked(key)) {
      ++stats.mem_hits;
      return hit;
    }
  }

  if (!cfg_.dir.empty()) {
    const std::string path = entry_path(key);
    const std::uint64_t t0 = now_ns();
    auto loaded = load_artifact(path, key);
    if (loaded) {
      stats.load_ns += now_ns() - t0;
      ++stats.disk_hits;
      insert(*loaded, stats);
      return *loaded;
    }
    stats.load_ns += now_ns() - t0;
    if (loaded.error().code != ErrorCode::Io) {
      // Torn, corrupt, foreign or stale-format file: refuse, drop it,
      // rebuild. Io usually just means "not cached yet".
      ++stats.load_failures;
      std::remove(path.c_str());
    }
  }

  const std::uint64_t b0 = now_ns();
  std::shared_ptr<const CompiledArtifact> art =
      build_artifact(nl, stimulus, faults, passes);
  stats.build_ns += now_ns() - b0;
  ++stats.misses;
  insert(art, stats);

  if (!cfg_.dir.empty()) {
    const std::uint64_t s0 = now_ns();
    // Save failures (full disk, injected faults) are absorbed: the
    // cache is an accelerator, never a correctness dependency.
    (void)save_artifact(entry_path(key), *art);
    stats.save_ns += now_ns() - s0;
  }
  return art;
}

} // namespace fdbist::fault
