#include "dist/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>

#include "common/subprocess.hpp"
#include "dist/protocol.hpp"
#include "dist/queue.hpp"
#include "fault/schedule_cache.hpp"

namespace fdbist::dist {

namespace {

constexpr std::size_t kNoSlice = static_cast<std::size_t>(-1);

std::uint64_t steady_now_ms() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

void sleep_ms(std::uint64_t ms) {
  ::poll(nullptr, 0, int(std::min<std::uint64_t>(ms, 1'000)));
}

std::string describe_status(int status) {
  if (WIFEXITED(status))
    return "exited " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status));
  return "stopped";
}

/// One worker process slot. A slot outlives individual workers: when
/// its child dies it is respawned (budget permitting) under the same
/// slot index.
struct Slot {
  common::ChildProcess child;
  std::unique_ptr<common::LineReader> reader;
  bool alive = false;
  bool ready = false; ///< HELLO received
  std::size_t slice = kNoSlice;
  std::uint64_t hello_deadline = 0;
};

struct Coordinator {
  const gate::Netlist& nl;
  std::span<const std::int64_t> stimulus;
  std::span<const fault::Fault> faults;
  const DistOptions& opt;

  UniverseFp fp{};
  DistResult res;
  common::CancelToken token;
  std::unique_ptr<SliceQueue> queue;
  std::vector<Slot> slots;
  std::size_t spawn_budget = 0;
  std::size_t merged_faults = 0;
  std::size_t inline_owner = 0;
  /// opt.compute, plus the artifact once the first inline slice has
  /// acquired it.
  SliceComputeOptions compute;

  Coordinator(const gate::Netlist& nl_, std::span<const std::int64_t> stim,
              std::span<const fault::Fault> faults_, const DistOptions& o)
      : nl(nl_), stimulus(stim), faults(faults_), opt(o),
        token(o.cancel), compute(o.compute) {}

  void logf(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    if (!opt.verbose) return;
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("[coord] ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
  }

  void report_progress() {
    if (opt.progress) opt.progress(merged_faults, faults.size());
  }

  bool stopping() const { return res.stop_reason.has_value(); }

  /// Return a leased slice to the queue; a slice out of attempts ends
  /// the campaign with WorkerLost.
  void fail_slice(std::size_t slice) {
    ++res.slices_reassigned;
    if (!queue->release(slice) && !res.stop_reason) {
      logf("slice %zu exhausted its %zu attempts; giving up", slice,
           opt.max_slice_attempts);
      res.stop_reason = ErrorCode::WorkerLost;
    }
  }

  /// Load, validate, and merge slice `slice`'s partial file, plus the
  /// engine stats of a slice computed inline (null for a worker's). A
  /// bad file is a retryable event; a merge-audit violation is a
  /// coordinator bug and surfaces as a hard error.
  Expected<void> merge_done(std::size_t slice,
                            const fault::FaultSimStats* inline_stats) {
    const SliceSpec& spec = queue->spec(slice);
    const std::string path = partial_path(opt.dir, slice);
    auto reject = [&](const Error& e) {
      logf("slice %zu partial rejected (%s); re-queuing", slice,
           e.to_string().c_str());
      ++res.partials_rejected;
      std::remove(path.c_str());
      fail_slice(slice);
    };

    auto p = load_partial(path);
    if (!p) {
      reject(p.error());
      return {};
    }
    if (auto v = validate_partial(*p, fp, faults.size(), stimulus.size(),
                                  spec.lo, spec.count, opt.compute.signature);
        !v) {
      reject(v.error());
      return {};
    }
    if (auto m = merge_partial(res.sim, *p); !m) return m.error();
    queue->complete(slice);
    merged_faults += spec.count;
    if (inline_stats != nullptr) {
      ++res.inline_slices;
      res.sim.stats.merge(*inline_stats);
    }
    report_progress();
    return {};
  }

  /// The slot's child is gone: drain any final buffered messages, reap,
  /// and re-queue its slice.
  Expected<void> slot_died(std::size_t i, const std::string& why) {
    Slot& s = slots[i];
    if (!s.alive) return {};
    if (s.reader) {
      s.reader->feed();
      while (s.alive) {
        const auto line = s.reader->next_line();
        if (!line) break;
        if (auto h = handle_line(i, *line); !h) return h.error();
      }
    }
    if (!s.alive) return {}; // handle_line already tore it down
    logf("worker %zu %s", i, why.c_str());
    common::close_child_pipes(s.child);
    common::wait_child(s.child, true);
    s.reader.reset();
    s.alive = false;
    s.ready = false;
    ++res.workers_lost;
    if (s.slice != kNoSlice) {
      fail_slice(s.slice);
      s.slice = kNoSlice;
    }
    return {};
  }

  void kill_slot(std::size_t i, const char* why) {
    Slot& s = slots[i];
    if (!s.alive) return;
    logf("worker %zu %s; killing", i, why);
    common::kill_child(s.child, SIGKILL);
    common::close_child_pipes(s.child);
    common::wait_child(s.child, true);
    s.reader.reset();
    s.alive = false;
    s.ready = false;
    ++res.workers_lost;
    if (s.slice != kNoSlice) {
      fail_slice(s.slice);
      s.slice = kNoSlice;
    }
  }

  Expected<void> handle_line(std::size_t i, const std::string& line) {
    Slot& s = slots[i];
    auto m = parse_message(line);
    if (!m || m->kind == MsgKind::Slice || m->kind == MsgKind::Exit) {
      kill_slot(i, m ? "sent a command verb" : "sent a malformed line");
      return {};
    }
    switch (m->kind) {
    case MsgKind::Hello:
      s.ready = true;
      s.hello_deadline = 0;
      break;
    case MsgKind::Progress:
      if (s.slice == m->a) queue->renew(m->a);
      break;
    case MsgKind::Done:
      if (s.slice == m->a) {
        const std::size_t slice = m->a;
        s.slice = kNoSlice;
        return merge_done(slice, nullptr);
      }
      break;
    case MsgKind::Fail:
      logf("worker %zu failed slice %zu: %s", i, m->a, m->text.c_str());
      if (s.slice == m->a) {
        s.slice = kNoSlice;
        fail_slice(m->a);
      }
      break;
    default:
      break;
    }
    return {};
  }

  Expected<void> reap_dead_workers() {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].alive) continue;
      const auto st = common::wait_child(slots[i].child, false);
      if (!st) continue;
      if (auto d = slot_died(i, describe_status(*st)); !d) return d.error();
      if (stopping()) return {};
    }
    return {};
  }

  void expire_leases() {
    const std::uint64_t now = steady_now_ms();
    for (const std::size_t idx : queue->expired()) {
      ++res.leases_expired;
      const std::size_t owner = queue->owner(idx);
      logf("lease expired on slice %zu (owner %zu)", idx, owner);
      if (owner < slots.size() && slots[owner].alive &&
          slots[owner].slice == idx) {
        kill_slot(owner, "hung past its lease"); // releases the slice
      } else {
        fail_slice(idx);
      }
      if (stopping()) return;
    }
    // A spawned worker that never says HELLO is equally hung.
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (slots[i].alive && !slots[i].ready &&
          slots[i].hello_deadline <= now)
        kill_slot(i, "never sent HELLO");
  }

  void spawn_missing() {
    if (opt.worker_argv.empty()) return;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].alive || spawn_budget == 0 || !queue->work_remains())
        continue;
      --spawn_budget;
      std::vector<std::string> argv = opt.worker_argv;
      argv.push_back(std::to_string(i));
      auto c = common::spawn_child(argv);
      if (!c) {
        logf("spawn of worker %zu failed: %s", i,
             c.error().to_string().c_str());
        continue;
      }
      ++res.workers_spawned;
      Slot& s = slots[i];
      s.child = *c;
      s.reader = std::make_unique<common::LineReader>(c->read_fd);
      s.alive = true;
      s.ready = false;
      s.slice = kNoSlice;
      s.hello_deadline = steady_now_ms() + opt.lease_ms;
    }
  }

  Expected<void> assign_slices() {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (!s.alive || !s.ready || s.slice != kNoSlice) continue;
      const auto idx = queue->acquire(i);
      if (!idx) break;
      const SliceSpec& spec = queue->spec(*idx);
      Message m;
      m.kind = MsgKind::Slice;
      m.a = *idx;
      m.b = spec.lo;
      m.c = spec.count;
      s.slice = *idx;
      logf("slice %zu [%zu, +%zu) -> worker %zu (attempt %zu)", *idx,
           spec.lo, spec.count, i, queue->attempts(*idx));
      if (!common::write_line(s.child.write_fd, format_message(m))) {
        if (auto d = slot_died(i, "pipe closed"); !d) return d.error();
      }
      if (stopping()) return {};
    }
    return {};
  }

  std::size_t alive_count() const {
    std::size_t n = 0;
    for (const Slot& s : slots) n += s.alive ? 1 : 0;
    return n;
  }

  /// No workers left and none spawnable: the coordinator computes a
  /// slice itself. Blocking is fine — there is nobody else to service.
  Expected<void> inline_step() {
    const auto idx = queue->acquire(inline_owner);
    if (!idx) {
      sleep_ms(std::max<std::uint64_t>(queue->next_event_delay_ms(100), 1));
      return {};
    }
    const SliceSpec& spec = queue->spec(*idx);
    logf("slice %zu [%zu, +%zu) running inline (attempt %zu)", *idx, spec.lo,
         spec.count, queue->attempts(*idx));
    // The artifact is acquired lazily on the first inline slice: a
    // campaign whose workers do all the work never pays for one the
    // coordinator won't use. Later inline slices reuse the handle.
    res.sim.stats.merge(fault::acquire_artifact(opt.schedule_cache, nl,
                                                stimulus, faults, compute));
    SliceComputeOptions c = compute;
    c.cancel = &token;
    c.progress = [this, idx](std::size_t, std::size_t) {
      queue->renew(*idx);
    };
    auto r = compute_and_save_slice(nl, stimulus, faults, fp, opt.dir, *idx,
                                    spec.lo, spec.count, c);
    if (!r) {
      if (r.error().code == ErrorCode::Cancelled ||
          r.error().code == ErrorCode::DeadlineExceeded) {
        queue->release(*idx); // an unfinished slice leaves no file
        res.stop_reason = r.error().code;
        return {};
      }
      logf("inline slice %zu failed: %s", *idx,
           r.error().to_string().c_str());
      fail_slice(*idx);
      return {};
    }
    return merge_done(*idx, &*r);
  }

  Expected<void> poll_and_drain() {
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> owners;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].alive) continue;
      fds.push_back({slots[i].child.read_fd, POLLIN, 0});
      owners.push_back(i);
    }
    const int timeout =
        int(std::min<std::uint64_t>(queue->next_event_delay_ms(100), 100));
    if (fds.empty()) {
      sleep_ms(std::uint64_t(std::max(timeout, 1)));
      return {};
    }
    const int n = ::poll(fds.data(), nfds_t(fds.size()), timeout);
    if (n <= 0) return {}; // timeout or EINTR; the loop re-evaluates
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t i = owners[k];
      Slot& s = slots[i];
      if (!s.alive) continue;
      s.reader->feed();
      while (s.alive) {
        const auto line = s.reader->next_line();
        if (!line) break;
        if (auto h = handle_line(i, *line); !h) return h.error();
        if (stopping()) return {};
      }
      if (s.alive && s.reader->eof())
        if (auto d = slot_died(i, "closed its pipe"); !d) return d.error();
      if (stopping()) return {};
    }
    return {};
  }

  void shutdown_workers() {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      if (!s.alive) continue;
      if (queue->all_done()) {
        Message m;
        m.kind = MsgKind::Exit;
        common::write_line(s.child.write_fd, format_message(m));
      } else {
        // Early stop: don't wait out an in-flight slice; a later run
        // recomputes it.
        common::kill_child(s.child, SIGKILL);
      }
      common::close_child_pipes(s.child);
      common::wait_child(s.child, true);
      s.reader.reset();
      s.alive = false;
    }
  }

  Expected<DistResult> run() {
    common::ignore_sigpipe();
    if (opt.dir.empty())
      return Error{ErrorCode::InvalidArgument,
                   "distributed campaign needs a scratch directory"};
    // A path that is a plain file must fail here, not burn every
    // slice's attempts on failed saves.
    std::error_code ec, stat_ec;
    std::filesystem::create_directories(opt.dir, ec);
    if (!std::filesystem::is_directory(opt.dir, stat_ec))
      return Error{ErrorCode::Io,
                   "cannot create scratch directory " + opt.dir +
                       (ec ? " (" + ec.message() + ")" : std::string())};
    if (opt.deadline_s > 0) token.set_deadline_after(opt.deadline_s);
    fp = fingerprint_universe(nl, stimulus, faults, opt.compute.family);

    const std::size_t total = faults.size();
    const std::size_t per = std::max<std::size_t>(opt.slice_faults, 1);
    std::vector<SliceSpec> specs;
    for (std::size_t lo = 0; lo < total; lo += per)
      specs.push_back({lo, std::min(per, total - lo)});
    res.slices = specs.size();
    res.sim.total_faults = total;
    res.sim.vectors = stimulus.size();
    res.sim.detect_cycle.assign(total, -1);
    res.sim.finalized.assign(total, 0);
    if (opt.compute.signature.enabled())
      res.sim.signature_detect.assign(total, 0);

    queue = std::make_unique<SliceQueue>(
        std::move(specs), opt.lease_ms, std::max<std::size_t>(
                                            opt.max_slice_attempts, 1),
        opt.backoff_base_ms, std::max(opt.backoff_cap_ms, opt.backoff_base_ms),
        /*jitter_seed=*/fp.faults, steady_now_ms);
    inline_owner = opt.num_workers; // any id no slot can hold

    // Adopt partials a previous coordinator (or its workers) left
    // behind; delete anything unusable so it gets recomputed.
    for (std::size_t i = 0; i < queue->size(); ++i) {
      const std::string path = partial_path(opt.dir, i);
      auto p = load_partial(path);
      if (!p) {
        if (p.error().code != ErrorCode::Io) std::remove(path.c_str());
        continue;
      }
      const SliceSpec& spec = queue->spec(i);
      if (!validate_partial(*p, fp, total, stimulus.size(), spec.lo,
                            spec.count, opt.compute.signature)) {
        std::remove(path.c_str());
        continue;
      }
      if (auto m = merge_partial(res.sim, *p); !m) return m.error();
      queue->complete(i);
      merged_faults += spec.count;
      ++res.resumed_slices;
    }
    if (res.resumed_slices > 0) {
      logf("resumed %zu of %zu slices from existing partials",
           res.resumed_slices, queue->size());
      report_progress();
    }

    slots.resize(opt.worker_argv.empty() ? 0 : opt.num_workers);
    spawn_budget =
        opt.worker_argv.empty() ? 0 : opt.num_workers + opt.max_respawns;

    while (!queue->all_done() && !stopping()) {
      if (token.cancelled()) {
        res.stop_reason = token.reason();
        break;
      }
      if (auto r = reap_dead_workers(); !r) return r.error();
      if (stopping()) break;
      expire_leases();
      if (stopping()) break;
      spawn_missing();
      if (auto a = assign_slices(); !a) return a.error();
      if (stopping()) break;
      if (alive_count() == 0 && spawn_budget == 0) {
        if (auto s = inline_step(); !s) return s.error();
        continue;
      }
      if (auto p = poll_and_drain(); !p) return p.error();
    }

    shutdown_workers();
    if (res.stop_reason) {
      res.sim.complete = false;
    } else {
      if (auto c = res.sim.require_complete(); !c) return c.error();
    }
    return std::move(res);
  }
};

} // namespace

Expected<DistResult> run_distributed(const gate::Netlist& nl,
                                     std::span<const std::int64_t> stimulus,
                                     std::span<const fault::Fault> faults,
                                     const DistOptions& opt) {
  Coordinator c(nl, stimulus, faults, opt);
  return c.run();
}

} // namespace fdbist::dist
