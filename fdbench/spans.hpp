// In-memory span recorder for the benchmark's traced run.
//
// Every timed library call in a traced iteration opens a span: name,
// start, end, parent span and the cell it belongs to. Spans stay in
// memory while the run measures; the benchmark writes them out once at
// the end (Chrome trace-event JSON, viewable in Perfetto) and folds
// them into per-layer self times. The untraced run never constructs a
// Tracer, so timing e2e metrics costs nothing here.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace fdbench {

inline double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1; ///< index into Tracer::spans, -1 for a root
  int cell = -1;   ///< cell id shared by the cell's spans, -1 outside cells
};

class Tracer {
public:
  std::vector<Span> spans;

  int open(std::string name, int cell) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans.push_back({std::move(name), now_s(), 0, parent, cell});
    stack_.push_back(int(spans.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    spans[std::size_t(idx)].end = now_s();
    stack_.pop_back();
  }

  /// Self time per span name over spans[first, end): each span's
  /// duration minus the durations of its direct children.
  std::map<std::string, double> self_times(std::size_t first) const {
    std::map<std::string, double> out;
    for (std::size_t i = first; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out[s.name] += s.end - s.start;
      if (s.parent >= int(first))
        out[spans[std::size_t(s.parent)].name] -= s.end - s.start;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans.empty() ? 0 : spans.front().start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"cell\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), (s.start - t0) * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent, s.cell);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

private:
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
public:
  Scope(Tracer* t, std::string name, int cell = -1)
      : t_(t), idx_(t != nullptr ? t->open(std::move(name), cell) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer* t_;
  int idx_;
};

} // namespace fdbench
