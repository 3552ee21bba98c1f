// Per-layer instrumentation from outside the program: a pass-through
// scheduler hook that counts decisions, txtrace files read back for event
// counts, and the benchmark's own spans.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "trace/reader.h"

namespace perfbench {
namespace {

/// Defers every decision to the engine's own policy (bit-identical cycles)
/// and counts how many decisions there were.
class CountingHook : public sim::SchedulerHook {
 public:
  int pick(const std::vector<int>&) override {
    ++decisions;
    return kUseDefault;
  }
  std::uint64_t decisions = 0;
};

// Trace buffers are allocated up front (24 bytes per event per CPU); an
// exact re-run is skipped rather than allocate more than this.
constexpr std::size_t kMaxTraceBytes = std::size_t{1} << 30;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int Spans::add(const std::string& name, int parent, Clock::time_point start,
               Clock::time_point end, const std::string& point) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  };
  spans_.push_back({name, point, parent, us(start), us(end)});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"point\":\"" << json_escape(s.point)
        << "\"}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

PointRun count_pass(const Point& p, std::uint64_t salt, std::uint64_t& decisions) {
  CountingHook hook;
  RunOptions o;
  o.hook = &hook;
  PointRun pr = p.run(salt, o);
  decisions = hook.decisions;
  return pr;
}

PointRun trace_pass(const Point& p, std::uint64_t salt, const std::string& dir,
                    std::size_t first_cap, LayerCounts& out) {
  RunOptions o;
  o.trace_path = dir + "/point.trace";
  o.trace_cap = first_cap;
  PointRun pr;
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::filesystem::remove(o.trace_path);
    pr = p.run(salt, o);
    out = LayerCounts{.decisions = out.decisions};
    out.traced_run_s = pr.run_s();
    if (!pr.ok) return pr;
    trace::TraceFile tf;
    try {
      tf = trace::read_trace_file(o.trace_path);
    } catch (const std::exception& e) {
      pr.fail(std::string("trace: ") + e.what());
      return pr;
    }
    std::filesystem::remove(o.trace_path);
    std::size_t need = 0;
    for (std::size_t c = 0; c < tf.events.size(); ++c) {
      out.dropped += tf.dropped[c];
      need = std::max(need, tf.events[c].size() + tf.dropped[c]);
      for (const trace::Event& e : tf.events[c]) {
        switch (static_cast<trace::Kind>(e.kind)) {
          case trace::Kind::kMiss: ++out.misses; break;
          case trace::Kind::kLockBlock: ++out.token_waits; break;
          case trace::Kind::kLockAcquire: ++out.sem_locks; break;
          case trace::Kind::kHandlerRun: ++out.handler_runs; break;
          default: break;
        }
      }
    }
    out.trace_valid = out.dropped == 0;
    // Dropped events make every count of this point invalid, never partial:
    // re-run once with a buffer sized to the events the first try saw.
    const std::size_t bytes = need * sizeof(trace::Event) * static_cast<std::size_t>(p.cpus);
    if (out.trace_valid || bytes > kMaxTraceBytes) break;
    o.trace_cap = need;
  }
  return pr;
}

}  // namespace perfbench
