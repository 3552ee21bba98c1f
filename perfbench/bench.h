// perfbench — host-speed benchmark of the simulator, driven from outside.
//
// The driver runs the points of one workload (jbb, srv or mc) back to back
// on one host thread, round after round, and keeps each point's fastest
// run-phase time.  Every number it reports is measured through public entry
// points only: sim::Engine::run, srv::series / srv::run_server, mc::explore,
// plus the counts the program already exposes (sim::Stats,
// harness::RunResult, txtrace files, a pass-through sim::SchedulerHook).
// See perfbench/README.md for the workloads and metric definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/speedup.h"
#include "sim/engine.h"
#include "sim/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host-time spans at the benchmark's own layer boundaries, kept in memory
/// and written out once, when the run ends, as Chrome trace-event JSON.
class Spans {
 public:
  Spans() : t0_(Clock::now()) {}

  /// Records a finished span; returns its id (for children's `parent`).
  int add(const std::string& name, int parent, Clock::time_point start,
          Clock::time_point end, const std::string& point = "");
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string point;  ///< the point (request) the span belongs to
    int parent;
    double start_us;
    double end_us;
  };
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// How one execution of a point is instrumented.
struct RunOptions {
  sim::SchedulerHook* hook = nullptr;  ///< count pass: pass-through hook
  std::string trace_path;              ///< trace pass: txtrace file to write
  std::size_t trace_cap = 0;           ///< per-CPU trace buffer capacity
};

/// One execution of one point.
struct PointRun {
  bool ok = true;
  std::string why;  ///< failure reason when !ok
  Clock::time_point t_setup, t_run, t_check, t_end;  ///< phase boundaries
  std::uint64_t ops = 0;      ///< jbb requests, srv requests, mc schedules
  std::uint64_t witness = 0;  ///< must repeat exactly: simulated cycles
                              ///< (jbb, srv) or explored schedules (mc)
  harness::RunResult rr;      ///< simulated result (jbb, srv)
  sim::CpuStats stats;        ///< every sim::Stats counter, summed (jbb)
  std::uint64_t max_cpu_misses = 0;  ///< busiest CPU's L1 misses (jbb)

  double setup_s() const { return seconds_between(t_setup, t_run); }
  double run_s() const { return seconds_between(t_run, t_check); }

  /// Records a failure, closing any phase the failure cut short.
  void fail(const std::string& reason) {
    ok = false;
    why = reason;
    const Clock::time_point now = Clock::now();
    for (Clock::time_point* t : {&t_run, &t_check, &t_end}) {
      if (*t == Clock::time_point{}) *t = now;
    }
  }
};

struct Point {
  std::string series;
  int cpus = 0;
  bool tm = false;  ///< a transactional (kTcc) point; false for lock mode
  std::function<PointRun(std::uint64_t salt, const RunOptions&)> run;

  std::string label() const { return series + "@" + std::to_string(cpus); }
};

/// One benchmark workload: its points in canonical order plus, for jbb and
/// srv, the committed golden CSV rows that a salt-0 run must reproduce.
struct Workload {
  std::string name;
  std::vector<Point> points;
  bool hook_pass = false;   ///< the count pass applies (jbb)
  bool trace_pass = false;  ///< the trace pass applies (jbb, srv)
  /// "series,cpus" -> the rest of the committed CSV row (empty for mc).
  std::map<std::string, std::string> golden;
};

/// Builds `name`'s workload, reading golden CSVs from `root`.  Throws
/// std::runtime_error on an unknown name or a missing/garbled CSV.
Workload make_workload(const std::string& name, const std::string& root,
                       int mc_budget);

/// The CSV row (after "series,cpus,") a run reproduces, in the figure
/// driver's exact number formatting; `baseline_cycles` is the first point's.
std::string csv_tail(const harness::RunResult& r, double baseline_cycles);

/// Per-layer counts gathered by the count and trace passes of one point.
struct LayerCounts {
  std::uint64_t decisions = 0;  ///< scheduling decisions (count pass)
  bool trace_valid = false;     ///< no dropped events, file read back
  double traced_run_s = 0.0;
  std::uint64_t dropped = 0;
  std::uint64_t misses = 0;        ///< trace kMiss events
  std::uint64_t token_waits = 0;   ///< trace kLockBlock events
  std::uint64_t sem_locks = 0;     ///< trace kLockAcquire events
  std::uint64_t handler_runs = 0;  ///< trace kHandlerRun events
};

/// Runs the count pass on `p`: decisions seen by a pass-through hook.
PointRun count_pass(const Point& p, std::uint64_t salt, std::uint64_t& decisions);

/// Runs the trace pass on `p`, writing and reading back a trace file in
/// `dir`.  Re-runs once with an exactly sized buffer when events dropped.
PointRun trace_pass(const Point& p, std::uint64_t salt, const std::string& dir,
                    std::size_t first_cap, LayerCounts& out);

}  // namespace perfbench
