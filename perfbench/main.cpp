// perfbench driver: runs one workload for a fixed host-time budget and
// prints the metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload jbb|srv|mc --seed N --seconds S --trace 0|1
//             [--root DIR] [--out DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md).  Exit status: 0 when every check passed,
// 1 on a failed check or a set-up error, 2 on a usage error.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Clock;
using perfbench::LayerCounts;
using perfbench::PointRun;
using perfbench::seconds_between;

// Every point runs at least twice, so that its simulated result is checked
// for repeatability even under a tiny --seconds.
constexpr int kMinRounds = 2;
// After every round the global set-up (golden CSVs, point list, litmus
// corpus) is repeated once and the process start probed this many times,
// so that their fastest repetitions, too, are drawn from across the run.
constexpr int kProbesPerRound = 3;
// Schedules mc::explore may run per litmus program: large enough that each
// program's exploration takes tens of milliseconds.
constexpr int kMcBudget = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string root = ".";
  std::string out = ".bench_build/perfbench/out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload jbb|srv|mc --seed N --seconds S --trace 0|1\n"
               "                 [--root DIR] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--root") {
      a.root = v;
    } else if (flag == "--out") {
      a.out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "jbb" && a.workload != "srv" && a.workload != "mc")
    usage("--workload must be jbb, srv or mc");
  if (!have_seed || a.seconds <= 0.0 || a.trace < 0)
    usage("--seed, --seconds and --trace are required");
  return a;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Host seconds to launch this binary with --probe and reap it: the
// process-start share of setup_s.
double probe_process_start() {
  char exe[] = "/proc/self/exe";
  char flag[] = "--probe";
  char* child_argv[] = {exe, flag, nullptr};
  const Clock::time_point t = Clock::now();
  pid_t pid = 0;
  if (posix_spawn(&pid, exe, nullptr, nullptr, child_argv, environ) != 0)
    throw std::runtime_error("cannot launch the process-start probe");
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("process-start probe failed");
  return seconds_between(t, Clock::now());
}

}  // namespace

int main(int argc, char** argv) {
  // Process-start probe: probe_process_start times launching the binary
  // to this point.
  if (argc == 2 && std::string(argv[1]) == "--probe") return 0;
  const Args args = parse(argc, argv);

  // ---- set-up: golden CSVs, point list, litmus corpus; process start ----
  perfbench::Workload w;
  std::vector<double> setup_times, probe_times;
  auto set_up = [&] {
    const Clock::time_point t = Clock::now();
    perfbench::Workload built = perfbench::make_workload(args.workload, args.root, kMcBudget);
    setup_times.push_back(seconds_between(t, Clock::now()));
    for (int k = 0; k < kProbesPerRound; ++k) probe_times.push_back(probe_process_start());
    return built;
  };
  try {
    w = set_up();
    std::filesystem::create_directories(args.out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  const std::size_t n = w.points.size();
  const std::uint64_t salt = args.seed;

  perfbench::Spans spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool any_failed = false;
  std::vector<bool> reported(n, false);  // one failure message per point
  auto fail_point = [&](std::size_t i, const PointRun& pr, const std::string& why) {
    any_failed = true;
    failed += pr.ops;
    if (reported[i]) return;
    reported[i] = true;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", w.points[i].label().c_str(),
                 why.c_str());
  };
  // Spans for one execution: point -> setup / run / check.  The point's
  // self time is the world's teardown plus the golden-row comparison.
  auto record = [&](const char* pass, std::size_t i, const PointRun& pr) {
    const std::string label = w.points[i].label();
    const int id =
        spans.add(std::string(pass) + " " + label, -1, pr.t_setup, Clock::now(), label);
    spans.add("setup", id, pr.t_setup, pr.t_run, label);
    spans.add(args.workload == "mc" ? "explore" : "run", id, pr.t_run, pr.t_check, label);
    spans.add("check", id, pr.t_check, pr.t_end, label);
  };

  // ---- timed rounds: every point once, then every point again ----
  std::vector<std::vector<double>> run_times(n);  // per point, passing runs
  std::vector<double> setup_best(n, std::numeric_limits<double>::infinity());
  std::vector<PointRun> first(n);
  double baseline_cycles = 0.0;
  // A round starts only when it should end within --seconds, so a run
  // measures for at most --seconds (past the minimum rounds).
  const Clock::time_point t0 = Clock::now();
  int rounds = 0;
  double last_round_s = 0.0;
  while (rounds < kMinRounds ||
         seconds_between(t0, Clock::now()) + last_round_s <= args.seconds) {
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const perfbench::Point& p = w.points[i];
      PointRun pr = p.run(salt, perfbench::RunOptions{});
      attempted += pr.ops;
      std::string why = pr.why;
      if (rounds == 0) {
        if (i == 0) baseline_cycles = static_cast<double>(pr.rr.cycles);
        // At salt 0 a point must reproduce its committed figure CSV row.
        if (pr.ok && salt == 0 && !w.golden.empty()) {
          const auto row = w.golden.find(p.series + "," + std::to_string(p.cpus));
          const std::string got = perfbench::csv_tail(pr.rr, baseline_cycles);
          if (row == w.golden.end()) {
            pr.ok = false;
            why = "no committed CSV row";
          } else if (row->second != got) {
            pr.ok = false;
            why = "CSV row differs: committed " + row->second + ", got " + got;
          }
        }
        first[i] = pr;
      } else if (pr.ok && pr.witness != first[i].witness) {
        pr.ok = false;
        why = "simulated result differs between repetitions";
      }
      record("timed", i, pr);
      setup_best[i] = std::min(setup_best[i], pr.setup_s());
      if (pr.ok) {
        run_times[i].push_back(pr.run_s());
      } else {
        fail_point(i, pr, why);
      }
    }
    try {
      set_up();  // a repetition for setup_s; its workload is discarded
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      return 1;
    }
    last_round_s = seconds_between(round_start, Clock::now());
    ++rounds;
  }
  const double timed_s = seconds_between(t0, Clock::now());
  // A point's host time is its fastest repetition (NaN if none passed):
  // other tenants' interference slows runs, so the floor is what repeats
  // (STEADINESS.md compares it with the median).
  std::vector<double> best(n, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < n; ++i) {
    if (!run_times[i].empty())
      best[i] = *std::min_element(run_times[i].begin(), run_times[i].end());
  }

  // Sums over a subset of points of the best run-phase seconds and ops.
  // Wide points run at >= 64 CPUs; a workload without any (mc) counts its
  // widest points as wide, since an end-to-end metric must never read 0.
  int widest = 0;
  for (const perfbench::Point& p : w.points) widest = std::max(widest, p.cpus);
  const int wide_from = std::min(widest, 64);
  auto wide = [wide_from](const perfbench::Point& p) { return p.cpus >= wide_from; };
  auto narrow = [](const perfbench::Point& p) { return p.cpus <= 8; };
  auto all = [](const perfbench::Point&) { return true; };
  auto throughput = [&](auto keep) {
    double secs = 0.0, ops = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!keep(w.points[i]) || std::isnan(best[i])) continue;
      secs += best[i];
      ops += static_cast<double>(first[i].ops);
    }
    return ratio(ops, secs);
  };

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"ops_per_s", throughput(all), "1/s"},
        {"narrow_ops_per_s", throughput(narrow), "1/s"},
        {"wide_ops_per_s", throughput(wide), "1/s"},
        {"setup_s",
         *std::min_element(probe_times.begin(), probe_times.end()) +
             *std::min_element(setup_times.begin(), setup_times.end()) +
             std::accumulate(setup_best.begin(), setup_best.end(), 0.0),
         "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
  } else {
    // ---- count pass (twice) and trace pass: never timed ----
    std::vector<LayerCounts> lc(n);
    for (int pass = 0; w.hook_pass && pass < 2; ++pass) {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t decisions = 0;
        PointRun pr = perfbench::count_pass(w.points[i], salt, decisions);
        record("count", i, pr);
        attempted += pr.ops;
        if (pr.ok && pr.witness != first[i].witness)
          pr.fail("count-pass cycles differ from the timed pass");
        if (pr.ok && pass == 1 && decisions != lc[i].decisions)
          pr.fail("two count passes disagree on decisions");
        if (!pr.ok) fail_point(i, pr, pr.why);
        lc[i].decisions = decisions;
      }
    }
    for (std::size_t i = 0; w.trace_pass && i < n; ++i) {
      const perfbench::Point& p = w.points[i];
      // Buffers sized from the timed pass's busiest CPU where known; the
      // pass re-runs exactly sized when that guess drops events.
      const std::size_t cap = 2 * first[i].max_cpu_misses + 4096;
      PointRun pr = perfbench::trace_pass(p, salt, args.out, cap, lc[i]);
      record("traced", i, pr);
      attempted += pr.ops;
      if (pr.ok && pr.witness != first[i].witness)
        pr.fail("traced cycles differ from untraced cycles");
      if (pr.ok && lc[i].trace_valid && w.hook_pass && lc[i].misses != first[i].stats.l1_misses)
        pr.fail("trace kMiss events differ from sim::Stats L1 misses");
      if (!pr.ok) fail_point(i, pr, pr.why);
    }

    // Sums over the points that `keep` selects.
    struct Sums {
      double run_s = 0, ops = 0, decisions = 0, kcycles = 0, accesses = 0, commits = 0,
             aborts = 0, lost = 0, cpu_cycles = 0, spin = 0, misses = 0;
    };
    auto sums = [&](auto keep) {
      Sums s;
      for (std::size_t i = 0; i < n; ++i) {
        const perfbench::Point& p = w.points[i];
        if (!keep(p) || std::isnan(best[i])) continue;
        const PointRun& f = first[i];
        const double cpu_cycles = static_cast<double>(f.rr.cycles) * p.cpus;
        s.run_s += best[i];
        s.ops += static_cast<double>(f.ops);
        s.decisions += static_cast<double>(lc[i].decisions);
        s.kcycles += cpu_cycles / 1000.0;
        s.accesses += static_cast<double>(f.stats.loads + f.stats.stores);
        s.cpu_cycles += cpu_cycles;
        s.misses += static_cast<double>(f.stats.l1_misses);
        if (p.tm) {
          s.commits += static_cast<double>(f.rr.commits);
          s.aborts += static_cast<double>(f.rr.violations + f.rr.semantic);
          s.lost += static_cast<double>(f.rr.lost_cycles);
        } else {
          s.spin += static_cast<double>(f.stats.lock_spin_cycles);
        }
      }
      return s;
    };
    auto tm_only = [](const perfbench::Point& p) { return p.tm; };
    auto tm_wide = [&](const perfbench::Point& p) { return p.tm && wide(p); };
    auto lock_only = [](const perfbench::Point& p) { return !p.tm; };
    const Sums sa = sums(all), st = sums(tm_only), stw = sums(tm_wide);
    const Sums sl = sums(lock_only);
    const bool jbb = w.hook_pass;
    const bool simulated = w.trace_pass;  // jbb and srv report simulated results

    // Trace-derived counts: valid only when no traced point dropped events.
    double traced_s = 0, dropped = 0, misses = 0, waits = 0, sem = 0, handlers = 0;
    bool trace_valid = w.trace_pass;
    for (std::size_t i = 0; i < n && w.trace_pass; ++i) {
      const LayerCounts& c = lc[i];
      if (std::isnan(best[i])) continue;
      trace_valid = trace_valid && c.trace_valid;
      traced_s += c.traced_run_s;
      dropped += static_cast<double>(c.dropped);
      misses += static_cast<double>(c.misses);
      waits += static_cast<double>(c.token_waits);
      sem += static_cast<double>(c.sem_locks);
      handlers += static_cast<double>(c.handler_runs);
    }
    // An invalid trace count reads -1: never a partial count.
    auto traced = [&](double v) { return !w.trace_pass ? 0.0 : trace_valid ? v : -1.0; };
    constexpr double kNs = 1e9;
    metrics = {
        {"sim.decisions_per_op", jbb ? ratio(sa.decisions, sa.ops) : 0.0, "count"},
        {"sim.ns_per_decision", jbb ? ratio(kNs * sa.run_s, sa.decisions) : 0.0, "ns"},
        {"sim.ns_per_kcycle", simulated ? ratio(kNs * sa.run_s, sa.kcycles) : 0.0, "ns"},
        {"sim.ns_per_access", jbb ? ratio(kNs * sa.run_s, sa.accesses) : 0.0, "ns"},
        {"tm.ns_per_commit", simulated ? ratio(kNs * st.run_s, st.commits) : 0.0, "ns"},
        {"tm.ns_per_commit.wide", simulated ? ratio(kNs * stw.run_s, stw.commits) : 0.0, "ns"},
        {"mc.schedules", simulated ? 0.0 : sa.ops, "count"},
        {"trace.overhead", traced(ratio(traced_s, sa.run_s)), "ratio"},
        {"trace.dropped_events", w.trace_pass ? dropped : 0.0, "count"},
        {"sim.l1_misses_per_op", jbb ? ratio(sa.misses, sa.ops) : traced(ratio(misses, sa.ops)),
         "count"},
        {"tm.aborts_per_commit", simulated ? ratio(st.aborts, st.commits) : 0.0, "count"},
        {"tm.lost_cycle_share", simulated ? ratio(st.lost, st.cpu_cycles) : 0.0, "ratio"},
        {"tm.lock_spin_share", jbb ? ratio(sl.spin, sl.cpu_cycles) : 0.0, "ratio"},
        {"tm.token_waits_per_commit", traced(ratio(waits, st.commits)), "count"},
        {"core.sem_locks_per_op", traced(ratio(sem, sa.ops)), "count"},
        {"core.handler_runs_per_op", traced(ratio(handlers, sa.ops)), "count"},
    };
  }

  bool spans_written = true;
  try {
    spans.write(args.out + "/spans_" + args.workload + "_seed" + std::to_string(args.seed) +
                "_trace" + std::to_string(args.trace) + ".json");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    spans_written = false;
  }

  std::fprintf(stderr, "perfbench: %s seed=%llu: %zu points x %d rounds in %.2f s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), n, rounds,
               timed_s);
  const bool correct = !any_failed && spans_written;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
