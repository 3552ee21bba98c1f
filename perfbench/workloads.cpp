// The three workloads' points, each a call into a public entry point:
// jbb builds its Engine/Runtime/jbb::Engine world here (so construction and
// sim::Engine::run time apart), srv goes through srv::series (which builds
// its world inside srv::run_server), mc through mc::explore.
#include <algorithm>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "jbb/engine.h"
#include "mc/explorer.h"
#include "mc/litmus.h"
#include "srv/workload.h"
#include "tm/runtime.h"
#include "trace/tracer.h"

namespace perfbench {
namespace {

// fig4's single-warehouse SPECjbb: 3200 requests per point, split evenly
// over the CPUs (bench/fig4_specjbb.cpp).
constexpr int kJbbRequests = 3200;
// fig5's open-system server: 1200 Poisson-arrival requests per point
// (bench/fig5_srv.cpp).
constexpr int kSrvRequests = 1200;

PointRun run_jbb(jbb::Flavor flavor, int cpus, std::uint64_t salt, const RunOptions& o) {
  PointRun pr;
  pr.t_setup = Clock::now();
  jbb::JbbConfig jc;
  jc.flavor = flavor;
  jc.districts = 10;
  jc.items = 2000;
  jc.customers_per_district = 60;
  jc.think_cycles = 1200;
  sim::Config cfg;
  cfg.mode = flavor == jbb::Flavor::kJava ? sim::Mode::kLock : sim::Mode::kTcc;
  cfg.num_cpus = cpus;
  const int per_cpu = kJbbRequests / cpus;
  std::vector<jbb::OpCounts> counts(static_cast<std::size_t>(cpus));
  if (!o.trace_path.empty()) trace::set_request(o.trace_path, o.trace_cap);
  try {
    sim::Engine eng(cfg);
    atomos::Runtime rt(eng);
    jbb::Engine model(jc);
    for (int c = 0; c < cpus; ++c) {
      eng.spawn([&, c] {
        std::uint64_t rng = 4242 + salt + static_cast<std::uint64_t>(c) * 6151;
        for (int i = 0; i < per_cpu; ++i) {
          const int d = static_cast<int>((rng >> 40) % 10);
          model.run_mixed_op(d, rng, counts[static_cast<std::size_t>(c)]);
        }
      });
    }
    if (o.hook != nullptr) eng.set_scheduler_hook(o.hook);
    pr.t_run = Clock::now();
    eng.run();
    pr.t_check = Clock::now();
    std::string why;
    if (!model.check_consistency(&why)) pr.fail("consistency: " + why);
    long served = 0;
    for (const jbb::OpCounts& oc : counts) served += oc.total();
    if (served != static_cast<long>(per_cpu) * cpus)
      pr.fail("served " + std::to_string(served) + " requests");
    pr.stats = eng.stats().summed();
    for (const sim::CpuStats& s : eng.stats().per_cpu())
      pr.max_cpu_misses = std::max(pr.max_cpu_misses, s.l1_misses);
    pr.rr.cycles = eng.elapsed_cycles();
    pr.rr.violations = pr.stats.violations;
    pr.rr.semantic = pr.stats.semantic_violations;
    pr.rr.lost_cycles = pr.stats.lost_cycles;
    pr.rr.commits = pr.stats.commits;
    pr.witness = pr.rr.cycles;
    pr.t_end = Clock::now();
  } catch (const std::exception& e) {
    trace::clear_request();
    pr.fail(e.what());
  }
  pr.ops = static_cast<std::uint64_t>(per_cpu) * static_cast<std::uint64_t>(cpus);
  return pr;
}

Workload make_jbb() {
  Workload w;
  w.name = "jbb";
  w.hook_pass = true;
  w.trace_pass = true;
  const std::pair<const char*, jbb::Flavor> flavors[] = {
      {"Java", jbb::Flavor::kJava},
      {"Atomos Baseline", jbb::Flavor::kAtomosBaseline},
      {"Atomos Open", jbb::Flavor::kAtomosOpen},
      {"Atomos Transactional", jbb::Flavor::kAtomosTransactional},
  };
  for (const auto& [name, flavor] : flavors) {
    for (int cpus : {1, 2, 4, 8, 16, 32, 64, 128}) {
      Point p;
      p.series = name;
      p.cpus = cpus;
      p.tm = flavor != jbb::Flavor::kJava;
      p.run = [flavor = flavor, cpus](std::uint64_t salt, const RunOptions& o) {
        return run_jbb(flavor, cpus, salt, o);
      };
      w.points.push_back(std::move(p));
    }
  }
  return w;
}

Workload make_srv() {
  Workload w;
  w.name = "srv";
  w.trace_pass = true;
  for (srv::Flavor f :
       {srv::Flavor::kLock, srv::Flavor::kFlatTm, srv::Flavor::kSemanticTm}) {
    for (double load : {0.15, 0.3, 0.6, 0.9, 1.2}) {
      const harness::Series s = srv::series(f, load, kSrvRequests);
      for (int cpus : {8, 32, 128}) {
        Point p;
        p.series = s.name;
        p.cpus = cpus;
        p.tm = s.mode == sim::Mode::kTcc;
        p.run = [s, cpus](std::uint64_t salt, const RunOptions& o) {
          PointRun pr;
          pr.t_setup = Clock::now();
          if (!o.trace_path.empty()) trace::set_request(o.trace_path, o.trace_cap);
          pr.t_run = Clock::now();
          try {
            // Throws when the end-of-run audit fails (a lost update, a
            // request served twice or never, an undrained queue).
            s.run(cpus, salt, pr.rr);
          } catch (const std::exception& e) {
            trace::clear_request();
            pr.fail(e.what());
          }
          pr.t_check = Clock::now();
          pr.ops = kSrvRequests;  // the audit checks exactly-once completion
          pr.witness = pr.rr.cycles;
          pr.t_end = Clock::now();
          return pr;
        };
        w.points.push_back(std::move(p));
      }
    }
  }
  return w;
}

Workload make_mc(int budget) {
  Workload w;
  w.name = "mc";
  for (const mc::Program& prog : mc::programs()) {
    Point p;
    p.series = prog.name;
    p.cpus = prog.num_cpus;
    p.tm = true;
    p.run = [prog, budget](std::uint64_t, const RunOptions&) {
      PointRun pr;
      pr.t_setup = pr.t_run = Clock::now();
      mc::ExploreOptions opt;
      opt.max_runs = budget;
      mc::ExploreResult res;
      try {
        res = mc::explore(prog, opt);
      } catch (const std::exception& e) {
        pr.fail(e.what());
      }
      pr.t_check = Clock::now();
      // A program whose exploration threw counts its whole budget as
      // attempted and failed schedules.
      pr.ops = static_cast<std::uint64_t>(pr.ok ? res.runs : budget);
      pr.witness = pr.ops;
      if (pr.ok && prog.mutant) {
        if (!prog.expected.has_value() || !res.found(*prog.expected))
          pr.fail("mutant not caught as its expected anomaly");
      } else if (pr.ok && !res.counterexamples.empty()) {
        pr.fail("clean program yields a counterexample: " +
                mc::encode(res.counterexamples.front().schedule));
      }
      pr.t_end = Clock::now();
      return pr;
    };
    w.points.push_back(std::move(p));
  }
  return w;
}

std::map<std::string, std::string> load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden CSV " + path);
  std::map<std::string, std::string> rows;
  std::string line;
  if (!std::getline(in, line) || line.rfind("series,cpus,cycles,speedup,", 0) != 0)
    throw std::runtime_error("unexpected header in " + path);
  while (std::getline(in, line)) {
    const std::size_t a = line.find(',');
    const std::size_t b = a == std::string::npos ? a : line.find(',', a + 1);
    if (b == std::string::npos) throw std::runtime_error("short row in " + path);
    rows[line.substr(0, b)] = line.substr(b + 1);
  }
  return rows;
}

// The figure driver's extras formatting (src/harness/driver.cpp put_extra).
void put_extra(std::ostringstream& os, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 9.0e15 && v > -9.0e15) {
    os << static_cast<long long>(v);
  } else {
    os << v;
  }
}

}  // namespace

std::string csv_tail(const harness::RunResult& r, double baseline_cycles) {
  std::ostringstream os;
  os << r.cycles << ',' << baseline_cycles / static_cast<double>(r.cycles) << ','
     << r.violations << ',' << r.semantic << ',' << r.lost_cycles << ',' << r.commits;
  for (const auto& [name, value] : r.extras) {
    os << ',';
    put_extra(os, value);
  }
  return os.str();
}

Workload make_workload(const std::string& name, const std::string& root, int mc_budget) {
  if (name == "jbb") {
    Workload w = make_jbb();
    w.golden = load_golden(root + "/fig4_specjbb.csv");
    return w;
  }
  if (name == "srv") {
    Workload w = make_srv();
    w.golden = load_golden(root + "/fig5_srv.csv");
    return w;
  }
  if (name == "mc") return make_mc(mc_budget);
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace perfbench
