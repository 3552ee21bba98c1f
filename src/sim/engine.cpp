#include "sim/engine.h"

#include <stdexcept>
#include <utility>

#include "sim/vaddr.h"

namespace sim {

const Config& Engine::checked(const Config& cfg) {
  // Before any member is sized from num_cpus.
  if (cfg.num_cpus < 1 || cfg.num_cpus > Config::kMaxCpus)
    throw std::invalid_argument("Engine: num_cpus must be in [1,128]");
  if ((cfg.deadline_poll_mask & (cfg.deadline_poll_mask + 1)) != 0)
    throw std::invalid_argument("Engine: deadline_poll_mask must be 2^k - 1");
  return cfg;
}

Engine::Engine(const Config& cfg)
    : cfg_(checked(cfg)),
      stats_(cfg.num_cpus),
      mem_(cfg_, stats_),
      cpus_(static_cast<std::size_t>(cfg.num_cpus)),
      runq_(cfg.num_cpus),
      user_(static_cast<std::size_t>(cfg.num_cpus), nullptr) {
  for (int i = 0; i < cfg.num_cpus; ++i) cpus_[static_cast<std::size_t>(i)].id_ = i;
  // Each simulation lays out its Shared cells / lock words from the same
  // arena bases, making cycle totals independent of host memory layout.
  // Passing `this` stamps the calling thread's cursors with their owner so
  // cross-thread construction (which would alias addresses) is detectable.
  va_reset(this);
  detail::va_live_engines.fetch_add(1, std::memory_order_relaxed);
}

Engine::~Engine() {
  // If run() was abandoned with live fibers (e.g. an exception inside the
  // scheduler), unwind them so their RAII state is released.
  kill_all_suspended();
  detail::va_live_engines.fetch_sub(1, std::memory_order_relaxed);
  va_owner_destroyed(this);
}

void Engine::kill_all_suspended() {
  // Keep resuming until every fiber has unwound: a fiber may yield again
  // while unwinding (e.g. an abort path charging backoff cycles crosses the
  // run limit), in which case one resume is not enough.  A fiber that never
  // ran holds no state to unwind: it is discarded without entering its body.
  poisoned_ = true;
  bool any_live;
  do {
    any_live = false;
    for (Cpu& c : cpus_) {
      if (c.fiber_ != nullptr && !c.fiber_->started()) {
        c.fiber_.reset();
        c.state_ = Cpu::State::kDone;
      } else if (c.fiber_ != nullptr && !c.fiber_->finished()) {
        any_live = true;
        current_cpu_ = c.id_;
        c.fiber_->resume();  // wakes in yield_now()/block(), throws FiberKilled
        current_cpu_ = -1;
        if (c.fiber_->finished()) c.state_ = Cpu::State::kDone;
      }
    }
  } while (any_live);
  poisoned_ = false;
}

void Engine::spawn(std::function<void()> work) {
  if (running_) throw std::logic_error("Engine::spawn during run()");
  if (work_.size() >= cpus_.size())
    throw std::logic_error("Engine::spawn: more workers than virtual CPUs");
  work_.push_back(std::move(work));
}

void Engine::run() {
  if (running_) throw std::logic_error("Engine::run re-entered");
  if (work_.empty()) return;
  runq_.clear();
  for (std::size_t i = 0; i < work_.size(); ++i) runq_.insert(key_of(cpus_[i]));
  running_ = true;
  Engine* prev = tls_engine_;
  tls_engine_ = this;
  deadline_hit_ = false;
  clock_overflow_ = false;
  deadline_poll_ = 0;
  for (std::size_t i = 0; i < work_.size(); ++i) {
    const int id = static_cast<int>(i);
    cpus_[i].state_ = Cpu::State::kRunnable;
    cpus_[i].fiber_ = std::make_unique<Fiber>([this, id] { worker_main(id); });
  }

  // With no hook installed, almost all scheduling decisions happen on the
  // fibers themselves (yield_now/block take the runq minimum and transfer
  // directly); control only returns here when a fiber finishes, when
  // nothing is runnable, or when a fiber must end the run.  With a hook
  // installed, every decision is made here so the hook sees the full
  // runnable set.  Either way, the runq holds every runnable CPU here.
  for (;;) {
    if (clock_overflow_)
      abandon_run<std::overflow_error>(prev, "Engine: virtual clock reached 2^56");
    if (deadline_hit_ ||
        (host_deadline_armed_ &&
         (++deadline_poll_ & cfg_.deadline_poll_mask) == 0 &&
         std::chrono::steady_clock::now() > host_deadline_)) {
      abandon_run<SimTimeout>(prev, "Engine: host wall-clock deadline exceeded");
    }
    if (runq_.empty()) {
      for (const Cpu& c : cpus_) {
        if (c.state_ == Cpu::State::kBlocked)
          abandon_run<std::runtime_error>(prev, "Engine: virtual deadlock (all CPUs blocked)");
      }
      break;  // every worker finished
    }
    int next;
    if (hook_ == nullptr) {
      next = take_min();
    } else {
      // Present the runnable set (ascending ids) and let the hook override
      // both the choice and the quantum.  kUseDefault takes the runq
      // minimum and its run limit — bit-identical to no hook.
      runnable_scratch_.clear();
      for (const Cpu& c : cpus_) {
        if (c.state_ == Cpu::State::kRunnable) runnable_scratch_.push_back(c.id_);
      }
      next = hook_->pick(runnable_scratch_);
      if (next == SchedulerHook::kUseDefault) {
        next = take_min();
      } else {
        if (next < 0 || next >= static_cast<int>(cpus_.size()) ||
            cpus_[static_cast<std::size_t>(next)].state_ != Cpu::State::kRunnable) {
          abandon_run<std::logic_error>(prev,
                                        "Engine: scheduler hook picked a non-runnable CPU");
        }
        runq_.erase(next);
        // One-quantum budget: the fiber yields at its next clock advance,
        // handing the next interleaving decision back to the hook.
        run_limit_ = cpus_[static_cast<std::size_t>(next)].clock_;
      }
    }
    current_cpu_ = next;
    cpus_[static_cast<std::size_t>(next)].fiber_->resume();
    // With direct fiber->fiber transfers, the fiber that comes back to main
    // need not be the one resumed: current_cpu_ names whoever ran last.
    Cpu& ran = cpus_[static_cast<std::size_t>(current_cpu_)];
    current_cpu_ = -1;
    if (ran.fiber_->finished()) ran.state_ = Cpu::State::kDone;
  }

  tls_engine_ = prev;
  running_ = false;
}

void Engine::worker_main(int cpu) { work_[static_cast<std::size_t>(cpu)](); }

std::uint64_t Engine::elapsed_cycles() const {
  std::uint64_t m = 0;
  for (const Cpu& c : cpus_)
    if (c.clock_ > m) m = c.clock_;
  return m;
}

void Engine::yield_now() {
  if (poisoned_) throw FiberKilled{};
  const Cpu& self = cpus_[static_cast<std::size_t>(current_cpu_)];
  const std::uint64_t k = key_of(self);
  if (hook_ != nullptr) {
    // Hook mode: hand every decision to run()'s loop.
    runq_.insert(k);
    Fiber::yield();
  } else if (host_deadline_armed_ &&
             (++deadline_poll_ & cfg_.deadline_poll_mask) == 0 &&
             std::chrono::steady_clock::now() > host_deadline_) {
    // Host-deadline poll, amortized over scheduling decisions.  On expiry,
    // run() unwinds every fiber and throws SimTimeout.
    deadline_hit_ = true;
    runq_.insert(k);
    Fiber::yield();
  } else if (const std::uint64_t top = runq_.top(); k < top) {
    // Still the (clock, id) minimum: keep running, no queue update.
    set_run_limit(self.clock_, runq_.top_clock());
    return;
  } else {
    // The scheduling fast path: swap self for the minimum in the queue and
    // hand the host thread straight to its fiber — one context switch per
    // decision, no trip through the main context.
    runq_.replace(RunQueue::id_of(top), k);
    switch_to(take(top));
  }
  if (poisoned_) throw FiberKilled{};
}

void Engine::clock_overflow() {
  if (!on_worker_fiber())
    throw std::overflow_error("Engine: virtual clock reached 2^56");
  clock_overflow_ = true;
  Fiber::yield();  // run() unwinds every fiber and throws
  throw FiberKilled{};
}

void Engine::throw_no_engine() {
  throw std::logic_error("Engine::get: no active simulation");
}

void Engine::block() {
  if (poisoned_) throw FiberKilled{};
  cpus_[static_cast<std::size_t>(current_cpu_)].state_ = Cpu::State::kBlocked;
  if (hook_ == nullptr && !runq_.empty()) {
    // Someone else is runnable: dispatch them directly (we hold no runq
    // entry — ours was taken when we were scheduled).
    switch_to(take_min());
  } else {
    Fiber::yield();  // run() decides: hook consult, completion, or deadlock
  }
  if (poisoned_) throw FiberKilled{};
  // Rescheduled: unblock() made us runnable and set our clock.
}

void Engine::unblock(int cpu, std::uint64_t at) {
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  if (c.state_ != Cpu::State::kBlocked)
    throw std::logic_error("Engine::unblock: target CPU is not blocked");
  c.state_ = Cpu::State::kRunnable;
  if (at > c.clock_) c.clock_ = at;
  runq_.insert(key_of(c));
  // The woken CPU may now be the global minimum: tighten our run limit so the
  // current fiber yields promptly and ordering stays exact.
  if (c.clock_ < run_limit_) run_limit_ = c.clock_ + cfg_.slack;
}

}  // namespace sim
