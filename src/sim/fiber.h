// Stackful fibers for the execution-driven CMP simulator.
//
// Every virtual CPU runs its workload on a fiber so that the simulator can
// suspend it at *any* call depth (e.g. deep inside a red-black tree rotation)
// whenever virtual-time ordering requires another CPU to advance first.
//
// The implementation is a hand-rolled x86-64 System V context switch
// (see context.S); a switch costs a handful of nanoseconds of host time,
// which matters because benchmarks perform millions of switches.
//
// Two switch shapes are provided:
//
//  * resume()/yield()   — the classic main<->fiber pair.  There is exactly
//    one "main" (scheduler) context per host thread, held in thread-local
//    state, so a yielding fiber always returns to the thread's scheduler
//    regardless of which context entered it.
//  * transfer_to(next)  — fiber->fiber handoff in ONE context switch.  The
//    engine's scheduling fast path uses this to dispatch the next virtual
//    CPU without bouncing through the main context, halving the switches
//    per scheduling decision.
//
// Stacks are pooled per host thread: figure sweeps construct thousands of
// Engines, and re-using an mmap'd stack (guard page already in place, hot
// pages already faulted in) makes Engine construction O(fibers), not
// O(fibers x mmap+page-fault).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>

namespace sim {

/// Thrown *into* a fiber (by the scheduler, after poisoning) to force it to
/// unwind its stack and terminate.  Fiber bodies must let it propagate; the
/// fiber machinery treats it as normal termination.
struct FiberKilled {};

/// Hit/miss counters for the calling thread's fiber stack free-list
/// (cumulative).  A hit is a Fiber construction served from a pooled stack;
/// a miss paid mmap+mprotect.  bench/hotpath surfaces the spawn scenarios'
/// hit rate in BENCH_hotpath.json so pool-defeating regressions (wrong
/// sizes, cap thrash) are visible, not inferred from wall time.
struct StackPoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
StackPoolStats stack_pool_stats();

/// A cooperatively scheduled stackful coroutine.
///
/// Usage:
///   Fiber f([]{ ...; });   // does not start running yet
///   f.resume();            // runs until f yields or finishes
///   f.finished();          // true once the body returned
///
/// The body may call Fiber::yield() (static; applies to the currently
/// running fiber) to suspend back to the thread's main context, or
/// Fiber::transfer_to() to hand the host thread directly to another
/// suspended fiber.  C++ exceptions may be thrown and caught freely *within*
/// the fiber body, but must never propagate out of it; the fiber traps that
/// case and terminates the process with a diagnostic, because unwinding
/// across a context switch is undefined.
class Fiber {
 public:
  /// Creates a fiber that will run `body` on its own `stack_bytes`-sized
  /// stack (rounded up to the page size, with an inaccessible guard page
  /// below it to turn stack overflow into a clean fault).  The stack is
  /// drawn from the calling thread's free-list when one of the right size
  /// is available, and returned to it on destruction.
  explicit Fiber(std::function<void()> body, std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfers control into the fiber from the main context.  Returns when
  /// some fiber yields to main or finishes (with fiber->fiber transfers in
  /// between, the fiber that comes back to main need not be this one).
  /// Must not be called on a finished fiber, nor from within any fiber.
  void resume();

  /// Suspends the currently running fiber, returning control to the
  /// thread's main context.  Must be called from within a fiber body.
  static void yield();

  /// Suspends the currently running fiber and resumes `next` in a single
  /// context switch (never touching the main context).  `next` must be a
  /// distinct, unfinished fiber on the same host thread; it may be one that
  /// has never run (its first activation happens exactly as under resume()).
  static void transfer_to(Fiber& next);

  /// True once the fiber has been entered (by resume() or transfer_to()).
  [[nodiscard]] bool started() const noexcept { return started_; }
  /// True once the fiber body has returned.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// The fiber currently executing on this thread, or nullptr if we are in
  /// the main (scheduler) context.
  static Fiber* current() noexcept;

  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  /// \internal Entry point invoked on the fiber's own stack (from context.S);
  /// not part of the public API.
  void run_body() noexcept;

 private:
  friend struct FiberCtx;

  // Per-fiber copy of the Itanium-ABI exception-handling globals
  // (__cxa_eh_globals): the caught-exception stack is thread-local, so a
  // fiber that yields inside a catch block would otherwise interleave its
  // exception state with other fibers'.  Saved/restored at every switch.
  struct EhGlobals {
    void* caught_exceptions = nullptr;
    unsigned int uncaught_exceptions = 0;
  };

  std::function<void()> body_;
  void* stack_mem_ = nullptr;   // mmap'd region (guard page + stack)
  std::size_t map_bytes_ = 0;
  void* fiber_sp_ = nullptr;    // suspended fiber's stack pointer
  EhGlobals eh_state_{};        // the fiber's exception globals while suspended
  // Sanitizer bookkeeping (see fiber.cpp).  Neither TSan nor ASan can see
  // the raw stack switch in context.S: every switch is announced with
  // __tsan_switch_to_fiber / __sanitizer_start_switch_fiber and completed
  // with __sanitizer_finish_switch_fiber on arrival.  All null/zero when
  // not built with the corresponding sanitizer.
  void* tsan_fiber_ = nullptr;        // this fiber's TSan context
  void* asan_fake_stack_ = nullptr;   // fiber's ASan fake stack, suspended
  const void* stack_bottom_ = nullptr;  // usable stack (above the guard page)
  std::size_t stack_size_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace sim
