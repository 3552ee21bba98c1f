// Violation delivery (tm/runtime.h run_txn): a flag the runtime finds at an
// open child's commit is returned by commit_txn, not thrown.  These tests
// pin what each delivery does: which transaction or frame retries, what is
// compensated, and how the violation is counted.
//
// Every scenario parks CPU 0's open child on the commit token while CPU 1
// holds it in a long commit handler, so the flag CPU 1's broadcast (or its
// violate()) raises is seen at the child's last check under the token,
// never by a body-side check.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tm/runtime.h"
#include "tm/shared.h"

namespace atomos {
namespace {

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

// Line-isolated cells: no two of a test's cells share a cache line, so the
// only conflicts are the ones a test sets up.
Shared<int> cell() { return Shared<int>(0, nullptr, sim::kCounterCell); }

// CPU 1's side of every scenario: a commit that writes `w` and holds the
// commit token for about 500 cycles while its handler runs.  `mid` (if
// set) runs inside the handler, 200 cycles in.
void hold_token_writing(Shared<int>& w, std::function<void()> mid = nullptr) {
  atomically([&] {
    w.set(w.get() + 1);
    on_commit([mid] {
      work(200);
      if (mid) mid();
      work(300);
    });
  });
}

TEST(ViolationDeliveryTest, OpenChildFlaggedAtItsOwnCommitRetriesAlone) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> x = cell();
  int parent_runs = 0;
  int child_runs = 0;
  eng.spawn([&] {
    work(50);  // let CPU 1 take the token first
    atomically([&] {
      ++parent_runs;
      open_atomically([&] {
        ++child_runs;
        x.set(x.get() + 10);
      });
    });
  });
  eng.spawn([&] { hold_token_writing(x); });
  eng.run();
  EXPECT_EQ(parent_runs, 1);
  EXPECT_EQ(child_runs, 2);
  EXPECT_EQ(x.unsafe_peek(), 11);  // the retry read CPU 1's commit
  const sim::CpuStats& st = eng.stats().cpu(0);
  EXPECT_EQ(st.violations, 0u);
  EXPECT_EQ(st.nested_violations, 1u);
  EXPECT_EQ(st.semantic_violations, 0u);
  EXPECT_EQ(st.open_commits, 1u);
  EXPECT_EQ(st.commits, 1u);
}

TEST(ViolationDeliveryTest, ChildCommitFindingItsParentFlaggedAbortsTheChildOnce) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> y = cell();
  Shared<int> c = cell();
  std::vector<std::string> log;
  eng.spawn([&] {
    work(50);
    atomically([&] {
      log.push_back("parent");
      atomically([&] {  // frame 1: its read of y is what CPU 1 violates
        log.push_back("frame1");
        (void)y.get();
        open_atomically([&] {
          log.push_back("child");
          c.set(c.get() + 1);
          on_abort([&] { log.push_back("compensate"); });
        });
      });
    });
  });
  eng.spawn([&] { hold_token_writing(y); });
  eng.run();
  // The child aborts once (its compensation runs once), then the parent
  // retries at frame 1 alone: the parent body never re-runs.
  const std::vector<std::string> want = {"parent", "frame1",     "child",
                                         "compensate", "frame1", "child"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(c.unsafe_peek(), 1);  // the aborted child's write never landed
  const sim::CpuStats& st = eng.stats().cpu(0);
  EXPECT_EQ(st.violations, 0u);
  EXPECT_EQ(st.nested_violations, 1u);  // the parent, at frame 1
  EXPECT_EQ(st.semantic_violations, 0u);
  EXPECT_EQ(st.open_commits, 2u);  // the child's retry and its compensation
  EXPECT_EQ(st.commits, 1u);
}

TEST(ViolationDeliveryTest, SemanticViolationSeenAtCommitCountsOnTheParent) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  Shared<int> w = cell();
  Shared<int> c = cell();
  TxnId parent_id;
  int parent_runs = 0;
  int child_runs = 0;
  eng.spawn([&] {
    work(50);
    atomically([&] {
      ++parent_runs;
      parent_id = self_id();
      open_atomically([&] {
        ++child_runs;
        c.set(c.get() + 1);
      });
    });
  });
  bool doomed = false;
  eng.spawn([&] { hold_token_writing(w, [&] { doomed = violate(parent_id); }); });
  eng.run();
  EXPECT_TRUE(doomed);
  EXPECT_EQ(parent_runs, 2);
  EXPECT_EQ(child_runs, 2);
  EXPECT_EQ(c.unsafe_peek(), 1);
  const sim::CpuStats& st = eng.stats().cpu(0);
  EXPECT_EQ(st.violations, 1u);  // the whole parent, not the child
  EXPECT_EQ(st.nested_violations, 0u);
  EXPECT_EQ(st.semantic_violations, 1u);
  EXPECT_EQ(st.commits, 1u);
}

/// Backs every abort off for 4000 cycles, so the window in which the
/// aborting CPU yields is wide enough to land a commit in.
class LongBackoff final : public ContentionManager {
 public:
  std::uint64_t backoff_cycles(int, int) override { return 4000; }
};

TEST(ViolationDeliveryTest, KillFrameLoweredWhileTheChildAbortsIsNotLost) {
  // CPU 1 flags the parent at frame 2 while the child waits for the token.
  // The child's abort then yields twice: in its compensation (the parent is
  // hidden from committers while compensation runs detached) and in its
  // backoff, where CPU 2 commits a write to `a`, which the parent read at
  // frame 1.  The unwind is aimed at the frame recorded at detection, 2;
  // frame 2 must hand it on to frame 1 rather than retry with a stale read
  // of `a` and a cleared flag.
  sim::Engine eng(tcc_cfg(3));
  Runtime rt(eng, std::make_unique<LongBackoff>());
  Shared<int> a = cell();
  Shared<int> b = cell();
  Shared<int> c = cell();
  Shared<int> out = cell();
  std::vector<std::string> log;
  eng.spawn([&] {
    work(50);
    atomically([&] {
      log.push_back("parent");
      atomically([&] {  // frame 1
        log.push_back("frame1");
        const int seen = a.get();
        atomically([&] {  // frame 2
          log.push_back("frame2");
          (void)b.get();
          open_atomically([&] {
            c.set(c.get() + 1);
            on_abort([&] {
              log.push_back("compensate");
              work(1000);
            });
          });
        });
        out.set(seen);
      });
    });
  });
  eng.spawn([&] { hold_token_writing(b); });
  eng.spawn([&] {
    work(3000);  // past the compensation, inside the backoff
    atomically([&] { a.set(7); });
  });
  eng.run();
  const std::vector<std::string> want = {"parent", "frame1", "frame2", "compensate",
                                         "frame1", "frame2"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(a.unsafe_peek(), 7);
  EXPECT_EQ(out.unsafe_peek(), 7);  // the parent committed after CPU 2: it saw a = 7
  const sim::CpuStats& st = eng.stats().cpu(0);
  EXPECT_EQ(st.violations, 0u);
  EXPECT_EQ(st.nested_violations, 1u);
  EXPECT_EQ(st.commits, 1u);
}

}  // namespace
}  // namespace atomos
