// Differential tests of the engine's run queue (a tournament tree) against a
// std::set of (clock, id) pairs: random inserts, removals and pops must
// agree on the minimum and on the second-smallest clock after every step.
#include "sim/run_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace sim {
namespace {

using Ref = std::set<std::pair<std::uint64_t, int>>;

std::uint64_t ref_top(const Ref& ref) {
  return ref.empty() ? RunQueue::kEmpty : RunQueue::key(ref.begin()->first, ref.begin()->second);
}

std::uint64_t ref_top_clock(const Ref& ref) {
  return ref.empty() ? RunQueue::kNever : ref.begin()->first;
}

void differential(int width, std::uint32_t seed) {
  SCOPED_TRACE(testing::Message() << "width " << width << " seed " << seed);
  RunQueue q(width);
  Ref ref;
  std::vector<std::uint64_t> queued_at(static_cast<std::size_t>(width), RunQueue::kNever);
  std::mt19937 rng(seed);
  std::uint64_t last_popped = 0;  // clock of the last minimum taken
  for (int step = 0; step < 4000; ++step) {
    const int id = static_cast<int>(rng() % static_cast<std::uint32_t>(width));
    const auto slot = static_cast<std::size_t>(id);
    const std::uint32_t op = rng() % 8;
    if (queued_at[slot] == RunQueue::kNever && op < 4) {
      // Insert.  Clocks cluster around the last pop so ties are common, and
      // some sort below it — an unblock at the waker's clock with a lower
      // id than the CPU just taken.
      std::uint64_t clock = last_popped + rng() % 4;
      if (op == 0 && last_popped > 0) clock = last_popped - 1;
      if (op == 1) clock = last_popped;
      q.insert(RunQueue::key(clock, id));
      ref.emplace(clock, id);
      queued_at[slot] = clock;
    } else if (queued_at[slot] != RunQueue::kNever && op < 6) {
      // Remove wherever it sorts (a hook-picked CPU need not be the min).
      q.erase(id);
      ref.erase({queued_at[slot], id});
      queued_at[slot] = RunQueue::kNever;
    } else if (!ref.empty()) {
      // Pop the minimum, as a scheduling decision does.
      const std::uint64_t top = q.top();
      ASSERT_EQ(top, ref_top(ref));
      const int min_id = RunQueue::id_of(top);
      last_popped = RunQueue::clock_of(top);
      q.erase(min_id);
      ref.erase(ref.begin());
      queued_at[static_cast<std::size_t>(min_id)] = RunQueue::kNever;
    }
    ASSERT_EQ(q.top(), ref_top(ref)) << "step " << step;
    ASSERT_EQ(q.top_clock(), ref_top_clock(ref)) << "step " << step;
    ASSERT_EQ(q.empty(), ref.empty());
  }
  // Drain: the pops come out in (clock, id) order, then empty -> kNever.
  while (!ref.empty()) {
    ASSERT_EQ(q.top(), ref_top(ref));
    q.erase(RunQueue::id_of(q.top()));
    ref.erase(ref.begin());
    ASSERT_EQ(q.top_clock(), ref_top_clock(ref));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.top(), RunQueue::kEmpty);
  EXPECT_EQ(q.top_clock(), RunQueue::kNever);
}

TEST(RunQueueTest, MatchesOrderedSetReference) {
  for (const int width : {1, 2, 3, 8, 100, 128}) {
    for (std::uint32_t seed = 1; seed <= 5; ++seed) differential(width, seed);
  }
}

TEST(RunQueueTest, ClockTiesGoToTheLowerId) {
  RunQueue q(8);
  q.insert(RunQueue::key(7, 5));
  q.insert(RunQueue::key(7, 2));
  q.insert(RunQueue::key(9, 0));
  EXPECT_EQ(RunQueue::id_of(q.top()), 2);
  q.erase(2);
  EXPECT_EQ(RunQueue::id_of(q.top()), 5);
  // Below the one just taken: same clock, lower id (an unblock).
  q.insert(RunQueue::key(7, 1));
  EXPECT_EQ(RunQueue::id_of(q.top()), 1);
  EXPECT_EQ(q.top_clock(), 7u);
}

TEST(RunQueueTest, EmptyQueueHasNoSecondClock) {
  RunQueue q(3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.top_clock(), RunQueue::kNever);
  q.insert(RunQueue::key(4, 2));
  EXPECT_EQ(q.top_clock(), 4u);
  q.erase(2);
  EXPECT_EQ(q.top_clock(), RunQueue::kNever);
  q.insert(RunQueue::key(1, 0));
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(RunQueueTest, KeysKeepTheFullClockRange) {
  const std::uint64_t biggest = RunQueue::kClockLimit - 1;
  RunQueue q(128);
  q.insert(RunQueue::key(biggest, 127));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.top_clock(), biggest);
  EXPECT_EQ(RunQueue::id_of(q.top()), 127);
  q.insert(RunQueue::key(biggest, 3));
  EXPECT_EQ(RunQueue::id_of(q.top()), 3);
}

}  // namespace
}  // namespace sim
