// The engine's run queue: runnable virtual CPUs ordered by (clock, id).
//
// A fixed-depth tournament (winner) tree with one leaf per CPU id, padded
// to a power of two.  Every node holds the minimum of its two children, so
// the root is the (clock, id)-minimum queued CPU.  Keys pack both fields
// into one word, `clock << 8 | id`, so one unsigned compare is exactly the
// (clock, id) order — the lowest id wins a clock tie — and a leaf that is
// not queued holds kEmpty, which sorts after every real key.
//
// insert() and erase() both rewrite one leaf and walk to the root with the
// running minimum kept in a register, reading only the sibling at each
// level: log2(width) loads, compares and stores, with no data-dependent
// branch.  replace() does a yield's erase-and-insert as two such walks in
// lockstep.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sim {

class RunQueue {
 public:
  static constexpr int kIdBits = 8;
  /// Queued ids are 0..kMaxWidth-1.  (Id 255 at the largest clock would
  /// pack to kEmpty.)
  static constexpr int kMaxWidth = (1 << kIdBits) - 1;
  /// Clocks must stay below this to pack; callers check (see
  /// Engine::key_of), the queue only asserts.
  static constexpr std::uint64_t kClockLimit = std::uint64_t{1} << (64 - kIdBits);
  /// The key of an unqueued leaf, and top() of an empty queue.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  /// top_clock() of an empty queue.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// An empty queue for ids 0..width-1 (1 <= width <= kMaxWidth).
  explicit RunQueue(int width) {
    assert(width >= 1 && width <= kMaxWidth);
    while (leaves_ < static_cast<std::size_t>(width)) {
      leaves_ *= 2;
      ++depth_;
    }
    tree_.assign(2 * leaves_, kEmpty);
  }

  static std::uint64_t key(std::uint64_t clock, int id) {
    assert(clock < kClockLimit && id >= 0 && id < kMaxWidth);
    return clock << kIdBits | static_cast<std::uint64_t>(id);
  }
  static int id_of(std::uint64_t key) { return static_cast<int>(key & kIdMask); }
  static std::uint64_t clock_of(std::uint64_t key) { return key >> kIdBits; }

  /// Smallest queued key, or kEmpty.
  std::uint64_t top() const { return tree_[1]; }
  bool empty() const { return top() == kEmpty; }
  /// Smallest queued clock, or kNever.
  std::uint64_t top_clock() const { return empty() ? kNever : clock_of(top()); }

  /// Queues key(clock, id); that id must not be queued already.
  void insert(std::uint64_t key) {
    assert(tree_[leaves_ + static_cast<std::size_t>(id_of(key))] == kEmpty);
    update(leaves_ + static_cast<std::size_t>(id_of(key)), key);
  }
  /// Dequeues `id`, wherever it sorts; that id must be queued.
  void erase(int id) {
    assert(tree_[leaves_ + static_cast<std::size_t>(id)] != kEmpty);
    update(leaves_ + static_cast<std::size_t>(id), kEmpty);
  }
  /// erase(out) and insert(key) in one pass (the two ids must differ):
  /// the two walks run interleaved, so they overlap instead of queueing
  /// behind each other.  Where the paths meet, each reads the value the
  /// other stored one level down, and both store the same parent.
  void replace(int out, std::uint64_t key) {
    std::size_t a = leaves_ + static_cast<std::size_t>(id_of(key));
    std::size_t b = leaves_ + static_cast<std::size_t>(out);
    assert(a != b && tree_[a] == kEmpty && tree_[b] != kEmpty);
    std::uint64_t* t = tree_.data();
    std::uint64_t va = key;
    std::uint64_t vb = kEmpty;
    t[a] = va;
    t[b] = vb;
    for (unsigned d = depth_; d > 0; --d) {
      const std::uint64_t sa = t[a ^ 1];
      const std::uint64_t sb = t[b ^ 1];
      va = sa < va ? sa : va;
      vb = sb < vb ? sb : vb;
      a >>= 1;
      b >>= 1;
      t[a] = va;
      t[b] = vb;
    }
  }
  void clear() { tree_.assign(tree_.size(), kEmpty); }

 private:
  static constexpr std::uint64_t kIdMask = (std::uint64_t{1} << kIdBits) - 1;

  void update(std::size_t i, std::uint64_t v) {
    std::uint64_t* t = tree_.data();
    t[i] = v;
    for (unsigned d = depth_; d > 0; --d) {
      const std::uint64_t sib = t[i ^ 1];
      v = sib < v ? sib : v;
      i >>= 1;
      t[i] = v;
    }
  }

  // Heap layout: root at 1, node n's children at 2n and 2n+1, leaf for
  // id at leaves_ + id.  With one leaf, that leaf is the root.
  std::vector<std::uint64_t> tree_;
  std::size_t leaves_ = 1;
  unsigned depth_ = 0;
};

}  // namespace sim
