// Line reader directory: which CPUs currently have a line in a read set.
//
// TCC conflict detection happens at commit: the committer walks its write
// set and must flag every other transaction that read one of the written
// lines.  Scanning every CPU's whole open-nesting stack for every line made
// that O(write-set x CPUs x depth) even when nobody read anything.  This
// directory inverts the read sets: per line, a bitmask of reader CPUs plus a
// per-(line, cpu) count (one CPU can hold a line in several stacked
// transactions' read sets at once — a parent and its open-nested child).
//
// Maintenance piggybacks on the read-log discipline the runtime already
// has: a transaction's read_log entry with prev < 0 marks the moment a line
// *entered* that transaction's read set, so
//   add()    on every prev<0 read-log append,
//   remove() when frame rollback undoes a prev<0 entry, and
//   remove() for each line left in read_frame when the transaction ends.
// The invariant (checked under TXCC_CHECKED) is count(line, cpu) ==
// number of transactions on cpu whose read_frame contains line.
//
// Reader masks are multi-word (Config::kMaxCpus = 128 bits): one uint64
// stride per 64 CPUs, sized from the simulation's actual num_cpus so an
// 8-CPU run still pays one word per line.  Consumers walk set bits with
// countr_zero word-skipping (see Runtime::flag_readers), keeping sparse
// reader sets O(set bits), not O(num_cpus).
//
// Bounds and counter-overflow conditions are routed through the
// TXCC_CHECKED audit (they were assert-only before, i.e. unchecked in
// Release): a per-(line, cpu) count that hits 255 SATURATES STICKILY — the
// count stops moving and the reader bit stays set for the rest of the run —
// which can only cause spurious violations, never missed ones.  Each
// saturated add is reported as Check::kReaderOverflow; underflow and
// out-of-range lines are reported as set corruption.
//
// Virtual addresses (sim/vaddr.h) are dense within each arena, so this is
// array indexing, not hashing: one table per arena, indexed by line minus
// that arena's first line, so storage follows the lines actually read.  A
// single table indexed from kVaBase would zero-fill a row for each of the
// 48Ki lines of kMeta/kCounter/kLock span on the first data-line read, in
// every world (txmc builds one per schedule).  The data arena, where almost
// every transactional line lives, is checked first.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/memsys.h"
#include "sim/vaddr.h"

namespace atomos::audit {
// Reader-directory audit hooks (defined in audit.cpp; empty when
// TXCC_CHECKED is off).  Declared here rather than in audit.h because
// audit.h includes runtime.h, which includes this header.
#if defined(TXCC_CHECKED) && TXCC_CHECKED
void reader_count_overflow(sim::LineAddr line, int cpu);
void reader_dir_corrupt(sim::LineAddr line, int cpu, const char* what);
#else
inline void reader_count_overflow(sim::LineAddr, int) {}
inline void reader_dir_corrupt(sim::LineAddr, int, const char*) {}
#endif
}  // namespace atomos::audit

namespace atomos {

class ReaderDir {
 public:
  explicit ReaderDir(int num_cpus)
      : ncpu_(static_cast<std::size_t>(num_cpus)),
        words_(static_cast<std::size_t>((num_cpus + 63) / 64)) {}

  void add(sim::LineAddr line, int cpu) {
    const Slot s = locate(line);
    if (s.arena == kNoArena) {
      audit::reader_dir_corrupt(line, cpu, "add outside virtual heap");
      return;
    }
    Table& t = tables_[s.arena];
    if (s.i >= t.nlines) grow(t, s.i + 1);
    std::uint8_t& c = t.cnt[s.i * ncpu_ + static_cast<std::size_t>(cpu)];
    if (c == 0xff) {  // saturate stickily: spurious flags beat missed ones
      audit::reader_count_overflow(line, cpu);
      return;
    }
    ++c;
    t.mask[s.i * words_ + (static_cast<std::size_t>(cpu) >> 6)] |=
        std::uint64_t{1} << (cpu & 63);
  }

  void remove(sim::LineAddr line, int cpu) {
    const Slot s = locate(line);
    Table& t = tables_[s.arena];
    if (s.i >= t.nlines) {
      audit::reader_dir_corrupt(line, cpu, "remove of untracked line");
      return;
    }
    std::uint8_t& c = t.cnt[s.i * ncpu_ + static_cast<std::size_t>(cpu)];
    if (c == 0) {
      audit::reader_dir_corrupt(line, cpu, "reader count underflow");
      return;
    }
    if (c == 0xff) return;  // saturated: count unknown, bit stays set
    if (--c == 0)
      t.mask[s.i * words_ + (static_cast<std::size_t>(cpu) >> 6)] &=
          ~(std::uint64_t{1} << (cpu & 63));
  }

  /// Pointer to the line's reader-mask words (mask_stride() of them), or
  /// nullptr when no CPU has the line in a read set.  Valid until the next
  /// add() (which may grow the table).
  const std::uint64_t* mask_words(sim::LineAddr line) const {
    const Slot s = locate(line);
    const Table& t = tables_[s.arena];
    return s.i < t.nlines ? &t.mask[s.i * words_] : nullptr;
  }
  std::size_t mask_stride() const { return words_; }

  /// Calls f(cpu) for every reader of `line` except `except` (the committer
  /// flagging its own write lines must not flag itself).  The word-parallel
  /// kernel of the commit broadcast: the excluded bit is masked out of its
  /// word up front and members are found with countr_zero over whole words,
  /// so a sparse reader set costs O(set bits) with no per-bit branches.
  template <class F>
  void for_each_reader_except(sim::LineAddr line, int except, F f) const {
    const std::uint64_t* words = mask_words(line);
    if (words == nullptr) return;
    const std::size_t xw = static_cast<std::size_t>(except) >> 6;
    const std::uint64_t xbit = std::uint64_t{1} << (except & 63);
    for (std::size_t wi = 0; wi < words_; ++wi) {
      std::uint64_t m = words[wi];
      if (wi == xw) m &= ~xbit;
      while (m != 0) {
        f(static_cast<int>(wi * 64) + std::countr_zero(m));
        m &= m - 1;
      }
    }
  }

  /// True if `cpu` has `line` in at least one live read set.
  bool is_reader(sim::LineAddr line, int cpu) const {
    const std::uint64_t* words = mask_words(line);
    return words != nullptr &&
           ((words[static_cast<std::size_t>(cpu) >> 6] >> (cpu & 63)) & 1u) != 0;
  }

  std::uint32_t count(sim::LineAddr line, int cpu) const {
    const Slot s = locate(line);
    const Table& t = tables_[s.arena];
    return s.i < t.nlines ? t.cnt[s.i * ncpu_ + static_cast<std::size_t>(cpu)] : 0;
  }

  /// Lines with a table row, over all arenas: the directory's footprint.
  std::size_t tracked_lines() const {
    std::size_t n = 0;
    for (const Table& t : tables_) n += t.nlines;
    return n;
  }

 private:
  static constexpr int kShift = sim::Config::kLineShift;
  static constexpr sim::LineAddr kHeapLine = sim::kVaBase >> kShift;
  static constexpr sim::LineAddr kDataLine = sim::arena_base(sim::Arena::kData) >> kShift;
  static constexpr sim::LineAddr kDataLines =
      sim::kArenaSpan[static_cast<std::size_t>(sim::Arena::kData)] >> kShift;
  /// Table slot of lines outside the virtual heap.  It never grows, so the
  /// queries read such a line as untracked without a check of their own.
  static constexpr std::size_t kNoArena = sim::kArenaCount;

  struct Table {
    std::size_t nlines = 0;
    std::vector<std::uint64_t> mask;  // [i * words_ + w]: reader-CPU bits
    std::vector<std::uint8_t> cnt;    // [i * ncpu_ + cpu]: live read-set refs
  };
  /// A line's arena (or kNoArena) and its row index in that arena's table.
  struct Slot {
    std::size_t arena;
    std::size_t i;
  };

  /// Out of line so add() stays small enough to inline into the read path.
  [[gnu::noinline]] void grow(Table& t, std::size_t nlines) {
    t.nlines = nlines;
    t.mask.resize(nlines * words_, 0);
    t.cnt.resize(nlines * ncpu_, 0);
  }

  static Slot locate(sim::LineAddr line) {
    if (line - kDataLine < kDataLines) [[likely]]
      return {static_cast<std::size_t>(sim::Arena::kData), line - kDataLine};
    if (line < kHeapLine || line >= kDataLine) return {kNoArena, 0};
    const sim::Arena a = sim::arena_of(line << kShift);
    return {static_cast<std::size_t>(a), line - (sim::arena_base(a) >> kShift)};
  }

  std::size_t ncpu_;
  std::size_t words_;  // mask words per line: ceil(ncpu / 64)
  Table tables_[sim::kArenaCount + 1];
};

}  // namespace atomos
