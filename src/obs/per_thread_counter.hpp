// A counter bumped on hot paths by many threads at once.
//
// A single std::atomic bumped by every server thread makes its cache
// line bounce between cores on every add — the eval tick's poll count
// and the VM's engine-entry counters sit on paths that run once per 64
// instructions or once per closure entry, on every server at once.
// PerThreadCounter gives each live thread its own cache-line-sized
// cell and sums the cells when read, so an add never writes a line
// another thread writes.
//
// Cells are indexed by a small per-thread slot, unique among the
// threads alive at one time and reused after a thread exits, so a
// pool that starts fresh server threads every run keeps landing on
// low cells. More than kCells live threads share cells; the adds stay
// atomic, so the sum stays exact, only the sharing comes back.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace curare::obs {

/// The calling thread's slot: a small index unique among live threads,
/// handed back to a free list when the thread exits.
std::size_t thread_slot();

class PerThreadCounter {
 public:
  static constexpr std::size_t kCells = 64;

  void add(std::uint64_t n = 1) {
    cells_[thread_slot() % kCells].v.fetch_add(n,
                                               std::memory_order_relaxed);
  }

  /// Sum over every cell; exact once the adders have quiesced.
  std::uint64_t load() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kCells];
};

}  // namespace curare::obs
