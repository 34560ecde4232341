#include "obs/per_thread_counter.hpp"

#include <mutex>
#include <vector>

namespace curare::obs {

namespace {

/// Slot allocator. Leaked on purpose: threads may still exit (and hand
/// their slot back) while static destructors run.
struct SlotRegistry {
  std::mutex mu;
  std::vector<std::size_t> free;
  std::size_t next = 0;
};

SlotRegistry& registry() {
  static auto* r = new SlotRegistry;
  return *r;
}

struct ThreadSlot {
  std::size_t index;
  ThreadSlot() {
    SlotRegistry& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    if (r.free.empty()) {
      index = r.next++;
    } else {
      index = r.free.back();
      r.free.pop_back();
    }
  }
  ~ThreadSlot() {
    SlotRegistry& r = registry();
    std::lock_guard<std::mutex> g(r.mu);
    r.free.push_back(index);
  }
};

}  // namespace

std::size_t thread_slot() {
  thread_local ThreadSlot slot;
  return slot.index;
}

}  // namespace curare::obs
