// Shared evaluation-tick helper: one cancellation-poll implementation
// for both evaluation engines (DESIGN.md §10, §13).
//
// The tree-walking interpreter advances the tick once per eval step;
// the bytecode VM advances it once per executed instruction. Every
// 64th step funnels into runtime::poll_cancellation(), so a busy (not
// blocked) server can outlive its run's deadline by at most 64 steps
// regardless of which engine is running it — and the sampling profiler
// rides the same counter, so its period arithmetic is identical under
// both engines. The process-wide poll count is the "one metric" the
// two engines share: it feeds the resilience report and lets tests
// assert that preemption points were actually reached. It is counted
// per thread (obs::PerThreadCounter) and summed when read, so servers
// ticking side by side never write a shared cache line.
#pragma once

#include <cstdint>

#include "obs/per_thread_counter.hpp"
#include "obs/profiler.hpp"
#include "runtime/resilience.hpp"
#include "runtime/resource.hpp"

namespace curare::runtime {

/// Steps (eval steps / VM instructions) between cancellation polls.
/// Power of two; the profiler's minimum period (8) divides it.
inline constexpr unsigned kEvalPollPeriod = 64;

/// A task a consuming queue owner pushed as its lane's only backlog
/// and has not offered to thieves yet (WorkStealingTaskQueues, DESIGN.md
/// §8). The owner usually pops it itself right away; when it is still
/// busy in its task body a full poll period after the push, outside
/// any lock region, the tick offers the task (`offer`), making it
/// stealable and waking a sleeper.
struct ParkedTask {
  void (*offer)(const ParkedTask&) = nullptr;  ///< null: nothing parked
  void* queue = nullptr;
  std::uint32_t lane = 0;
  std::uint64_t stamp = 0;  ///< the lane's push count at the push
  unsigned tick = 0;        ///< g_eval_tick at the push
};

namespace detail {
inline obs::PerThreadCounter g_eval_polls;
inline thread_local unsigned g_eval_tick = 0;
inline thread_local ParkedTask g_parked;
/// Net runtime locks this thread took in its current task body
/// (LockManager counts them; CriRun::serve zeroes it per body, so a
/// lock handed off to another task's unlock cannot leave it stuck).
inline thread_local int g_body_locks = 0;
}  // namespace detail

/// Offer this thread's parked task once a full poll period has passed
/// since its push (so tails shorter than a period never offer) — but
/// not from inside a lock region: a §3.2.1 lock spans the body from
/// head to tail, so a stolen successor would block on it at once and
/// the chain would only migrate.
inline void offer_parked_task(unsigned tick) {
  ParkedTask& p = detail::g_parked;
  if (p.offer == nullptr || tick - p.tick < kEvalPollPeriod ||
      detail::g_body_locks > 0)
    return;
  const ParkedTask taken = p;
  p.offer = nullptr;
  taken.offer(taken);
}

/// How many times either engine reached a cancellation poll point
/// (process-wide, all threads, both engines).
inline std::uint64_t eval_poll_count() {
  return detail::g_eval_polls.load();
}

/// Advance this thread's eval tick one step; offer a parked queue
/// task, poll cancellation and charge eval fuel on every
/// kEvalPollPeriod-th step. Returns the tick so the caller can drive
/// the profiler off the same counter.
///
/// Fuel rides the same poll the deadline does, so both engines (one
/// tick per tree-walk step, one per VM instruction) get the same
/// bound with the same ≤ kEvalPollPeriod-step overshoot — and a
/// pure-arith loop that never allocates is still clipped.
inline unsigned eval_tick_step() {
  const unsigned tick = ++detail::g_eval_tick;
  if ((tick & (kEvalPollPeriod - 1)) == 0) {
    detail::g_eval_polls.add();
    offer_parked_task(tick);
    poll_cancellation();
    charge_fuel(kEvalPollPeriod);
  }
  return tick;
}

/// True when this tick should take a profiler sample. The &7 pre-check
/// keeps the disarmed cost to the tick itself (the profiler's period
/// is a power of two ≥ 8).
inline bool eval_tick_profile_due(unsigned tick) {
  return (tick & 0x7) == 0 && obs::Profiler::due(tick);
}

}  // namespace curare::runtime
