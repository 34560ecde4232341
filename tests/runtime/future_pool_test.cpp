// FuturePool tests: spawn/touch, error propagation, help-first waiting.
#include "runtime/future_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "sexpr/value.hpp"

namespace curare::runtime {
namespace {

using sexpr::Value;

TEST(FuturePool, SpawnAndTouch) {
  FuturePool pool(2);
  auto f = pool.spawn([] { return Value::fixnum(42); });
  EXPECT_EQ(pool.touch(f).as_fixnum(), 42);
}

TEST(FuturePool, TouchIsIdempotent) {
  FuturePool pool(2);
  auto f = pool.spawn([] { return Value::fixnum(7); });
  EXPECT_EQ(pool.touch(f).as_fixnum(), 7);
  EXPECT_EQ(pool.touch(f).as_fixnum(), 7);
}

TEST(FuturePool, ManyFuturesAllResolve) {
  FuturePool pool(4);
  std::vector<std::shared_ptr<FutureState>> fs;
  for (int i = 0; i < 500; ++i)
    fs.push_back(pool.spawn([i] { return Value::fixnum(i); }));
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(pool.touch(fs[static_cast<std::size_t>(i)]).as_fixnum(), i);
}

TEST(FuturePool, ErrorsPropagateOnTouch) {
  FuturePool pool(2);
  auto f = pool.spawn([]() -> Value {
    throw sexpr::LispError("task failed");
  });
  EXPECT_THROW(pool.touch(f), sexpr::LispError);
}

TEST(FuturePool, HelpFirstTouchAvoidsDeadlockOnSingleWorker) {
  // One worker, and the worker's task spawns+touches a child future. A
  // blocking touch would deadlock; help-first touch must complete.
  FuturePool pool(1);
  auto parent = pool.spawn([&pool]() -> Value {
    auto child = pool.spawn([] { return Value::fixnum(5); });
    return Value::fixnum(pool.touch(child).as_fixnum() + 1);
  });
  EXPECT_EQ(pool.touch(parent).as_fixnum(), 6);
}

TEST(FuturePool, DeepFutureChainCompletes) {
  FuturePool pool(2);
  std::function<Value(int)> chain = [&](int n) -> Value {
    if (n == 0) return Value::fixnum(0);
    auto f = pool.spawn([&chain, n] { return chain(n - 1); });
    return Value::fixnum(pool.touch(f).as_fixnum() + 1);
  };
  EXPECT_EQ(chain(100).as_fixnum(), 100);
}

// The registry of spawned futures is compacted in whole passes. With
// every future still held, no pass frees anything, so each pass must
// push the next one out geometrically: n live spawns cost O(log n)
// passes, not one pass per spawn past the first threshold.
TEST(FuturePool, LiveSpawnsCompactLogarithmically) {
  FuturePool pool(2);
  constexpr std::size_t kN = 16384;
  std::vector<std::shared_ptr<FutureState>> live;
  live.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i)
    live.push_back(pool.spawn([] { return Value::nil(); }));
  // Thresholds 1024, 2048, …, 16384: log2(kN / 1024) + 1 passes.
  EXPECT_LE(pool.compactions(), 5u);
  EXPECT_GE(pool.compactions(), 1u);
  for (auto& f : live) pool.touch(f);
}

// Dropped futures still get reclaimed: a registry of dead entries
// shrinks back at the next pass, and the threshold follows it down.
TEST(FuturePool, DroppedFuturesAreCompactedAway) {
  FuturePool pool(2);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 1024; ++i) {
      auto f = pool.spawn([] { return Value::nil(); });
      pool.touch(f);
    }
  }
  // Nearly every future died right after its touch (a worker may still
  // hold the last one or two), so the passes ran at the 1024 floor:
  // about one per 1024 spawns, where a threshold that only ever grew
  // would have run 3.
  EXPECT_GE(pool.compactions(), 7u);
  EXPECT_LE(pool.compactions(), 9u);
}

TEST(FuturePool, WorkerCountDefaultsPositive) {
  FuturePool pool;
  EXPECT_GE(pool.workers(), 2u);
}

TEST(FuturePool, SpawnCountTracks) {
  FuturePool pool(2);
  auto a = pool.spawn([] { return Value::nil(); });
  auto b = pool.spawn([] { return Value::nil(); });
  pool.touch(a);
  pool.touch(b);
  EXPECT_EQ(pool.spawned(), 2u);
}

TEST(FuturePool, RecorderCountsSpawnsAndWaits) {
  obs::Recorder rec;
  FuturePool pool(2, &rec);
  auto slow = pool.spawn([]() -> Value {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return Value::fixnum(1);
  });
  auto fast = pool.spawn([] { return Value::fixnum(2); });
  EXPECT_EQ(pool.touch(slow).as_fixnum(), 1);
  EXPECT_EQ(pool.touch(fast).as_fixnum(), 2);
  EXPECT_EQ(rec.metrics.counter("future.spawned").get(), 2u);
  EXPECT_EQ(rec.metrics.counter("future.touches").get(), 2u);
  // The slow touch blocked; its wait time was recorded (this histogram
  // is the proof the old 1ms poll loop is gone — a poll would burn CPU,
  // a blocked predicate wait records one span covering the whole wait).
  EXPECT_GE(rec.metrics.counter("future.touch_waits").get(), 1u);
  EXPECT_EQ(rec.metrics.histogram("future.wait_ns").count(),
            rec.metrics.counter("future.touch_waits").get());
  EXPECT_GE(rec.metrics.histogram("future.wait_ns").max(), 5'000'000u);
}

TEST(FuturePool, ResolvedTouchNeverCountsAsWait) {
  obs::Recorder rec;
  FuturePool pool(2, &rec);
  auto f = pool.spawn([] { return Value::fixnum(3); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pool.touch(f).as_fixnum(), 3);
  EXPECT_EQ(rec.metrics.counter("future.touch_waits").get(), 0u);
  EXPECT_EQ(rec.metrics.histogram("future.wait_ns").count(), 0u);
}

TEST(FuturePool, HelpedCounterTracksInlineRuns) {
  obs::Recorder rec;
  // One worker busy on a slow task; touching a queued future forces the
  // caller to help-run it inline.
  FuturePool pool(1, &rec);
  auto slow = pool.spawn([]() -> Value {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return Value::nil();
  });
  auto queued = pool.spawn([] { return Value::fixnum(9); });
  EXPECT_EQ(pool.touch(queued).as_fixnum(), 9);
  EXPECT_GE(rec.metrics.counter("future.helped").get(), 1u);
  pool.touch(slow);
}

TEST(FuturePool, ParallelExecutionActuallyOverlaps) {
  FuturePool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::shared_ptr<FutureState>> fs;
  for (int i = 0; i < 4; ++i) {
    fs.push_back(pool.spawn([&]() -> Value {
      int now = running.fetch_add(1) + 1;
      int old = peak.load();
      while (now > old && !peak.compare_exchange_weak(old, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      running.fetch_sub(1);
      return Value::nil();
    }));
  }
  for (auto& f : fs) pool.touch(f);
  EXPECT_GT(peak.load(), 1) << "tasks must overlap on a 4-worker pool";
}

}  // namespace
}  // namespace curare::runtime
