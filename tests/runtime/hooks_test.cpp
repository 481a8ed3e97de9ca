// Real-pthread instrumentation wrappers: run actual threads, verify the
// emitted trace follows the Fig. 4 protocol and analyzes cleanly.
#include "cla/runtime/hooks.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "support/analyze.hpp"

namespace cla::rt {
namespace {

/// A short burst of real work the optimizer cannot drop.
void spin(int iterations) {
  std::atomic<int> sink{0};
  for (int k = 0; k < iterations; ++k) {
    sink.fetch_add(k, std::memory_order_relaxed);
  }
}

class HooksTest : public ::testing::Test {
 protected:
  void SetUp() override { Recorder::instance().reset(); }
  void TearDown() override { Recorder::instance().reset(); }
};

TEST_F(HooksTest, MutexProtocolEventsInOrder) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  InstrumentedMutex mutex("m");
  mutex.lock();
  mutex.unlock();
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  const auto events = t.thread_events(0);
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[1].type, trace::EventType::MutexAcquire);
  EXPECT_EQ(events[2].type, trace::EventType::MutexAcquired);
  EXPECT_EQ(events[2].arg, 0u);  // uncontended via trylock fast path
  EXPECT_EQ(events[3].type, trace::EventType::MutexReleased);
  EXPECT_NO_THROW(t.validate());
}

TEST_F(HooksTest, ContendedLockSetsContendedFlag) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  InstrumentedMutex mutex("m");
  // Handshake first: on a loaded machine one thread can run its whole
  // loop before the other is scheduled, and nothing ever contends. Thread
  // 0 holds the lock until thread 1 has announced its attempt, then a
  // while longer, so thread 1's acquisition finds the lock taken.
  std::atomic<bool> held{false};
  std::atomic<bool> trying{false};
  run_instrumented_threads(2, [&](std::uint32_t me) {
    if (me == 0) {
      mutex.lock();
      held.store(true, std::memory_order_release);
      while (!trying.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      mutex.unlock();
    } else {
      while (!held.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      trying.store(true, std::memory_order_release);
      mutex.lock();
      mutex.unlock();
    }
    for (int i = 0; i < 200; ++i) {
      mutex.lock();
      // Real work plus a yield inside the critical section, so the peer
      // reliably observes EBUSY even on a single-CPU machine.
      spin(500);
      std::this_thread::yield();
      mutex.unlock();
    }
  });
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  std::size_t contended = 0;
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    for (const auto& e : t.thread_events(tid)) {
      if (e.type == trace::EventType::MutexAcquired && e.arg == 1) ++contended;
    }
  }
  // With 2 threads hammering one lock, at least some acquisitions contend
  // (even on a single-CPU box, preemption inside the CS causes EBUSY).
  EXPECT_GT(contended, 0u);
  EXPECT_NO_THROW(t.validate());
}

TEST_F(HooksTest, BarrierRecordsEpisodes) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  InstrumentedBarrier barrier(2, "bar");
  run_instrumented_threads(2, [&](std::uint32_t) {
    barrier.wait();
    barrier.wait();
  });
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  std::set<std::uint64_t> episodes;
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    for (const auto& e : t.thread_events(tid)) {
      if (e.type == trace::EventType::BarrierArrive) episodes.insert(e.arg);
    }
  }
  EXPECT_EQ(episodes, (std::set<std::uint64_t>{0, 1}));
  EXPECT_NO_THROW(t.validate());
}

TEST_F(HooksTest, CondVarProtocolAnalyzable) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  InstrumentedMutex mutex("m");
  InstrumentedCond cond("cv");
  bool ready = false;  // guarded by mutex
  std::atomic<bool> about_to_wait{false};
  run_instrumented_threads(2, [&](std::uint32_t me) {
    if (me == 0) {
      mutex.lock();
      // Published under the mutex: the signaler cannot take the mutex
      // until cond.wait() releases it, so the waiter is already waiting
      // when `ready` flips and at least one wait is recorded.
      about_to_wait.store(true, std::memory_order_release);
      while (!ready) cond.wait(mutex);
      mutex.unlock();
    } else {
      while (!about_to_wait.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      mutex.lock();
      ready = true;
      mutex.unlock();
      cond.signal();
    }
  });
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  EXPECT_NO_THROW(t.validate());
  const auto result = test_support::analyze(t);
  EXPECT_GT(result.completion_time, 0u);
  ASSERT_EQ(result.conds.size(), 1u);
  EXPECT_GE(result.conds[0].waits, 1u);
  EXPECT_GE(result.conds[0].signals, 1u);
}

TEST_F(HooksTest, CoordinatorRecordsCreateAndJoinEdges) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  run_instrumented_threads(3, [&](std::uint32_t) { spin(1000); });
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  EXPECT_EQ(t.thread_count(), 4u);
  std::size_t creates = 0;
  std::size_t join_ends = 0;
  for (const auto& e : t.thread_events(0)) {
    creates += e.type == trace::EventType::ThreadCreate ? 1 : 0;
    join_ends += e.type == trace::EventType::JoinEnd ? 1 : 0;
  }
  EXPECT_EQ(creates, 3u);
  EXPECT_EQ(join_ends, 3u);
  // Full pipeline: the real-thread trace analyzes without errors.
  const auto result = test_support::analyze(t);
  EXPECT_EQ(result.completion_time, t.end_ts() - t.start_ts());
}

}  // namespace
}  // namespace cla::rt
