#include "cla/runtime/recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "cla/trace/salvage.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/error.hpp"
#include "cla/util/faultinject.hpp"
#include "support/temp_dir.hpp"

namespace cla::rt {
namespace {

class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { Recorder::instance().reset(); }
  void TearDown() override { Recorder::instance().reset(); }
};

TEST_F(RecorderTest, EnsureCurrentThreadAssignsDenseIds) {
  Recorder& recorder = Recorder::instance();
  const auto tid = recorder.ensure_current_thread();
  EXPECT_EQ(tid, 0u);
  // Re-registering the same thread is a no-op.
  EXPECT_EQ(recorder.ensure_current_thread(), tid);
}

TEST_F(RecorderTest, RecordsEventsForCurrentThread) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.record(trace::EventType::MutexAcquire, 42);
  recorder.record(trace::EventType::MutexAcquired, 42, 0);
  recorder.record(trace::EventType::MutexReleased, 42);
  recorder.thread_exit();
  EXPECT_EQ(recorder.event_count(), 5u);  // start + 3 + exit
  const trace::Trace t = recorder.collect();
  EXPECT_NO_THROW(t.validate());
  const auto events = t.thread_events(0);
  EXPECT_EQ(events.front().type, trace::EventType::ThreadStart);
  EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
}

TEST_F(RecorderTest, CollectNormalizesTimestampsToZero) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.record(trace::EventType::MutexAcquire, 1);
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  EXPECT_EQ(t.start_ts(), 0u);
}

TEST_F(RecorderTest, CollectAppendsMissingThreadExit) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.record(trace::EventType::MutexAcquire, 1);
  // no explicit thread_exit
  const trace::Trace t = recorder.collect();
  EXPECT_EQ(t.thread_events(0).back().type, trace::EventType::ThreadExit);
}

TEST_F(RecorderTest, MultipleOsThreadsGetDistinctIds) {
  Recorder& recorder = Recorder::instance();
  const auto parent = recorder.ensure_current_thread();
  trace::ThreadId child_tid = trace::kNoThread;
  const trace::ThreadId reserved = recorder.allocate_thread();
  recorder.record(trace::EventType::ThreadCreate,
                  static_cast<trace::ObjectId>(reserved));
  std::thread worker([&] {
    recorder.bind_current_thread(reserved, parent);
    child_tid = reserved;
    recorder.record(trace::EventType::MutexAcquire, 7);
    recorder.thread_exit();
  });
  worker.join();
  recorder.thread_exit();
  EXPECT_EQ(child_tid, 1u);
  const trace::Trace t = recorder.collect();
  EXPECT_EQ(t.thread_count(), 2u);
  // Child records its parent in ThreadStart.object.
  EXPECT_EQ(t.thread_events(1).front().object, static_cast<trace::ObjectId>(0));
}

TEST_F(RecorderTest, NamesSurviveCollection) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.name_object(42, "Qlock");
  recorder.name_thread(0, "main");
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  ASSERT_NE(t.object_name(42), nullptr);
  EXPECT_EQ(*t.object_name(42), "Qlock");
  EXPECT_EQ(t.thread_display_name(0), "main");
}

TEST_F(RecorderTest, CollectResetsForNextRun) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.thread_exit();
  (void)recorder.collect();
  EXPECT_EQ(recorder.event_count(), 0u);
  // A fresh registration starts at thread 0 again.
  EXPECT_EQ(recorder.ensure_current_thread(), 0u);
}

TEST_F(RecorderTest, NameRegistrationDedupesLastWriteWins) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  recorder.name_object(42, "first");
  recorder.name_object(42, "first");   // idempotent re-registration
  recorder.name_object(42, "second");  // last write wins
  recorder.name_thread(0, "a");
  recorder.name_thread(0, "b");
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  ASSERT_NE(t.object_name(42), nullptr);
  EXPECT_EQ(*t.object_name(42), "second");
  EXPECT_EQ(t.thread_display_name(0), "b");
}

TEST_F(RecorderTest, PerThreadTimestampsAreMonotone) {
  Recorder& recorder = Recorder::instance();
  recorder.ensure_current_thread();
  for (int i = 0; i < 1000; ++i) {
    recorder.record(trace::EventType::MutexAcquire, 1);
    recorder.record(trace::EventType::MutexAcquired, 1, 0);
    recorder.record(trace::EventType::MutexReleased, 1);
  }
  recorder.thread_exit();
  const trace::Trace t = recorder.collect();
  const auto events = t.thread_events(0);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts, events[i - 1].ts);
  }
}

// ---- streaming (crash-resilient) mode -----------------------------------
//
// These tests use their own Recorder instances (not the singleton):
// streaming is a one-way door per recorder — finish_streaming closes the
// trace file for good.

std::string temp_trace_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(RecorderStreaming, MultithreadedRoundTripThroughDisk) {
  const std::string path = temp_trace_path("cla_rec_stream.clat");
  constexpr int kWorkers = 3;
  constexpr int kEventsPerWorker = 500;
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/4096);
    ASSERT_TRUE(recorder.streaming());
    recorder.name_object(7, "hot_lock");
    recorder.name_thread(0, "main");
    const auto parent = recorder.ensure_current_thread();
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      const auto tid = recorder.allocate_thread();
      recorder.record(trace::EventType::ThreadCreate,
                      static_cast<trace::ObjectId>(tid));
      workers.emplace_back([&recorder, tid, parent] {
        recorder.bind_current_thread(tid, parent);
        for (int i = 0; i < kEventsPerWorker; ++i) {
          recorder.record(trace::EventType::MutexAcquire, 7);
          recorder.record(trace::EventType::MutexAcquired, 7, 0);
          recorder.record(trace::EventType::MutexReleased, 7);
        }
        recorder.thread_exit();
      });
    }
    for (auto& worker : workers) worker.join();
    recorder.thread_exit();
    recorder.finish_streaming();
    EXPECT_EQ(recorder.dropped_events(), 0u);
  }
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.thread_count(), 1u + kWorkers);
  // main: start + kWorkers creates + exit; workers: start + 3N + exit.
  EXPECT_EQ(t.event_count(), (2u + kWorkers) +
                                 kWorkers * (3u * kEventsPerWorker + 2u));
  ASSERT_NE(t.object_name(7), nullptr);
  EXPECT_EQ(*t.object_name(7), "hot_lock");
  EXPECT_EQ(t.thread_display_name(0), "main");
  EXPECT_EQ(t.dropped_events(), 0u);
  std::remove(path.c_str());
}

TEST(RecorderStreaming, SmallBuffersFlushIncrementallyWithoutLoss) {
  // Capacity is clamped to the 64-event minimum: every worker cycles its
  // double buffer dozens of times, so this exercises publish/flip/flush
  // plus the drop accounting (any drop is visible in the header).
  const std::string path = temp_trace_path("cla_rec_small.clat");
  constexpr int kEvents = 3000;
  std::uint64_t dropped = 0;
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/1);  // clamps to 64
    recorder.ensure_current_thread();
    // CondSignal has no pairing invariant, so the trace stays
    // validate()-clean even when overflow drops some of these.
    for (int i = 0; i < 2 * kEvents; ++i) {
      recorder.record(trace::EventType::CondSignal, 9, i);
    }
    recorder.thread_exit();
    recorder.finish_streaming();
    dropped = recorder.dropped_events();
  }
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.dropped_events(), dropped);
  // Everything not dropped must be on disk (start + pairs + exit), and a
  // dropped Exit is re-synthesized, adding at most one event.
  EXPECT_GE(t.event_count() + dropped, 2u * kEvents + 2u);
  std::remove(path.c_str());
}

TEST(RecorderStreaming, ImplicitThreadDeathRecordsRealThreadExit) {
  // A bound thread that dies without calling thread_exit() — a
  // pthread_cancel'ed thread, or one that simply returns in a
  // non-interposed app — must still close its stream: the recorder's TSD
  // destructor records the missing ThreadExit with a fresh timestamp
  // (finish_streaming's synthesized exits reuse the last event's ts, the
  // observable difference).
  const std::string path = temp_trace_path("cla_rec_tsd_exit.clat");
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/4096);
    const auto parent = recorder.ensure_current_thread();
    const auto tid = recorder.allocate_thread();
    recorder.record(trace::EventType::ThreadCreate,
                    static_cast<trace::ObjectId>(tid));
    std::thread([&recorder, tid, parent] {
      recorder.bind_current_thread(tid, parent);
      recorder.record(trace::EventType::CondSignal, 5);
      // No thread_exit(): the TSD destructor has to cover for us.
    }).join();
    recorder.thread_exit();
    recorder.finish_streaming();
    EXPECT_EQ(recorder.dropped_events(), 0u);
  }
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_NO_THROW(t.validate());
  ASSERT_EQ(t.thread_count(), 2u);
  const auto events = t.thread_events(1);
  ASSERT_EQ(events.size(), 3u);  // start, signal, destructor-recorded exit
  EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
  EXPECT_GT(events.back().ts, events[1].ts);
  std::remove(path.c_str());
}

// Arms CLA_FAULT_FLUSHER_STALL_MS for one test and disarms it after.
class StalledFlusher {
 public:
  explicit StalledFlusher(const char* ms) {
    ::setenv("CLA_FAULT_FLUSHER_STALL_MS", ms, 1);
    util::fault::reinit_for_tests();
  }
  ~StalledFlusher() {
    ::unsetenv("CLA_FAULT_FLUSHER_STALL_MS");
    util::fault::reinit_for_tests();
  }
  StalledFlusher(const StalledFlusher&) = delete;
  StalledFlusher& operator=(const StalledFlusher&) = delete;
};

std::size_t count_exits(std::span<const trace::Event> events) {
  std::size_t exits = 0;
  for (const trace::Event& e : events) {
    if (e.type == trace::EventType::ThreadExit) ++exits;
  }
  return exits;
}

TEST(RecorderStreaming, StalledFlusherRecordsEachThreadExitExactlyOnce) {
  // Each worker overruns its 2x64-event double buffer while the flusher
  // sleeps, so its ThreadExit finds both halves full. That exit is parked
  // and written later — never dropped, never written twice — so recorded
  // plus dropped is exactly the number of events issued.
  cla::test_support::TempDir dir;
  const std::string path = dir.file("stalled.clat");
  constexpr int kWorkers = 4;
  constexpr int kEventsPerWorker = 2000;
  std::uint64_t dropped = 0;
  {
    StalledFlusher stall("20");
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/64);
    const auto parent = recorder.ensure_current_thread();
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      const auto tid = recorder.allocate_thread();
      recorder.record(trace::EventType::ThreadCreate,
                      static_cast<trace::ObjectId>(tid));
      workers.emplace_back([&recorder, tid, parent] {
        recorder.bind_current_thread(tid, parent);
        // CondSignal has no pairing invariant, so drops keep the trace
        // validate()-clean.
        for (int i = 0; i < kEventsPerWorker; ++i) {
          recorder.record(trace::EventType::CondSignal, 9, i);
        }
        recorder.thread_exit();
      });
    }
    for (auto& worker : workers) worker.join();
    recorder.thread_exit();
    recorder.finish_streaming();
    dropped = recorder.dropped_events();
  }
  const trace::Trace t = cla::trace::read_trace_file(path);
  EXPECT_NO_THROW(t.validate());
  EXPECT_GT(dropped, 0u) << "the stall did not starve the buffers";
  EXPECT_EQ(t.dropped_events(), dropped);
  // main: start + creates + exit; workers: start + events + exit.
  const std::uint64_t issued =
      (2u + kWorkers) + kWorkers * (kEventsPerWorker + 2u);
  EXPECT_EQ(t.event_count() + dropped, issued);
  ASSERT_EQ(t.thread_count(), 1u + kWorkers);
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    const auto events = t.thread_events(tid);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(count_exits(events), 1u) << "thread " << tid;
    EXPECT_EQ(events.back().type, trace::EventType::ThreadExit)
        << "thread " << tid;
    // The surviving events keep their recording order across chunks.
    std::uint64_t prev_arg = 0;
    bool first = true;
    for (const trace::Event& e : events) {
      if (e.type != trace::EventType::CondSignal) continue;
      EXPECT_TRUE(first || e.arg > prev_arg) << "thread " << tid;
      prev_arg = e.arg;
      first = false;
    }
  }
}

TEST(RecorderStreaming, CrashSpillWritesParkedThreadExit) {
  // A worker's ThreadExit is parked behind two full halves while the
  // flusher sleeps; a crash spill must land it after those halves.
  cla::test_support::TempDir dir;
  const std::string path = dir.file("parked_crash.clat");
  {
    StalledFlusher stall("200");
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/64);
    const auto parent = recorder.ensure_current_thread();
    const auto tid = recorder.allocate_thread();
    recorder.record(trace::EventType::ThreadCreate,
                    static_cast<trace::ObjectId>(tid));
    std::thread([&recorder, tid, parent] {
      recorder.bind_current_thread(tid, parent);
      for (int i = 0; i < 1000; ++i) {
        recorder.record(trace::EventType::CondSignal, 9, i);
      }
      recorder.thread_exit();
    }).join();
    EXPECT_GT(recorder.dropped_events(), 0u);
    recorder.crash_spill();
  }
  cla::trace::SalvageResult got = cla::trace::salvage_trace_file(path);
  EXPECT_FALSE(got.report.clean_close);
  // Repair adds only the main thread's exit; the worker's is its own.
  EXPECT_EQ(got.report.synthesized_events, 1u);
  // main: start + create; worker: start + 1000 events + exit.
  EXPECT_EQ(got.report.events_recovered + got.report.runtime_dropped_events,
            2u + 1002u);
  ASSERT_EQ(got.trace.thread_count(), 2u);
  const auto events = got.trace.thread_events(1);
  EXPECT_EQ(count_exits(events), 1u);
  EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
  // The 128 events that fit in both halves (ThreadStart included), then
  // the parked exit.
  EXPECT_EQ(events.size(), 129u);
}

TEST(RecorderStreaming, CrashSpillLeavesSalvageableFile) {
  const std::string path = temp_trace_path("cla_rec_crash.clat");
  {
    Recorder recorder;
    recorder.start_streaming(path, /*buffer_events=*/4096);
    recorder.ensure_current_thread();
    recorder.record(trace::EventType::MutexAcquire, 5);
    recorder.record(trace::EventType::MutexAcquired, 5, 0);
    // Process "dies" holding lock 5: no release, no exit, no clean close.
    recorder.crash_spill();
    EXPECT_TRUE(recorder.shut_down());

    // Satellite: recording after shutdown drops and counts, never UB.
    const std::uint64_t before = recorder.dropped_events();
    recorder.record(trace::EventType::MutexReleased, 5);
    EXPECT_EQ(recorder.dropped_events(), before + 1);
  }
  cla::trace::SalvageResult got = cla::trace::salvage_trace_file(path);
  EXPECT_NO_THROW(got.trace.validate());
  EXPECT_FALSE(got.report.clean_close);
  EXPECT_TRUE(got.report.lossy());
  EXPECT_GE(got.report.events_recovered, 3u);  // start + acquire + acquired
  // The dangling critical section was closed by the repair pass.
  const auto events = got.trace.thread_events(0);
  EXPECT_EQ(events.back().type, trace::EventType::ThreadExit);
  std::remove(path.c_str());
}

TEST(RecorderStreaming, CrashSpillIsIdempotentFirstCallerWins) {
  const std::string path = temp_trace_path("cla_rec_idem.clat");
  Recorder recorder;
  recorder.start_streaming(path, 4096);
  recorder.ensure_current_thread();
  recorder.record(trace::EventType::MutexAcquire, 1);
  recorder.crash_spill();
  recorder.crash_spill();  // no double write
  recorder.finish_streaming();  // no clean-close overwrite either
  cla::trace::SalvageResult got = cla::trace::salvage_trace_file(path);
  EXPECT_FALSE(got.report.clean_close);
  EXPECT_EQ(got.report.events_recovered, 2u);  // start + acquire, once
  std::remove(path.c_str());
}

TEST(RecorderCallStacks, InternsDedupesClampsAndSurvivesCollect) {
  Recorder recorder;
  recorder.ensure_current_thread();
  const std::uint64_t a[2] = {0x10, 0x20};
  const std::uint64_t b[2] = {0x10, 0x30};
  // Depth 0 / null chains mean "no stack".
  EXPECT_EQ(recorder.register_call_stack(nullptr, 4), 0u);
  EXPECT_EQ(recorder.register_call_stack(a, 0), 0u);
  // Ids are 1-based and stable; identical chains dedupe.
  const std::uint64_t id_a = recorder.register_call_stack(a, 2);
  EXPECT_EQ(id_a, 1u);
  EXPECT_EQ(recorder.register_call_stack(a, 2), id_a);
  EXPECT_EQ(recorder.register_call_stack(b, 2), 2u);
  // Over-deep chains clamp to the format maximum and dedupe against
  // their clamped form.
  std::vector<std::uint64_t> deep(trace::kMaxCallStackDepth + 3, 0x40);
  const std::uint64_t id_deep =
      recorder.register_call_stack(deep.data(), deep.size());
  EXPECT_EQ(id_deep, 3u);
  EXPECT_EQ(recorder.register_call_stack(deep.data(), trace::kMaxCallStackDepth),
            id_deep);

  recorder.record(trace::EventType::MutexAcquire, 7, id_a);
  recorder.record(trace::EventType::MutexAcquired, 7, 0);
  recorder.record(trace::EventType::MutexReleased, 7);
  trace::Trace trace = recorder.collect();
  ASSERT_EQ(trace.call_stacks().size(), 3u);
  EXPECT_EQ(trace.call_stacks().at(id_a),
            (std::vector<std::uint64_t>{0x10, 0x20}));
  EXPECT_EQ(trace.call_stacks().at(id_deep).size(), trace::kMaxCallStackDepth);
}

TEST(RecorderCallStacks, StreamingModeEmitsChunksOnFirstSighting) {
  const std::string path = temp_trace_path("cla_rec_stacks.clat");
  Recorder recorder;
  recorder.start_streaming(path, 4096);
  recorder.ensure_current_thread();
  const std::uint64_t a[1] = {0x99};
  const std::uint64_t id = recorder.register_call_stack(a, 1);
  EXPECT_EQ(recorder.register_call_stack(a, 1), id);  // no duplicate chunk
  recorder.record(trace::EventType::MutexAcquire, 7, id);
  recorder.record(trace::EventType::MutexAcquired, 7, 0);
  recorder.record(trace::EventType::MutexReleased, 7);
  recorder.finish_streaming();
  const trace::Trace loaded = cla::trace::read_trace_file(path);
  ASSERT_EQ(loaded.call_stacks().size(), 1u);
  EXPECT_EQ(loaded.call_stacks().at(id), (std::vector<std::uint64_t>{0x99}));
  std::remove(path.c_str());
}

TEST(RecorderStreaming, CollectIsRejectedWhileStreaming) {
  const std::string path = temp_trace_path("cla_rec_collect.clat");
  Recorder recorder;
  recorder.start_streaming(path, 4096);
  recorder.ensure_current_thread();
  EXPECT_THROW((void)recorder.collect(), cla::util::Error);
  recorder.finish_streaming();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cla::rt
