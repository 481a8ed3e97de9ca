// End-to-end test of the paper's deployment model: an uninstrumented
// pthread binary runs under LD_PRELOAD=libcla_interpose.so, the flushed
// .clat trace is loaded and analyzed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "support/analyze.hpp"
#include "support/temp_dir.hpp"
#include "cla/trace/trace_io.hpp"

namespace {

class InterposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_path_ = (std::filesystem::temp_directory_path() /
                   "cla_interpose_test.clat")
                      .string();
    std::remove(trace_path_.c_str());
  }
  void TearDown() override { std::remove(trace_path_.c_str()); }

  int run_demo(const std::string& mode = "",
               const std::string& extra_env = "",
               const char* app = CLA_DEMO_APP) const {
    const std::string command = extra_env + " CLA_TRACE_FILE=" + trace_path_ +
                                " LD_PRELOAD=" CLA_INTERPOSE_LIB " " + app +
                                " " + mode + " > /dev/null 2>&1";
    return std::system(command.c_str());
  }

  std::string trace_path_;
};

// Chunk kind -> count over a chunked `.clat` file (preamble skipped).
std::map<std::uint32_t, int> chunk_kinds(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::map<std::uint32_t, int> kinds;
  std::size_t at = 8;
  while (at + 16 <= bytes.size() &&
         std::memcmp(bytes.data() + at, cla::trace::kChunkMagic, 4) == 0) {
    std::uint32_t kind = 0;
    std::uint32_t payload_bytes = 0;
    std::memcpy(&kind, bytes.data() + at + 4, 4);
    std::memcpy(&payload_bytes, bytes.data() + at + 8, 4);
    ++kinds[kind];
    at += 16 + payload_bytes;
  }
  EXPECT_EQ(at, bytes.size()) << "trailing bytes after the last chunk";
  return kinds;
}

int count_of(const std::map<std::uint32_t, int>& kinds,
             cla::trace::ChunkKind kind) {
  const auto it = kinds.find(static_cast<std::uint32_t>(kind));
  return it == kinds.end() ? 0 : it->second;
}

TEST_F(InterposeTest, PreloadedAppWritesAnalyzableTrace) {
  ASSERT_EQ(run_demo(), 0);
  ASSERT_TRUE(std::filesystem::exists(trace_path_));

  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  // main + 4 workers; glibc may register extra internal threads/locks
  // (startup locking under the interposer), so assert lower bounds and
  // identify the application's own locks by their invocation count.
  EXPECT_GE(trace.thread_count(), 5u);
  EXPECT_GT(trace.event_count(), 100u);
  EXPECT_NO_THROW(trace.validate());

  const auto result = cla::test_support::analyze(trace);
  EXPECT_GT(result.completion_time, 0u);
  EXPECT_GE(result.locks.size(), 2u);
  EXPECT_GE(result.barriers.size(), 1u);
  // All 20*4 = 80 acquisitions of each application lock are in the trace.
  std::vector<const cla::analysis::LockStats*> app_locks;
  for (const auto& lock : result.locks) {
    if (lock.invocations == 80u) app_locks.push_back(&lock);
  }
  ASSERT_EQ(app_locks.size(), 2u);
  // The big-CS lock dominates the critical path (it sorts first because
  // the lock list is ordered by on-path hold time).
  EXPECT_EQ(app_locks.front(), &result.locks.front());
  EXPECT_GT(app_locks.front()->cp_time_fraction, 0.2);
  EXPECT_GT(app_locks.front()->total_hold, app_locks.back()->total_hold);
}

TEST_F(InterposeTest, FailedLockCallsRecordNoEvents) {
  // The errorcheck scenario makes exactly 3 successful acquisitions of
  // its PTHREAD_MUTEX_ERRORCHECK mutex while EDEADLK relock, EBUSY
  // trylock and EPERM unlock all fail in between. A failed call must not
  // record: the buggy interposer logged an acquisition for the EDEADLK
  // relock (a phantom re-acquire of a held mutex) and a release for the
  // EPERM unlock, which breaks lock pairing.
  ASSERT_EQ(run_demo("errorcheck"), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  EXPECT_NO_THROW(trace.validate());

  std::map<cla::trace::ObjectId, int> acquires, acquireds, releases;
  for (cla::trace::ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    for (const cla::trace::Event& e : trace.thread_events(tid)) {
      if (e.type == cla::trace::EventType::MutexAcquire) ++acquires[e.object];
      if (e.type == cla::trace::EventType::MutexAcquired)
        ++acquireds[e.object];
      if (e.type == cla::trace::EventType::MutexReleased)
        ++releases[e.object];
    }
  }
  // Identify the app mutex by its signature: exactly 3 acquisitions (the
  // preloaded libc may take its own locks around startup).
  int matching = 0;
  for (const auto& [object, acquired] : acquireds) {
    if (acquired != 3) continue;
    ++matching;
    EXPECT_EQ(acquires[object], 3) << "phantom wait-start on " << object;
    EXPECT_EQ(releases[object], 3) << "phantom release on " << object;
  }
  EXPECT_GE(matching, 1) << "errorcheck mutex not found in trace";
  // Pairing must hold for every lock in the trace, not just the app's.
  for (const auto& [object, acquired] : acquireds) {
    EXPECT_EQ(acquired, releases[object])
        << "unbalanced acquire/release on " << object;
  }
}

TEST_F(InterposeTest, StreamsCompactV3WhenRequested) {
  // CLA_TRACE_FORMAT pins the streamed chunk encoding: v2 writes only raw
  // Events chunks, v3 only EventsV3 chunks. Both recordings of the demo
  // app must load and analyze to the same structure.
  std::map<std::string, int> app_locks;
  std::map<std::string, std::uint32_t> threads;
  for (const std::string format : {"v2", "v3"}) {
    SCOPED_TRACE(format);
    ASSERT_EQ(run_demo("", "CLA_TRACE_FORMAT=" + format), 0);
    const std::map<std::uint32_t, int> kinds = chunk_kinds(trace_path_);
    const int raw = count_of(kinds, cla::trace::ChunkKind::Events);
    const int compact = count_of(kinds, cla::trace::ChunkKind::EventsV3);
    if (format == "v2") {
      EXPECT_GT(raw, 0);
      EXPECT_EQ(compact, 0);
    } else {
      EXPECT_EQ(raw, 0);
      EXPECT_GT(compact, 0);
    }
    const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
    EXPECT_GE(trace.thread_count(), 5u);
    EXPECT_GT(trace.event_count(), 100u);
    EXPECT_NO_THROW(trace.validate());
    threads[format] = trace.thread_count();
    const auto result = cla::test_support::analyze(trace);
    EXPECT_GT(result.completion_time, 0u);
    EXPECT_GE(result.locks.size(), 2u);
    for (const auto& lock : result.locks) {
      if (lock.invocations == 80u) ++app_locks[format];
    }
  }
  EXPECT_EQ(app_locks["v2"], 2);
  EXPECT_EQ(app_locks["v3"], 2);
  EXPECT_EQ(threads["v2"], threads["v3"]);
}

TEST_F(InterposeTest, DefaultStreamIsCompactV3) {
  // No CLA_* variable at all: the interposer writes ./cla_trace.clat in
  // its working directory, as compact EventsV3 chunks.
  cla::test_support::TempDir dir;
  std::string unset;
  for (char** var = environ; *var != nullptr; ++var) {
    const std::string entry(*var);
    if (entry.rfind("CLA_", 0) == 0) {
      unset += " -u " + entry.substr(0, entry.find('='));
    }
  }
  const std::string command = "cd " + dir.path().string() + " && env" +
                              unset + " LD_PRELOAD=" CLA_INTERPOSE_LIB
                              " " CLA_DEMO_APP " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  const std::string path = dir.file("cla_trace.clat");
  const std::map<std::uint32_t, int> kinds = chunk_kinds(path);
  EXPECT_GT(count_of(kinds, cla::trace::ChunkKind::EventsV3), 0);
  EXPECT_EQ(count_of(kinds, cla::trace::ChunkKind::Events), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(path);
  EXPECT_GE(trace.thread_count(), 5u);
  EXPECT_NO_THROW(trace.validate());
}

TEST_F(InterposeTest, StackDepthCapturesSymbolizedCallsites) {
  // CLA_STACK_DEPTH=4 turns on acquisition call-stack capture; the demo
  // app is linked -rdynamic, so dladdr can name its functions and the
  // analysis attributes CP time to symbolized (lock, callsite) pairs.
  ASSERT_EQ(run_demo("", "CLA_STACK_DEPTH=4"), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  EXPECT_NO_THROW(trace.validate());
  ASSERT_FALSE(trace.call_stacks().empty());
  EXPECT_FALSE(trace.frame_symbols().empty());
  for (const auto& [id, pcs] : trace.call_stacks()) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(pcs.size(), cla::trace::kMaxCallStackDepth);
    EXPECT_FALSE(pcs.empty());
  }

  const auto result = cla::test_support::analyze(trace);
  ASSERT_FALSE(result.callsites.empty());
  // At least one callsite resolves into the demo app itself, and the
  // exported lock-calling function symbolizes by name.
  bool app_frame = false;
  bool named_frame = false;
  for (const auto& cs : result.callsites) {
    for (const std::string& frame : cs.frames) {
      if (frame.find("interpose_demo_app") != std::string::npos) {
        app_frame = true;
      }
      if (frame.find("demo_worker") != std::string::npos) named_frame = true;
    }
  }
  EXPECT_TRUE(app_frame);
  EXPECT_TRUE(named_frame);
  // Attribution never invents time: each lock's callsite CP total stays
  // within its lock's CP total.
  for (const auto& lock : result.locks) {
    std::uint64_t callsite_cp = 0;
    for (const auto& cs : result.callsites) {
      if (cs.lock_id == lock.id) callsite_cp += cs.cp_hold_time;
    }
    EXPECT_LE(callsite_cp, lock.cp_hold_time);
  }
}

TEST_F(InterposeTest, StackDepthSurvivesAppWithoutFramePointers) {
  // The app keeps 0xff00... keys in the frame-pointer register across its
  // lock calls; the capture must stop at that link instead of reading it.
  ASSERT_EQ(run_demo("hashing", "CLA_STACK_DEPTH=8", CLA_DEMO_APP_NOFP), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  EXPECT_NO_THROW(trace.validate());
  ASSERT_FALSE(trace.call_stacks().empty());
  const auto result = cla::test_support::analyze(trace);
  ASSERT_FALSE(result.callsites.empty());
  bool named_frame = false;
  for (const auto& cs : result.callsites) {
    for (const std::string& frame : cs.frames) {
      if (frame.find("hashing_worker") != std::string::npos) named_frame = true;
    }
  }
  EXPECT_TRUE(named_frame);
}

TEST_F(InterposeTest, StackCaptureIsOffByDefault) {
  ASSERT_EQ(run_demo(), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  EXPECT_TRUE(trace.call_stacks().empty());
  EXPECT_TRUE(trace.frame_symbols().empty());
  const auto result = cla::test_support::analyze(trace);
  EXPECT_TRUE(result.callsites.empty());

  ASSERT_EQ(run_demo("", "CLA_STACK_DEPTH=0"), 0);
  const cla::trace::Trace off = cla::trace::read_trace_file(trace_path_);
  EXPECT_TRUE(off.call_stacks().empty());
}

TEST_F(InterposeTest, JoinEdgesAllowPathToLeaveMainThread) {
  ASSERT_EQ(run_demo(), 0);
  const cla::trace::Trace trace = cla::trace::read_trace_file(trace_path_);
  const auto result = cla::test_support::analyze(trace);
  // The critical path must not be confined to the coordinator: at least
  // one jump goes through a join or a lock hand-off.
  EXPECT_FALSE(result.path.jumps.empty());
  std::uint64_t worker_cp_time = 0;
  for (cla::trace::ThreadId tid = 1; tid < trace.thread_count(); ++tid) {
    worker_cp_time += result.path.thread_time(tid);
  }
  EXPECT_GT(worker_cp_time, 0u);
}

}  // namespace
