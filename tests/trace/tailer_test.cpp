// Fault matrix for the live-trace tailer (always-on read side): chunk
// deltas from a still-open writer, torn tail chunks ("not yet", not an
// error), CRC corruption resync, in-place Meta/Warning re-reads,
// rotation by rename and by in-place truncation, unlink-while-tailing,
// and the CLA_FAULT_READ_* injection knobs (transient EIO retries, hard
// failures, short reads) — over both the v2 raw and v3 varint formats.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cla/trace/tailer.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/crc32.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/faultinject.hpp"

namespace {

using cla::trace::ChunkedTraceWriter;
using cla::trace::Event;
using cla::trace::EventType;
using cla::trace::ThreadId;
using cla::trace::TraceTailer;

constexpr std::uint64_t kLock = 0x1000;

std::vector<Event> worker_stream(ThreadId tid, std::size_t pairs,
                                 std::uint64_t ts0 = 0) {
  std::vector<Event> events;
  std::uint64_t ts = ts0 + 100 * (tid + 1);
  const auto add = [&](EventType type, std::uint64_t object,
                       std::uint64_t arg) {
    events.push_back(Event{ts++, object, arg, type, 0, tid});
  };
  add(EventType::ThreadStart, cla::trace::kNoObject, cla::trace::kNoArg);
  for (std::size_t i = 0; i < pairs; ++i) {
    add(EventType::MutexAcquire, kLock, cla::trace::kNoArg);
    add(EventType::MutexAcquired, kLock, 0);
    add(EventType::MutexReleased, kLock, cla::trace::kNoArg);
  }
  add(EventType::ThreadExit, cla::trace::kNoObject, cla::trace::kNoArg);
  return events;
}

/// Serializes a raw v2 Events chunk (header + payload) for hand-crafted
/// torn-file scenarios.
std::vector<unsigned char> raw_events_chunk(ThreadId tid,
                                            const std::vector<Event>& events) {
  std::string payload;
  const std::uint32_t count = static_cast<std::uint32_t>(events.size());
  payload.append(reinterpret_cast<const char*>(&tid), 4);
  payload.append(reinterpret_cast<const char*>(&count), 4);
  payload.append(reinterpret_cast<const char*>(events.data()),
                 events.size() * sizeof(Event));
  std::vector<unsigned char> chunk;
  chunk.insert(chunk.end(), {'C', 'L', 'C', 'H'});
  const std::uint32_t kind = 3;
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = cla::util::crc32(payload.data(), payload.size());
  const auto push_u32 = [&](std::uint32_t v) {
    unsigned char b[4];
    std::memcpy(b, &v, 4);
    chunk.insert(chunk.end(), b, b + 4);
  };
  push_u32(kind);
  push_u32(size);
  push_u32(crc);
  chunk.insert(chunk.end(), payload.begin(), payload.end());
  return chunk;
}

void append_bytes(const std::string& path, const unsigned char* data,
                  std::size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(data), std::streamsize(len));
  ASSERT_TRUE(out.good());
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekg(std::streamoff(offset));
  char c = 0;
  io.get(c);
  io.seekp(std::streamoff(offset));
  io.put(static_cast<char>(c ^ 0x5a));
  ASSERT_TRUE(io.good());
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

class TailerTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("cla_tailer_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++) + ".clat"))
                .string();
    std::remove(path_.c_str());
    clear_knobs();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    clear_knobs();
  }

  static void clear_knobs() {
    for (const char* knob :
         {"CLA_FAULT_READ_ERRNO", "CLA_FAULT_READ_EVERY",
          "CLA_FAULT_READ_COUNT", "CLA_FAULT_SHORT_READ",
          "CLA_FAULT_WRITE_ERRNO", "CLA_FAULT_WRITE_EVERY",
          "CLA_FAULT_WRITE_COUNT", "CLA_FAULT_SHORT_WRITE"}) {
      ::unsetenv(knob);
    }
    cla::util::fault::reinit_for_tests();
  }

  static void arm(const char* name, const char* value) {
    ::setenv(name, value, 1);
  }

  std::string path_;
  static int counter_;
};

int TailerTestBase::counter_ = 0;

/// Format-parameterized cases run over both v2 (raw) and v3 (varint).
class TraceTailerFormatTest : public TailerTestBase,
                              public ::testing::WithParamInterface<std::uint32_t> {
};

/// Everything else exercises state transitions that are format-agnostic.
using TraceTailerTest = TailerTestBase;

// --- incremental chunk delivery from a still-open writer ----------------

TEST_P(TraceTailerFormatTest, DeliversChunksAsTheyLand) {
  TraceTailer tailer(path_);
  TraceTailer::Delta delta;

  // No file yet: Idle, with growing suggested backoff.
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Idle);
  const std::uint32_t backoff1 = tailer.suggested_backoff_ms();
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Idle);
  EXPECT_GE(tailer.suggested_backoff_ms(), backoff1);

  ChunkedTraceWriter writer(path_, GetParam());
  ASSERT_TRUE(writer.ok());
  writer.write_object_name(kLock, "hot_lock");

  const std::vector<Event> batch1 = worker_stream(0, 10);
  ASSERT_EQ(writer.write_events(0, batch1.data(), batch1.size()),
            batch1.size());
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, batch1.size());
  EXPECT_EQ(tailer.suggested_backoff_ms(), 0u);
  ASSERT_NE(delta.chunk.object_names().find(kLock),
            delta.chunk.object_names().end());
  EXPECT_EQ(delta.chunk.object_names().at(kLock), "hot_lock");

  // Nothing new: Idle again, position unchanged.
  const std::uint64_t consumed = tailer.consumed_bytes();
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Idle);
  EXPECT_EQ(tailer.consumed_bytes(), consumed);

  const std::vector<Event> batch2 = worker_stream(1, 20);
  ASSERT_EQ(writer.write_events(1, batch2.data(), batch2.size()),
            batch2.size());
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, batch2.size());

  // Clean close rewrites the reserved Meta chunk in place; the tailer
  // re-reads it and reports the writer finished.
  writer.write_meta(7, /*clean_close=*/true);
  writer.close();
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_TRUE(delta.clean_close);
  EXPECT_EQ(delta.dropped_delta, 7u);
  EXPECT_TRUE(tailer.writer_finished());
  EXPECT_EQ(tailer.dropped_events(), 7u);
  EXPECT_EQ(tailer.consumed_bytes(), file_size(path_));
  EXPECT_EQ(tailer.total_skipped_bytes(), 0u);
}

TEST_P(TraceTailerFormatTest, CorruptionWithDataBehindItResyncs) {
  std::vector<Event> batch1 = worker_stream(0, 10);
  std::vector<Event> batch2 = worker_stream(0, 10, 10'000);
  std::uint64_t chunk1_start = 0;
  std::uint64_t chunk1_end = 0;
  {
    ChunkedTraceWriter writer(path_, GetParam());
    ASSERT_TRUE(writer.ok());
    chunk1_start = file_size(path_);
    ASSERT_EQ(writer.write_events(0, batch1.data(), batch1.size()),
              batch1.size());
    chunk1_end = file_size(path_);
    ASSERT_EQ(writer.write_events(0, batch2.data(), batch2.size()),
              batch2.size());
    writer.write_meta(0, true);
    writer.close();
  }
  // Corrupt one payload byte of the FIRST events chunk: its CRC fails
  // with data behind it, so the tailer must skip to the next chunk magic
  // and still deliver the second batch.
  flip_byte(path_, chunk1_start + 16 + 9);

  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, batch2.size());
  EXPECT_EQ(delta.skipped_bytes, chunk1_end - chunk1_start);
  EXPECT_TRUE(delta.clean_close);
  EXPECT_EQ(tailer.total_skipped_bytes(), chunk1_end - chunk1_start);
  EXPECT_EQ(tailer.consumed_bytes(), file_size(path_));
}

TEST_P(TraceTailerFormatTest, DeltaCarriesCallStacksAndFrameSymbols) {
  ChunkedTraceWriter writer(path_, GetParam());
  ASSERT_TRUE(writer.ok());
  const std::uint64_t pcs[2] = {0xabc, 0xdef};
  writer.write_call_stack(1, pcs, 2);
  const std::vector<Event> batch = worker_stream(0, 4);
  ASSERT_EQ(writer.write_events(0, batch.data(), batch.size()), batch.size());

  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, batch.size());
  ASSERT_EQ(delta.chunk.call_stacks().size(), 1u);
  EXPECT_EQ(delta.chunk.call_stacks().at(1),
            (std::vector<std::uint64_t>{0xabc, 0xdef}));

  // Frame symbols land at clean close, after the last events, so they
  // make a delta of their own.
  writer.write_frame_symbol(0xabc, "worker+0x10 (app)");
  writer.write_meta(0, /*clean_close=*/true);
  writer.close();
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, 0u);
  EXPECT_TRUE(delta.chunk.call_stacks().empty());
  ASSERT_EQ(delta.chunk.frame_symbols().size(), 1u);
  EXPECT_EQ(delta.chunk.frame_symbols().at(0xabc), "worker+0x10 (app)");
}

INSTANTIATE_TEST_SUITE_P(Formats, TraceTailerFormatTest,
                         ::testing::Values(cla::trace::kTraceVersion,
                                           cla::trace::kTraceVersionV3));

// --- torn tail chunks ----------------------------------------------------

TEST_F(TraceTailerTest, TornTailChunkIsNotYetThenCompletes) {
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    ASSERT_TRUE(writer.ok());
    const std::vector<Event> base = worker_stream(0, 5);
    ASSERT_EQ(writer.write_events(0, base.data(), base.size()), base.size());
    writer.close();
  }
  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);

  // Append half of a valid chunk: exactly what a writer killed mid-write
  // (SIGKILL between writev continuations) leaves behind.
  const std::vector<Event> tail_events = worker_stream(1, 8);
  const std::vector<unsigned char> chunk = raw_events_chunk(1, tail_events);
  const std::size_t half = chunk.size() / 2;
  append_bytes(path_, chunk.data(), half);

  // A torn final chunk is "not yet", never corruption.
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Idle);
  EXPECT_EQ(tailer.total_skipped_bytes(), 0u);
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Idle);

  // The writer resumes: the rest of the chunk lands and is delivered.
  append_bytes(path_, chunk.data() + half, chunk.size() - half);
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, tail_events.size());
  EXPECT_EQ(tailer.total_skipped_bytes(), 0u);
}

TEST_F(TraceTailerTest, CrcBadChunkEndingAtEofWaitsForever) {
  std::uint64_t chunk_start = 0;
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    ASSERT_TRUE(writer.ok());
    const std::vector<Event> base = worker_stream(0, 5);
    ASSERT_EQ(writer.write_events(0, base.data(), base.size()), base.size());
    chunk_start = file_size(path_);
    const std::vector<Event> last = worker_stream(1, 5);
    ASSERT_EQ(writer.write_events(1, last.data(), last.size()), last.size());
    writer.close();
  }
  // Corrupt the LAST chunk: size-complete but CRC-bad at exact EOF could
  // be an in-flight overwrite, so the tailer waits instead of resyncing.
  flip_byte(path_, chunk_start + 16 + 9);

  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Idle);
  EXPECT_EQ(tailer.total_skipped_bytes(), 0u);
  EXPECT_EQ(tailer.consumed_bytes(), chunk_start);
}

// --- rotation and removal ------------------------------------------------

TEST_F(TraceTailerTest, RenameRotationRestartsAtTheNewFile) {
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    const std::vector<Event> a = worker_stream(0, 10);
    ASSERT_EQ(writer.write_events(0, a.data(), a.size()), a.size());
    writer.close();
  }
  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  ASSERT_EQ(tailer.generation(), 0u);

  // Replace the file wholesale (what ring compaction's rename() does).
  const std::string tmp = path_ + ".new";
  const std::vector<Event> b = worker_stream(0, 3);
  {
    ChunkedTraceWriter writer(tmp, cla::trace::kTraceVersionV3);
    ASSERT_EQ(writer.write_events(0, b.data(), b.size()), b.size());
    writer.write_meta(0, true);
    writer.close();
  }
  ASSERT_EQ(std::rename(tmp.c_str(), path_.c_str()), 0);

  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Rotated);
  EXPECT_EQ(tailer.generation(), 1u);
  EXPECT_EQ(tailer.consumed_bytes(), 0u);

  // Next poll reads the replacement from the top (v3 this time).
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, b.size());
  EXPECT_TRUE(tailer.writer_finished());
}

TEST_F(TraceTailerTest, DoubleRotationBetweenPollsIsOneRotationNoLostCounters) {
  // Corrupt bytes with valid data behind them, so the tailer accumulates
  // a non-zero cumulative skip counter before any rotation.
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    const std::vector<Event> a = worker_stream(0, 10);
    ASSERT_EQ(writer.write_events(0, a.data(), a.size()), a.size());
    writer.close();
  }
  const std::vector<unsigned char> junk(24, 0xee);
  append_bytes(path_, junk.data(), junk.size());
  {
    const std::vector<Event> more = worker_stream(1, 4);
    const auto chunk = raw_events_chunk(1, more);
    append_bytes(path_, chunk.data(), chunk.size());
  }
  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  ASSERT_EQ(tailer.generation(), 0u);
  const std::uint64_t skipped_before = tailer.total_skipped_bytes();
  ASSERT_EQ(skipped_before, junk.size());

  // TWO whole-file replacements land between consecutive polls (writer
  // restarted twice, or restart + ring compaction). The tailer can only
  // observe the inode it finds at the next poll: exactly one Rotated,
  // generation bumped at least once, and the middle file's contents are
  // simply never seen.
  const std::vector<Event> middle = worker_stream(0, 7);
  {
    ChunkedTraceWriter writer(path_ + ".r1", cla::trace::kTraceVersion);
    ASSERT_EQ(writer.write_events(0, middle.data(), middle.size()),
              middle.size());
    writer.close();
  }
  ASSERT_EQ(std::rename((path_ + ".r1").c_str(), path_.c_str()), 0);
  const std::vector<Event> final_stream = worker_stream(0, 3);
  {
    ChunkedTraceWriter writer(path_ + ".r2", cla::trace::kTraceVersionV3);
    ASSERT_EQ(writer.write_events(0, final_stream.data(),
                                  final_stream.size()),
              final_stream.size());
    writer.write_meta(0, true);
    writer.close();
  }
  ASSERT_EQ(std::rename((path_ + ".r2").c_str(), path_.c_str()), 0);

  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Rotated);
  EXPECT_GE(tailer.generation(), 1u);
  const std::uint64_t generation = tailer.generation();
  EXPECT_EQ(tailer.consumed_bytes(), 0u);
  // Cumulative loss counters survive the rotation reset.
  EXPECT_EQ(tailer.total_skipped_bytes(), skipped_before);

  // The next poll delivers the *last* replacement from its top — no
  // second Rotated for the missed middle inode.
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(tailer.generation(), generation);
  EXPECT_EQ(delta.events, final_stream.size());
  EXPECT_TRUE(tailer.writer_finished());
  EXPECT_EQ(tailer.total_skipped_bytes(), skipped_before);
}

TEST_F(TraceTailerTest, InPlaceTruncationRotates) {
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    const std::vector<Event> a = worker_stream(0, 50);
    ASSERT_EQ(writer.write_events(0, a.data(), a.size()), a.size());
    writer.close();
  }
  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);

  // A restarted writer O_TRUNCs the same path — same inode, smaller
  // size. Inode comparison alone would miss it.
  ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Rotated);
  EXPECT_EQ(tailer.generation(), 1u);

  const std::vector<Event> b = worker_stream(0, 2);
  ASSERT_EQ(writer.write_events(0, b.data(), b.size()), b.size());
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, b.size());
  writer.close();
}

TEST_F(TraceTailerTest, UnlinkedFileDrainsThenRemoved) {
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    const std::vector<Event> a = worker_stream(0, 10);
    ASSERT_EQ(writer.write_events(0, a.data(), a.size()), a.size());
    writer.close();
  }
  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  ASSERT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);

  ASSERT_EQ(std::remove(path_.c_str()), 0);
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Removed);
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Removed);
}

// --- read-side fault injection -------------------------------------------

TEST_F(TraceTailerTest, TransientReadErrorsAreRetried) {
  const std::vector<Event> a = worker_stream(0, 40);
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    ASSERT_EQ(writer.write_events(0, a.data(), a.size()), a.size());
    writer.write_meta(0, true);
    writer.close();
  }
  arm("CLA_FAULT_READ_ERRNO", "EIO");
  arm("CLA_FAULT_READ_EVERY", "3");
  arm("CLA_FAULT_READ_COUNT", "4");  // bounded: retries can absorb them
  cla::util::fault::reinit_for_tests();

  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, a.size());
  EXPECT_TRUE(delta.clean_close);
  EXPECT_GT(tailer.io_retries(), 0u);
}

TEST_F(TraceTailerTest, PersistentReadErrorIsIoErrorThenRecovers) {
  const std::vector<Event> a = worker_stream(0, 40);
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    ASSERT_EQ(writer.write_events(0, a.data(), a.size()), a.size());
    writer.write_meta(0, true);
    writer.close();
  }
  arm("CLA_FAULT_READ_ERRNO", "EIO");
  arm("CLA_FAULT_READ_EVERY", "1");  // every read fails, past any retry
  cla::util::fault::reinit_for_tests();

  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::IoError);
  EXPECT_EQ(tailer.consumed_bytes(), 0u);  // position unchanged

  clear_knobs();
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, a.size());
}

TEST_F(TraceTailerTest, ShortReadsAreContinuedNotTruncated) {
  const std::vector<Event> a = worker_stream(0, 60);
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersionV3);
    ASSERT_EQ(writer.write_events(0, a.data(), a.size()), a.size());
    writer.write_meta(0, true);
    writer.close();
  }
  arm("CLA_FAULT_READ_ERRNO", "EIO");
  arm("CLA_FAULT_READ_EVERY", "1000000");  // enabled, but never fails
  arm("CLA_FAULT_SHORT_READ", "5");        // every pread lands <= 5 bytes
  cla::util::fault::reinit_for_tests();

  TraceTailer tailer(path_);
  TraceTailer::Delta delta;
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  EXPECT_EQ(delta.events, a.size());
  EXPECT_TRUE(delta.clean_close);
  EXPECT_EQ(tailer.total_skipped_bytes(), 0u);
}

// --- deadline-bounded polls ----------------------------------------------

TEST_F(TraceTailerTest, PollDeadlineReturnsPartialProgress) {
  {
    ChunkedTraceWriter writer(path_, cla::trace::kTraceVersion);
    for (int batch = 0; batch < 50; ++batch) {
      const std::vector<Event> a =
          worker_stream(0, 20, std::uint64_t(batch) * 100'000);
      ASSERT_EQ(writer.write_events(0, a.data(), a.size()), a.size());
    }
    writer.write_meta(0, true);
    writer.close();
  }
  TraceTailer::Options options;
  options.poll_deadline_ms = 0;  // unbounded control: everything in one poll
  TraceTailer control(path_, options);
  TraceTailer::Delta delta;
  ASSERT_EQ(control.poll(delta), TraceTailer::PollStatus::Progress);
  const std::uint64_t total = delta.events;

  // A bounded tailer may need several polls but must deliver the same
  // stream in order with nothing lost.
  options.poll_deadline_ms = 1;
  TraceTailer bounded(path_, options);
  std::uint64_t sum = 0;
  for (int i = 0; i < 1000 && sum < total; ++i) {
    const auto status = bounded.poll(delta);
    ASSERT_NE(status, TraceTailer::PollStatus::IoError);
    sum += delta.events;
  }
  EXPECT_EQ(sum, total);
  EXPECT_EQ(bounded.total_skipped_bytes(), 0u);
}

}  // namespace
