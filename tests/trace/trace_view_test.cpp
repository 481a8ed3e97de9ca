// TraceView / MappedTrace: the zero-copy read side must be
// indistinguishable from the copying reader — same events, same
// strictness, same failure modes — across v1, v2, v3 and mixed-chunk
// files.
#include "cla/trace/trace_view.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cla/trace/builder.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/crc32.hpp"
#include "support/temp_dir.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {
namespace {

Trace sample_trace() {
  TraceBuilder b;
  b.name_object(42, "L1");
  b.name_object(43, "tq[0].qlock");
  b.name_thread(0, "main");
  b.thread(0).start(0).create(0, 1).join(1, 1, 21).exit(22);
  b.thread(1)
      .start(0, 0)
      .lock(42, 1, 1, 5)
      .lock(43, 6, 9, 15)
      .barrier(44, 16, 18)
      .exit(20);
  return b.finish_unchecked();
}

void expect_view_equals_trace(const TraceView& view, const Trace& trace) {
  ASSERT_EQ(view.thread_count(), trace.thread_count());
  ASSERT_EQ(view.event_count(), trace.event_count());
  EXPECT_EQ(view.start_ts(), trace.start_ts());
  EXPECT_EQ(view.end_ts(), trace.end_ts());
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto expected = trace.thread_events(tid);
    const EventsView& events = view.thread_events(tid);
    ASSERT_EQ(events.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(events[i], expected[i]);
      EXPECT_EQ(events.ts_at(i), expected[i].ts);
      EXPECT_EQ(events.object_at(i), expected[i].object);
      EXPECT_EQ(events.arg_at(i), expected[i].arg);
      EXPECT_EQ(events.type_at(i), expected[i].type);
    }
  }
  EXPECT_EQ(view.object_names(), trace.object_names());
  EXPECT_EQ(view.thread_names(), trace.thread_names());
  EXPECT_EQ(view.dropped_events(), trace.dropped_events());
}

TEST(TraceView, BorrowedViewMatchesTrace) {
  const Trace trace = sample_trace();
  const TraceView view(trace);
  expect_view_equals_trace(view, trace);
}

TEST(TraceView, IterationYieldsSameEvents) {
  const Trace trace = sample_trace();
  const TraceView view(trace);
  const EventsView& events = view.thread_events(1);
  std::size_t i = 0;
  for (const Event& e : events) {
    EXPECT_EQ(e, trace.thread_events(1)[i]);
    ++i;
  }
  EXPECT_EQ(i, events.size());
  EXPECT_EQ(events.front(), trace.thread_events(1).front());
  EXPECT_EQ(events.back(), trace.thread_events(1).back());
}

TEST(TraceView, MaterializeRoundTrips) {
  const Trace trace = sample_trace();
  const TraceView view(trace);
  const Trace copy = view.materialize();
  expect_view_equals_trace(TraceView(copy), trace);
}

TEST(TraceView, MappedLoadMatchesCopyingReaderAcrossVersions) {
  const test_support::TempDir dir;
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  const Trace original = sample_trace();
  for (std::uint32_t version : {1u, 2u, 3u}) {
    const std::string path = dir.file("cla_view_versions.clat");
    write_trace_file(original, path, version);
    MappedTrace mapped(path);
    EXPECT_EQ(mapped.version(), version);
    EXPECT_EQ(mapped.file_bytes(), std::filesystem::file_size(path));
    expect_view_equals_trace(mapped.view(), original);
  }
}

TEST(TraceView, MappedLoadCompactsMultiChunkThreads) {
  const test_support::TempDir dir;
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  const Trace original = sample_trace();
  for (std::uint32_t version : {2u, 3u}) {
    const std::string path = dir.file("cla_view_multichunk.clat");
    {
      ChunkedTraceWriter writer(path, version);
      for (ThreadId tid = 0; tid < original.thread_count(); ++tid) {
        const auto events = original.thread_events(tid);
        for (std::size_t at = 0; at < events.size(); at += 2) {
          const std::size_t n = std::min<std::size_t>(2, events.size() - at);
          writer.write_events(tid, events.data() + at, n);
        }
      }
      for (const auto& [object, name] : original.object_names())
        writer.write_object_name(object, name);
      for (const auto& [tid, name] : original.thread_names())
        writer.write_thread_name(tid, name);
      writer.write_meta(0, /*clean_close=*/true);
      writer.close();
    }
    MappedTrace mapped(path);
    expect_view_equals_trace(mapped.view(), original);
  }
}

TEST(TraceView, MappedLoadHandlesMixedChunkKinds) {
  const test_support::TempDir dir;
  // A v3 recording may interleave raw v2 Events chunks (the writer's
  // async-signal fallback); readers dispatch on chunk kind. Craft such a
  // file by hand: thread 0's events split across one raw and one v3
  // chunk.
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  const Trace original = sample_trace();
  const std::string path = dir.file("cla_view_mixed.clat");
  std::ofstream out(path, std::ios::binary);
  out.write(kTraceMagic, 4);
  const std::uint32_t version = kTraceVersionV3;
  out.write(reinterpret_cast<const char*>(&version), 4);
  auto put_chunk = [&out](ChunkKind kind, const std::string& payload) {
    out.write(kChunkMagic, 4);
    const std::uint32_t k = static_cast<std::uint32_t>(kind);
    const std::uint32_t bytes = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = util::crc32(payload.data(), payload.size());
    out.write(reinterpret_cast<const char*>(&k), 4);
    out.write(reinterpret_cast<const char*>(&bytes), 4);
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  };
  for (ThreadId tid = 0; tid < original.thread_count(); ++tid) {
    const auto events = original.thread_events(tid);
    const std::size_t half = events.size() / 2;
    {  // raw v2 chunk for the first half
      std::string payload;
      const std::uint32_t count = static_cast<std::uint32_t>(half);
      payload.append(reinterpret_cast<const char*>(&tid), 4);
      payload.append(reinterpret_cast<const char*>(&count), 4);
      payload.append(reinterpret_cast<const char*>(events.data()),
                     half * sizeof(Event));
      put_chunk(ChunkKind::Events, payload);
    }
    {  // compact v3 chunk for the rest
      std::string payload;
      encode_events_v3(tid, events.data() + half, events.size() - half,
                       payload);
      put_chunk(ChunkKind::EventsV3, payload);
    }
  }
  {  // clean-close Meta chunk (dropped=0, flags=clean)
    std::string payload;
    const std::uint64_t dropped = 0;
    const std::uint32_t flags = kMetaFlagCleanClose;
    payload.append(reinterpret_cast<const char*>(&dropped), 8);
    payload.append(reinterpret_cast<const char*>(&flags), 4);
    put_chunk(ChunkKind::Meta, payload);
  }
  out.close();

  MappedTrace mapped(path);
  ASSERT_EQ(mapped.view().thread_count(), original.thread_count());
  for (ThreadId tid = 0; tid < original.thread_count(); ++tid) {
    const auto expected = original.thread_events(tid);
    const EventsView& events = mapped.view().thread_events(tid);
    ASSERT_EQ(events.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(events[i], expected[i]);
  }
  // The copying stream reader must agree on the same mixed file.
  const Trace streamed = read_trace_file(path);
  expect_view_equals_trace(mapped.view(), streamed);
}

TEST(TraceView, MappedLoadIsStrict) {
  const test_support::TempDir dir;
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  const std::string path = dir.file("cla_view_strict.clat");
  const Trace original = sample_trace();

  {  // bad magic
    std::ofstream out(path, std::ios::binary);
    out << "NOPE" << std::string(16, '\0');
  }
  EXPECT_THROW(MappedTrace{path}, util::Error);

  {  // truncation inside a chunk
    std::stringstream buffer;
    write_trace(original, buffer, kTraceVersionV3);
    const std::string bytes = buffer.str();
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(MappedTrace{path}, util::Error);

  {  // flipped payload byte -> CRC mismatch
    std::stringstream buffer;
    write_trace(original, buffer, kTraceVersion);
    std::string bytes = buffer.str();
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(MappedTrace{path}, util::Error);

  {  // missing clean-close marker (crashed recording)
    ChunkedTraceWriter writer(path, kTraceVersion);
    const auto events = original.thread_events(0);
    writer.write_events(0, events.data(), events.size());
    writer.close();  // no Meta chunk
  }
  EXPECT_THROW(MappedTrace{path}, util::Error);

  EXPECT_THROW(MappedTrace{"/nonexistent/dir/trace.clat"}, util::Error);
}

TEST(TraceView, MappedTruncationFuzzNeverCrashes) {
  const test_support::TempDir dir;
  // Every prefix of a valid v3 file must either load (only if it happens
  // to end on a clean boundary — impossible without the Meta tail) or
  // throw util::Error; never crash or over-read.
  if (!mmap_supported()) GTEST_SKIP() << "no mmap on this platform";
  std::stringstream buffer;
  write_trace(sample_trace(), buffer, kTraceVersionV3);
  const std::string bytes = buffer.str();
  const std::string path = dir.file("cla_view_fuzz.clat");
  for (std::size_t len = 0; len < bytes.size(); len += 3) {
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    EXPECT_THROW(MappedTrace{path}, util::Error) << "prefix " << len;
  }
}

TEST(ChunkCursor, NextClaimsBoundedRangesUntilDone) {
  const Trace t = sample_trace();
  const TraceView view(t);
  ChunkCursor cur = view.thread_cursor(1);
  const auto n = static_cast<std::uint32_t>(view.thread_events(1).size());
  ASSERT_GT(n, 2u);
  std::uint32_t seen = 0;
  while (!cur.done()) {
    const ChunkCursor::Range r = cur.next(2);
    ASSERT_FALSE(r.empty());
    ASSERT_LE(r.size(), 2u);
    EXPECT_EQ(r.begin, seen);
    seen = r.end;
  }
  EXPECT_EQ(seen, n);
  EXPECT_EQ(cur.remaining(), 0u);
  EXPECT_TRUE(cur.next(2).empty());  // sticky at end of stream
}

TEST(ChunkCursor, SeekTsFindsTheBoundaryAndNeverRewinds) {
  const Trace t = sample_trace();
  const TraceView view(t);
  // Thread 1 ts column: 0, 1,1,5 (lock 42), 6,9,15 (lock 43), 16,18, 20.
  ChunkCursor cur = view.thread_cursor(1);
  EXPECT_EQ(cur.seek_ts(6), 4u);
  EXPECT_EQ(view.thread_events(1).ts_at(cur.position()), 6u);
  EXPECT_EQ(cur.seek_ts(0), 4u);  // earlier ts must not rewind
  EXPECT_EQ(cur.seek_ts(1000), view.thread_events(1).size());
  EXPECT_TRUE(cur.done());
}

TEST(ChunkCursor, StartClampsAndReattachesAfterGrowth) {
  Trace t = sample_trace();
  {
    const TraceView view(t);
    EXPECT_TRUE(view.thread_cursor(0, 9999).done());
  }
  // Simulate incremental append: remember the position, grow the trace,
  // re-attach a cursor to the refreshed view at the saved position.
  const TraceView before(t);
  ChunkCursor cur = before.thread_cursor(0);
  while (!cur.done()) cur.next(64);
  const std::uint32_t pos = cur.position();
  const Event extra{30, kNoObject, 0, EventType::ThreadExit, 0, 0};
  t.append_thread_events(0, std::span<const Event>(&extra, 1));
  const TraceView after(t);
  ChunkCursor resumed = after.thread_cursor(0, pos);
  EXPECT_FALSE(resumed.done());
  EXPECT_EQ(resumed.remaining(), 1u);
  EXPECT_EQ(after.thread_events(0).ts_at(resumed.position()), 30u);
}

}  // namespace
}  // namespace cla::trace
