// Streaming .clat reader: chunked ingestion must reproduce read_trace
// exactly for both on-disk versions, and malformed inputs (truncation,
// corruption, CRC damage) must fail with clean errors at every stage of
// the stream.
#include <gtest/gtest.h>

#include <sstream>

#include "cla/trace/builder.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {
namespace {

Trace sample_trace() {
  TraceBuilder b;
  b.name_object(42, "L1");
  b.name_thread(0, "main");
  b.thread(0).start(0).create(0, 1).join(1, 1, 21).exit(22);
  b.thread(1)
      .start(0, 0)
      .lock(42, 1, 1, 5)
      .lock(42, 6, 9, 15)
      .barrier(44, 16, 18)
      .exit(20);
  return b.finish_unchecked();
}

std::string serialized(const Trace& trace,
                       std::uint32_t version = kTraceVersion) {
  std::stringstream buffer;
  write_trace(trace, buffer, version);
  return buffer.str();
}

void drain(TraceStreamReader& reader, Trace* rebuilt = nullptr,
           std::size_t chunk = 64) {
  Event buf[64];
  if (chunk > 64) chunk = 64;
  while (auto block = reader.next_thread()) {
    for (std::size_t n; (n = reader.read_events(buf, chunk)) > 0;) {
      if (rebuilt != nullptr)
        rebuilt->append_thread_events(block->tid, {buf, n});
    }
  }
}

TEST(TraceStreamReader, V1HeaderExposesNamesAndThreadCount) {
  std::stringstream in(serialized(sample_trace(), kTraceVersionLegacy));
  TraceStreamReader reader(in);
  EXPECT_EQ(reader.version(), kTraceVersionLegacy);
  EXPECT_EQ(reader.thread_count(), 2u);
  ASSERT_EQ(reader.tables().object_names.count(42), 1u);
  EXPECT_EQ(reader.tables().object_names.at(42), "L1");
  EXPECT_EQ(reader.tables().thread_names.at(0), "main");
}

TEST(TraceStreamReader, V2NamesAvailableAfterDrain) {
  // v2 name chunks may trail the event chunks (the incremental writer
  // streams names as they are registered), so they are complete only once
  // the stream is drained.
  std::stringstream in(serialized(sample_trace()));
  TraceStreamReader reader(in);
  EXPECT_EQ(reader.version(), kTraceVersion);
  drain(reader);
  EXPECT_EQ(reader.thread_count(), 2u);
  ASSERT_EQ(reader.tables().object_names.count(42), 1u);
  EXPECT_EQ(reader.tables().object_names.at(42), "L1");
  EXPECT_EQ(reader.tables().thread_names.at(0), "main");
}

TEST(TraceStreamReader, TinyChunksReproduceTheWholeTrace) {
  for (std::uint32_t version : {kTraceVersionLegacy, kTraceVersion}) {
    const Trace original = sample_trace();
    std::stringstream in(serialized(original, version));
    TraceStreamReader reader(in);
    Trace rebuilt;
    drain(reader, &rebuilt, 3);  // deliberately smaller than any stream
    ASSERT_EQ(rebuilt.thread_count(), original.thread_count());
    for (ThreadId tid = 0; tid < original.thread_count(); ++tid) {
      const auto ea = original.thread_events(tid);
      const auto eb = rebuilt.thread_events(tid);
      ASSERT_EQ(ea.size(), eb.size()) << "version=" << version;
      for (std::size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea[i], eb[i]);
    }
  }
}

TEST(TraceStreamReader, NextThreadSkipsUnreadEvents) {
  for (std::uint32_t version : {kTraceVersionLegacy, kTraceVersion}) {
    std::stringstream in(serialized(sample_trace(), version));
    TraceStreamReader reader(in);
    auto first = reader.next_thread();
    ASSERT_TRUE(first.has_value());
    // Read nothing from the first block; the reader must still find the
    // second block's header.
    auto second = reader.next_thread();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->tid, 1u);
    EXPECT_FALSE(reader.next_thread().has_value());
  }
}

TEST(TraceStreamReader, RejectsBadMagic) {
  std::stringstream in("XXXX....definitely not a trace....");
  EXPECT_THROW(TraceStreamReader reader(in), util::Error);
}

TEST(TraceStreamReader, RejectsUnsupportedVersion) {
  std::string bytes = serialized(sample_trace());
  bytes[4] = 99;  // version follows the 4-byte magic
  std::stringstream in(bytes);
  EXPECT_THROW(TraceStreamReader reader(in), util::Error);
}

TEST(TraceStreamReader, RejectsTruncationAtEveryRegion) {
  for (std::uint32_t version : {kTraceVersionLegacy, kTraceVersion}) {
    const std::string full = serialized(sample_trace(), version);
    // Preamble, name/chunk headers, mid-payload, torn tail.
    for (std::size_t cut :
         {std::size_t{2}, std::size_t{6}, std::size_t{14}, std::size_t{20},
          full.size() / 2, full.size() - 5}) {
      std::stringstream in(full.substr(0, cut));
      EXPECT_THROW(
          {
            TraceStreamReader reader(in);
            drain(reader);
          },
          util::Error)
          << "version=" << version << " cut=" << cut;
    }
  }
}

TEST(TraceStreamReader, RejectsCorruptEventCount) {
  // Patch the v1 thread count to an absurd value: the chunked read must
  // fail with a truncation error, not attempt a giant allocation.
  std::string bytes = serialized(sample_trace(), kTraceVersionLegacy);
  bytes[8] = 3;  // thread_count (little-endian u32 after magic+version)
  std::stringstream in(bytes);
  EXPECT_THROW(
      {
        TraceStreamReader reader(in);
        drain(reader);
      },
      util::Error);
}

TEST(TraceStreamReader, RejectsCrcMismatch) {
  // Flip one payload byte inside the first v2 chunk: the CRC check must
  // reject the stream rather than hand out damaged events.
  std::string bytes = serialized(sample_trace());
  ASSERT_GT(bytes.size(), 30u);
  bytes[26] ^= 0x40;  // inside the first chunk's payload
  std::stringstream in(bytes);
  EXPECT_THROW(
      {
        TraceStreamReader reader(in);
        drain(reader);
      },
      util::Error);
}

TEST(TraceStreamReader, ReadTraceMatchesStreamedIngestion) {
  for (std::uint32_t version : {kTraceVersionLegacy, kTraceVersion}) {
    std::stringstream a(serialized(sample_trace(), version));
    const Trace via_read_trace = read_trace(a);
    EXPECT_EQ(via_read_trace.event_count(), sample_trace().event_count());
  }
}

}  // namespace
}  // namespace cla::trace
