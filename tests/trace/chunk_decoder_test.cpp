// The shared `.clat` chunk decoder (trace_io.hpp): its limits, and the
// contract that all four chunk readers — TraceStreamReader, MappedTrace,
// salvage and TraceTailer — decode the same side tables, apply nothing
// from a malformed chunk, and skip unknown chunk kinds.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cla/trace/builder.hpp"
#include "cla/trace/salvage.hpp"
#include "cla/trace/tailer.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/trace/trace_view.hpp"
#include "cla/util/crc32.hpp"
#include "cla/util/error.hpp"
#include "support/temp_dir.hpp"

namespace cla::trace {
namespace {

template <typename T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

void put_name(std::string& out, std::uint64_t key, const std::string& name) {
  put(out, key);
  put(out, static_cast<std::uint32_t>(name.size()));
  out += name;
}

/// A complete chunk (header + payload) of `kind`, with a valid CRC.
std::string chunk(std::uint32_t kind, const std::string& payload) {
  std::string out(kChunkMagic, 4);
  put(out, kind);
  put(out, static_cast<std::uint32_t>(payload.size()));
  put(out, util::crc32(payload.data(), payload.size()));
  return out + payload;
}

std::string chunk(ChunkKind kind, const std::string& payload) {
  return chunk(static_cast<std::uint32_t>(kind), payload);
}

/// A v2 file: preamble, `middle` chunks, one thread's events, clean Meta.
std::string v2_file(const std::string& middle) {
  TraceBuilder b;
  b.thread(0).start(0).lock_uncontended(1, 10, 20).exit(30);
  const Trace t = b.finish();
  std::string events;
  put(events, ThreadId{0});
  put(events, static_cast<std::uint32_t>(t.event_count()));
  events.append(reinterpret_cast<const char*>(t.thread_events(0).data()),
                t.event_count() * sizeof(Event));
  std::string meta;
  put(meta, std::uint64_t{0});
  put(meta, kMetaFlagCleanClose);
  std::string out(kTraceMagic, 4);
  put(out, kTraceVersion);
  return out + middle + chunk(ChunkKind::Events, events) +
         chunk(ChunkKind::Meta, meta);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// The tables a fresh tailer collects from `path` in one poll.
TraceTables tailed_tables(const std::string& path) {
  TraceTailer tailer(path);
  TraceTailer::Delta delta;
  EXPECT_EQ(tailer.poll(delta), TraceTailer::PollStatus::Progress);
  TraceTables tables = delta.chunk.tables();
  tables.dropped_events = tailer.dropped_events();
  tables.runtime_warnings = delta.runtime_warnings;
  return tables;
}

DecodedChunk decode(ChunkKind kind, const std::string& payload,
                    TraceTables& tables) {
  const std::string bytes = chunk(kind, payload);
  ChunkHeader header;
  EXPECT_TRUE(parse_chunk_header(bytes.data(), header));
  return decode_chunk(header, bytes.data() + kChunkHeaderBytes, tables);
}

TEST(ChunkDecoder, HeaderRejectsBadMagicAndOversizedPayload) {
  ChunkHeader header;
  std::string bytes = chunk(ChunkKind::Meta, std::string(12, '\0'));
  EXPECT_TRUE(parse_chunk_header(bytes.data(), header));
  EXPECT_EQ(header.kind, static_cast<std::uint32_t>(ChunkKind::Meta));
  EXPECT_EQ(header.payload_bytes, 12u);
  const std::uint32_t huge = kMaxChunkPayload + 1;
  std::memcpy(bytes.data() + 8, &huge, 4);
  EXPECT_FALSE(parse_chunk_header(bytes.data(), header));
  bytes[0] = 'X';
  EXPECT_FALSE(parse_chunk_header(bytes.data(), header));
}

TEST(ChunkDecoder, KeepsTheFormatLimits) {
  TraceTables tables;
  std::string names;
  put(names, std::uint32_t{1});
  put_name(names, 5, std::string((1u << 20) + 1, 'x'));  // name > 1 MiB
  EXPECT_EQ(decode(ChunkKind::ObjectNames, names, tables).status,
            ChunkStatus::Malformed);

  std::string stacks;
  put(stacks, std::uint32_t{1});
  put(stacks, std::uint64_t{1});
  put(stacks, kMaxCallStackDepth + 1);
  for (std::uint32_t i = 0; i <= kMaxCallStackDepth; ++i) {
    put(stacks, std::uint64_t{0x10});
  }
  EXPECT_EQ(decode(ChunkKind::CallStacks, stacks, tables).status,
            ChunkStatus::Malformed);

  std::string warnings;
  put(warnings, std::uint32_t{2});  // claims two entries, holds one
  put(warnings, std::uint32_t{7});
  put(warnings, std::uint64_t{3});
  EXPECT_EQ(decode(ChunkKind::RuntimeWarnings, warnings, tables).status,
            ChunkStatus::Malformed);

  std::string events;
  put(events, ThreadId{(1u << 20) + 1});
  put(events, std::uint32_t{0});
  EXPECT_EQ(decode(ChunkKind::Events, events, tables).status,
            ChunkStatus::Malformed);
  EXPECT_EQ(tables, TraceTables{});

  const std::string bytes = chunk(ChunkKind::Meta, std::string(12, '\0'));
  ChunkHeader header;
  ASSERT_TRUE(parse_chunk_header(bytes.data(), header));
  ++header.crc;
  EXPECT_EQ(decode_chunk(header, bytes.data() + kChunkHeaderBytes, tables).status,
            ChunkStatus::BadCrc);
}

class ChunkReaders : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChunkReaders, AllFourDecodeTheSameTables) {
  TraceBuilder b;
  b.name_object(1, "L1");
  b.name_thread(0, "main");
  b.thread(0).start(0).lock_at(1, 1, 10, 10, 20).exit(30);
  Trace trace = b.finish();
  trace.set_call_stack(1, {0x1010, 0x2020});
  trace.set_frame_symbol(0x1010, "push+0x24 (demo)");
  trace.set_runtime_warning(7, 3);
  trace.set_dropped_events(4);
  const test_support::TempDir dir;
  const std::string path = dir.file("tables.clat");
  write_trace_file(trace, path, GetParam());

  EXPECT_EQ(read_trace_file(path).tables(), trace.tables());
  EXPECT_EQ(salvage_trace_file(path).trace.tables(), trace.tables());
  EXPECT_EQ(tailed_tables(path), trace.tables());
  if (mmap_supported()) {
    const MappedTrace mapped(path);
    EXPECT_EQ(mapped.view().tables(), trace.tables());
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, ChunkReaders,
                         ::testing::Values(kTraceVersion, kTraceVersionV3),
                         [](const auto& info) {
                           return info.param == kTraceVersionV3 ? "v3" : "v2";
                         });

TEST(ChunkReaders, MalformedChunkAppliesNothing) {
  // A CRC-valid ObjectNames chunk whose first entry renames object 1 and
  // whose second entry is cut short. No reader may apply the first entry.
  std::string good;
  put(good, std::uint32_t{1});
  put_name(good, 1, "A");
  std::string bad;
  put(bad, std::uint32_t{2});
  put_name(bad, 1, "B");
  put(bad, std::uint64_t{2});
  put(bad, std::uint32_t{100});  // name length past the payload end
  const test_support::TempDir dir;
  const std::string path = dir.file("malformed.clat");
  write_file(path, v2_file(chunk(ChunkKind::ObjectNames, good) +
                           chunk(ChunkKind::ObjectNames, bad)));

  EXPECT_THROW(read_trace_file(path), util::Error);
  if (mmap_supported()) {
    EXPECT_THROW(MappedTrace{path}, util::Error);
  }
  const SalvageResult salvaged = salvage_trace_file(path);
  EXPECT_EQ(salvaged.trace.object_names(),
            (std::map<ObjectId, std::string>{{1, "A"}}));
  EXPECT_EQ(salvaged.report.chunks_dropped, 1u);
  EXPECT_EQ(tailed_tables(path).object_names,
            (std::map<ObjectId, std::string>{{1, "A"}}));
}

TEST(ChunkReaders, UnknownKindIsSkipped) {
  // A chunk kind from a newer writer (say, a telemetry chunk) loads as if
  // it were absent, in every reader.
  std::string names;
  put(names, std::uint32_t{1});
  put_name(names, 1, "A");
  const std::string plain = v2_file(chunk(ChunkKind::ObjectNames, names));
  const std::string extended = v2_file(chunk(ChunkKind::ObjectNames, names) +
                                       chunk(99, "future payload"));
  const test_support::TempDir dir;
  const std::string plain_path = dir.file("plain.clat");
  const std::string path = dir.file("extended.clat");
  write_file(plain_path, plain);
  write_file(path, extended);

  const Trace expected = read_trace_file(plain_path);
  const Trace loaded = read_trace_file(path);
  EXPECT_EQ(loaded.tables(), expected.tables());
  EXPECT_EQ(loaded.event_count(), expected.event_count());
  const SalvageResult salvaged = salvage_trace_file(path);
  EXPECT_FALSE(salvaged.report.lossy());
  EXPECT_EQ(salvaged.trace.tables(), expected.tables());
  EXPECT_EQ(tailed_tables(path), expected.tables());
  if (mmap_supported()) {
    const MappedTrace mapped(path);
    EXPECT_EQ(mapped.view().tables(), expected.tables());
    EXPECT_EQ(mapped.view().event_count(), expected.event_count());
  }
}

}  // namespace
}  // namespace cla::trace
