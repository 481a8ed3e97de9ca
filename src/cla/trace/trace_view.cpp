#include "cla/trace/trace_view.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CLA_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CLA_HAVE_MMAP 0
#endif

#include <cerrno>
#include <cstring>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {

bool mmap_supported() noexcept { return CLA_HAVE_MMAP != 0; }

// ---- TraceView -----------------------------------------------------------

TraceView::TraceView(const Trace& trace) : tables_(&trace.tables()) {
  threads_.reserve(trace.thread_count());
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto events = trace.thread_events(tid);
    threads_.emplace_back(events.data(), events.size(), tid);
  }
}

const EventsView& TraceView::thread_events(ThreadId tid) const {
  CLA_CHECK(tid < threads_.size(), "thread id out of range");
  return threads_[tid];
}

std::size_t TraceView::event_count() const noexcept {
  std::size_t n = 0;
  for (const auto& t : threads_) n += t.size();
  return n;
}

std::uint64_t TraceView::start_ts() const noexcept {
  std::uint64_t ts = ~0ull;
  for (const auto& t : threads_)
    if (!t.empty()) ts = std::min(ts, t.ts_at(0));
  return ts == ~0ull ? 0 : ts;
}

std::uint64_t TraceView::end_ts() const noexcept {
  std::uint64_t ts = 0;
  for (const auto& t : threads_)
    if (!t.empty()) ts = std::max(ts, t.ts_at(t.size() - 1));
  return ts;
}

Trace TraceView::materialize() const {
  Trace trace;
  std::vector<Event> buffer;
  for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
    const EventsView& events = threads_[tid];
    trace.reserve_thread_events(tid, events.size());
    buffer.clear();
    buffer.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) buffer.push_back(events[i]);
    trace.append_thread_events(tid, buffer);
  }
  trace.tables() = *tables_;
  return trace;
}

const TraceTables& TraceView::no_tables() noexcept {
  static const TraceTables empty;
  return empty;
}

// ---- MappedTrace ---------------------------------------------------------

namespace {

/// Bounds-checked forward cursor over a v1 mapping (throwing, strict —
/// this loader matches read_trace's behavior, not salvage's).
struct Cursor {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  std::size_t remaining() const noexcept { return size - pos; }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    CLA_CHECK(remaining() >= sizeof(T), "trace stream truncated");
    T value;
    std::memcpy(&value, data + pos, sizeof value);
    pos += sizeof value;
    return value;
  }

  std::string get_string() {
    const auto len = get<std::uint32_t>();
    CLA_CHECK(len <= (1u << 20), "trace name record suspiciously large");
    CLA_CHECK(remaining() >= len, "trace stream truncated in name record");
    std::string s(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return s;
  }
};

}  // namespace

MappedTrace::MappedTrace(const std::string& path) {
#if CLA_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw util::TraceIoError(
        "cannot open trace file: " + path + ": " + std::strerror(errno),
        errno);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw util::TraceIoError(
        "cannot stat trace file: " + path + ": " + std::strerror(err), err);
  }
  map_size_ = static_cast<std::size_t>(st.st_size);
  if (map_size_ > 0) {
    void* map = ::mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw util::TraceIoError(
          "cannot mmap trace file: " + path + ": " + std::strerror(err), err);
    }
    map_ = static_cast<const unsigned char*>(map);
  }
  ::close(fd);

  try {
    CLA_CHECK(map_size_ >= 8 && std::memcmp(map_, kTraceMagic, 4) == 0,
              "not a CLA trace (bad magic)");
    std::memcpy(&version_, map_ + 4, 4);
    CLA_CHECK(is_supported_trace_version(version_),
              "unsupported trace version " + std::to_string(version_));
    if (version_ == kTraceVersionLegacy) {
      load_v1(map_, map_size_);
    } else {
      load_chunked(map_, map_size_);
    }
    view_.tables_ = &tables_;
  } catch (...) {
    if (map_ != nullptr) ::munmap(const_cast<unsigned char*>(map_), map_size_);
    throw;
  }
#else
  CLA_CHECK(false, "mmap trace loading is not supported on this platform: " +
                       path);
#endif
}

MappedTrace::~MappedTrace() {
#if CLA_HAVE_MMAP
  if (map_ != nullptr) ::munmap(const_cast<unsigned char*>(map_), map_size_);
#endif
}

void MappedTrace::load_v1(const unsigned char* p, std::size_t size) {
  Cursor in{p, size, 8};

  const auto thread_count = in.get<std::uint32_t>();
  CLA_CHECK(thread_count <= (1u << 20), "implausible thread count in trace");

  const auto object_names = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < object_names; ++i) {
    const auto object = in.get<ObjectId>();
    tables_.object_names[object] = in.get_string();
  }
  const auto thread_names = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < thread_names; ++i) {
    const auto tid = in.get<ThreadId>();
    tables_.thread_names[tid] = in.get_string();
  }

  std::vector<std::vector<EventsChunk>> segments;
  for (std::uint32_t block = 0; block < thread_count; ++block) {
    const auto tid = in.get<ThreadId>();
    CLA_CHECK(tid <= (1u << 20), "implausible thread id in trace");
    const auto count = in.get<std::uint64_t>();
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(Event);
    CLA_CHECK(in.remaining() >= bytes, "trace stream truncated in event block");
    if (tid >= segments.size()) segments.resize(tid + 1);
    segments[tid].push_back(EventsChunk{tid, static_cast<std::uint32_t>(count),
                                        in.data + in.pos, bytes, false});
    in.pos += bytes;
  }
  build_views(segments);
}

void MappedTrace::load_chunked(const unsigned char* p, std::size_t size) {
  std::vector<std::vector<EventsChunk>> segments;
  bool clean_close = false;
  std::size_t pos = 8;
  while (pos < size) {
    ChunkHeader header;
    CLA_CHECK(size - pos >= kChunkHeaderBytes && parse_chunk_header(p + pos, header),
              "corrupt trace: bad chunk header");
    CLA_CHECK(size - pos - kChunkHeaderBytes >= header.payload_bytes,
              "trace stream truncated inside chunk");
    const DecodedChunk chunk =
        decode_chunk(header, p + pos + kChunkHeaderBytes, tables_);
    pos += kChunkHeaderBytes + header.payload_bytes;
    CLA_CHECK(chunk.status != ChunkStatus::BadCrc,
              "corrupt trace: chunk CRC mismatch");
    CLA_CHECK(chunk.status != ChunkStatus::Malformed,
              "corrupt trace: malformed chunk of kind " +
                  std::to_string(header.kind));
    clean_close = clean_close || chunk.clean_close;
    if (chunk.status == ChunkStatus::Events) {
      const ThreadId tid = chunk.events.tid;
      if (tid >= segments.size()) segments.resize(tid + 1);
      segments[tid].push_back(chunk.events);
    }
  }
  CLA_CHECK(clean_close,
            "trace has no clean-close marker (crashed or truncated "
            "recording; use --salvage)");
  build_views(segments);
}

void MappedTrace::build_views(
    const std::vector<std::vector<EventsChunk>>& segments) {
  const std::size_t nthreads = segments.size();
  soa_.resize(nthreads);
  compacted_.resize(nthreads);
  view_.threads_.reserve(nthreads);

  for (ThreadId tid = 0; tid < nthreads; ++tid) {
    const auto& segs = segments[tid];
    std::size_t total = 0;
    bool any_v3 = false;
    bool any_raw = false;
    for (const EventsChunk& s : segs) {
      total += s.count;
      (s.v3 ? any_v3 : any_raw) = true;
    }

    if (total == 0) {
      view_.threads_.emplace_back(nullptr, 0, tid);
    } else if (!any_v3 && segs.size() == 1) {
      // The common v1/v2 shape: one contiguous run, viewed in place.
      view_.threads_.emplace_back(segs.front().payload, total, tid);
    } else if (any_v3 && !any_raw) {
      // Pure v3: decode each chunk once, straight into the final SoA
      // columns (chunk deltas are self-contained, so chunks decode
      // independently at any offset).
      SoaColumns& soa = soa_[tid];
      soa.ts.resize(total);
      soa.object.resize(total);
      soa.arg.resize(total);
      soa.type.resize(total);
      std::size_t off = 0;
      for (const EventsChunk& s : segs) {
        CLA_CHECK(decode_events_v3(s.payload, s.bytes, soa.ts.data() + off,
                                   soa.object.data() + off,
                                   soa.arg.data() + off, soa.type.data() + off),
                  "corrupt trace: bad v3 events chunk encoding");
        off += s.count;
      }
      view_.threads_.emplace_back(soa.ts.data(), soa.object.data(),
                                  soa.arg.data(), soa.type.data(), total, tid);
    } else {
      // Several raw runs, or raw chunks mixed into a v3 file (crash-spill
      // fallback): compact into one owned AoS buffer, in file order.
      std::vector<Event>& events = compacted_[tid];
      events.resize(total);
      std::size_t off = 0;
      for (const EventsChunk& s : segs) {
        CLA_CHECK(decode_events(s, events.data() + off),
                  "corrupt trace: bad v3 events chunk encoding");
        off += s.count;
      }
      view_.threads_.emplace_back(events.data(), total, tid);
    }
  }
}

}  // namespace cla::trace
