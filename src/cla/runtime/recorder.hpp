// Event recorder — the in-process half of the instrumentation module
// (paper §IV.A).
//
// Threads register once and then append events to a thread-local buffer
// with one timestamp read and one store per MAGIC() point; no locks are
// taken on the hot path.
//
// Two collection modes:
//
//  * Legacy in-memory mode (default): buffers grow until the run ends and
//    collect() stitches them into a trace::Trace.
//
//  * Streaming mode (start_streaming): each thread owns a pair of bounded
//    event buffers. When the active half fills, the thread publishes it
//    and flips to the other half; a dedicated flusher thread drains
//    published halves to a ChunkedTraceWriter (compact `.clat` v3
//    EventsV3 chunks by default, raw v2 chunks on request), so app
//    threads never block on IO. If both halves are full (flusher starved)
//    the event is dropped and counted in the thread's own buffer instead
//    of blocking or growing — except the thread's ThreadExit, which is
//    parked in the buffer and written by the next drain, so each thread
//    records it exactly once. crash_spill() writes every
//    published-and-partial buffer with only async-signal-safe operations
//    (a v3 spill that races the flusher's encoder writes a raw v2 chunk),
//    so a fatal-signal handler can save the run's tail;
//    finish_streaming() is the clean-exit path (synthesizes missing
//    ThreadExit events and a clean-close Meta chunk).
//
// Recording never aborts the host application: if a thread cannot be
// bound (registration races teardown) or a buffer has no room, the event
// is dropped and counted; the count travels in the trace header.
//
// Hostile-process survival (streaming mode):
//
//  * fork(): pthread_atfork handlers quiesce the flusher and registration
//    around the fork. The parent resumes untouched (and counts the fork
//    in a CLA_W_FORKED_CHILD warning); the child — which inherits the
//    buffers but not the flusher thread — drops all inherited bindings
//    and re-targets a fresh `<path>.<pid>` trace file, so parent and
//    child each produce one valid stream with no duplicated events.
//
//  * pthread_cancel / pthread_exit: a TSD destructor records the missing
//    ThreadExit when a bound thread dies without reaching thread_exit(),
//    closing its open critical sections on disk instead of leaving a
//    dangling lock-held stream for the repair pass.
//
//  * Write failures: the sink retries/backs off internally; events that
//    still fail to land are accounted to dropped_events() and surfaced
//    through the trace's RuntimeWarnings chunk (CLA_W_IO_*).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"

namespace cla::rt {

class Recorder {
 public:
  Recorder();
  ~Recorder();  // stops the flusher and closes the stream if still open
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Process-wide recorder used by the instrumented pthread wrappers and
  /// the LD_PRELOAD interposer.
  static Recorder& instance();

  /// True while the calling thread is executing recorder-internal
  /// machinery (the flusher loop, atfork handlers, flusher re-spawn). The
  /// interposer consults this and disarms its hooks, so the recorder's
  /// own pthread use — flush_gate_, std::thread creation — never leaks
  /// synthetic threads or recorder-internal locks into the trace.
  static bool current_thread_internal() noexcept;

  /// RAII marker for recorder-internal execution on the calling thread.
  class ScopedInternal {
   public:
    ScopedInternal() noexcept;
    ~ScopedInternal();
    ScopedInternal(const ScopedInternal&) = delete;
    ScopedInternal& operator=(const ScopedInternal&) = delete;

   private:
    bool prev_;
  };

  /// Reserves a thread id for a thread that is about to start (called by
  /// the creating thread so ThreadCreate can reference the child).
  trace::ThreadId allocate_thread();

  /// Binds the calling OS thread to `tid` and records ThreadStart.
  /// `parent` is the creating thread (kNoThread for the initial thread).
  void bind_current_thread(trace::ThreadId tid, trace::ThreadId parent);

  /// Registers the calling thread if it is unknown (allocates an id with
  /// no recorded parent) and returns its id. Cheap when already bound.
  trace::ThreadId ensure_current_thread();

  /// Records ThreadExit for the calling thread.
  void thread_exit();

  /// TSD-destructor hook: records ThreadExit for the calling thread if it
  /// is bound, streaming and has not recorded one — the cancel/implicit-
  /// exit cleanup path. No-op otherwise.
  void thread_exit_on_destroy() noexcept;

  /// Counts one interposed call that hit an unresolved real symbol
  /// (surfaced as a CLA_W_PARTIAL_INTERPOSITION runtime warning).
  void note_partial_interposition() noexcept;

  /// Appends an event for the calling thread; timestamps with now_ns().
  void record(trace::EventType type, trace::ObjectId object,
              std::uint64_t arg = trace::kNoArg);

  /// Records with an explicit timestamp (used when the timestamp must be
  /// taken before other bookkeeping, e.g. barrier arrival). Fails soft:
  /// if the thread cannot be bound or the buffers are full, the event is
  /// dropped and dropped_events() incremented — never UB, never a throw.
  void record_at(trace::EventType type, std::uint64_t ts,
                 trace::ObjectId object, std::uint64_t arg = trace::kNoArg);

  /// Attaches a name (last write wins; re-registering is idempotent).
  void name_object(trace::ObjectId object, std::string name);
  void name_thread(trace::ThreadId tid, std::string name);

  /// Interns an acquisition call stack (`pcs[0..depth)`, innermost frame
  /// first) and returns its stable id (>= 1); identical chains dedupe to
  /// one id. In streaming mode the first sighting emits a CallStacks
  /// chunk. Takes mutex_ — callers (the interposer's lock hooks) are on a
  /// slow path already (about to block on a mutex) and must not hold
  /// recorder-internal locks. Returns 0 (= "no stack") when depth is 0 or
  /// the recorder has shut down.
  std::uint64_t register_call_stack(const std::uint64_t* pcs,
                                    std::size_t depth);

  /// Events dropped at record time since the last reset/collect: the
  /// shared slow-path count plus every stream buffer's own count.
  /// Async-signal-safe (atomic loads only).
  std::uint64_t dropped_events() const noexcept;

  /// Number of events currently buffered (all threads, unflushed).
  std::size_t event_count() const;

  // ---- legacy in-memory collection ----

  /// Assembles the trace: timestamps are shifted so the earliest event is
  /// at t=0, and any thread missing a ThreadExit gets one at its last
  /// event's timestamp. Buffers are consumed. Only valid outside
  /// streaming mode.
  trace::Trace collect();

  /// Drops all buffered events and thread bindings (between runs). The
  /// calling thread must re-register afterwards.
  void reset();

  // ---- streaming (crash-resilient) mode ----

  /// Switches to streaming mode: opens `path` as a chunked trace (compact
  /// v3 by default, or v2 raw chunks per `version`) and starts the
  /// flusher thread.
  /// `buffer_events` bounds each half of every thread's double buffer
  /// (clamped to [64, 1<<22]). A non-zero `ring_bytes` caps the trace's
  /// on-disk size: the writer retires the oldest complete chunks as
  /// counted loss (CLA_W_RING_RETIRED_EVENTS) when the file outgrows the
  /// cap. Must be called before any thread registers events to be
  /// streamed; throws cla::util::Error if the file cannot be opened or
  /// `version` is not a chunked format.
  void start_streaming(const std::string& path, std::size_t buffer_events,
                       std::uint32_t version = trace::kTraceVersionV3,
                       std::uint64_t ring_bytes = 0);

  bool streaming() const noexcept {
    return streaming_.load(std::memory_order_acquire);
  }

  /// Path of the stream this process is writing (the fork handler gives
  /// each child its own `<path>.<pid>`). Empty outside streaming mode.
  const std::string& stream_path() const noexcept { return stream_path_; }

  /// Clean-exit path: stops the flusher, drains every buffer, synthesizes
  /// missing ThreadExit events, writes the clean-close Meta chunk and
  /// closes the file. Idempotent.
  void finish_streaming();

  /// Best-effort crash-time spill; async-signal-safe (no locks, no
  /// allocation, no iostreams). Writes all safely readable buffers plus a
  /// Meta chunk without the clean flag, then flags the recorder shut down
  /// so subsequent record() calls drop. Safe to call from a fatal-signal
  /// handler; also the `_exit` interposition path. Idempotent — the first
  /// caller wins, later callers return immediately.
  void crash_spill();

  /// True once crash_spill() ran (recording is permanently shut down).
  bool shut_down() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

 private:
  struct ThreadBuffer;    // legacy unbounded buffer
  struct StreamBuffer;    // streaming double buffer

  ThreadBuffer* current_buffer();
  StreamBuffer* current_stream_buffer();
  void stream_append(StreamBuffer& buffer, const trace::Event& event);
  void flusher_main();
  static unsigned drain_order(const StreamBuffer& buffer, unsigned order[2]);
  static bool published_before_exit(const StreamBuffer& buffer,
                                    unsigned half);
  static bool take_parked_exit(StreamBuffer& buffer) noexcept;
  // Appends events through the sink; what it could not land is counted
  // as an IO drop.
  void write_counted(trace::ThreadId tid, const trace::Event* events,
                     std::uint32_t count);
  void write_parked_exit(StreamBuffer& buffer);
  void drain_published(StreamBuffer& buffer);  // flusher sweep
  void flush_half(StreamBuffer& buffer, unsigned half);
  // finish_streaming (crash = false) and crash_spill (crash = true).
  void spill_buffer(StreamBuffer& buffer, bool crash);
  void write_stream_warnings();

  // pthread_atfork trampolines (dispatch to the streaming recorder).
  static void atfork_prepare();
  static void atfork_parent();
  static void atfork_child();
  void prepare_fork();
  void resume_parent();
  void reinit_child();

  mutable std::mutex mutex_;  // guards registration and collection only
  // Held by the flusher around each drain sweep so the fork handler can
  // quiesce in-flight IO (lock order: mutex_ then flush_gate_).
  std::mutex flush_gate_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<trace::ThreadId> next_tid_{0};
  std::map<trace::ObjectId, std::string> object_names_;
  std::map<trace::ThreadId, std::string> thread_names_;
  // Call-stack intern table: pc chain -> id (ids start at 1, streamed as
  // CallStacks chunks; replayed to the child's sink after fork).
  std::map<std::vector<std::uint64_t>, std::uint64_t> call_stack_ids_;

  // What every record_at reads, alone on a cache line that nothing on
  // the record path writes.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};  // invalidates TLS caches
  std::atomic<bool> streaming_{false};
  std::atomic<bool> shutdown_{false};

  // Drops outside a stream buffer's own count: after shutdown, on a
  // thread with no buffer, failed writes, and the legacy mode.
  alignas(64) std::atomic<std::uint64_t> dropped_{0};

  // Streaming state. The registry is a fixed array of atomic slots so the
  // crash handler can walk it without taking mutex_.
  static constexpr std::size_t kMaxStreamThreads = 4096;
  std::atomic<bool> flusher_stop_{false};
  std::size_t stream_capacity_ = 0;
  std::string stream_path_;
  std::uint32_t stream_version_ = trace::kTraceVersionV3;
  std::uint64_t stream_ring_bytes_ = 0;
  std::atomic<std::uint64_t> io_dropped_{0};   // events lost to failed writes
  std::atomic<std::uint64_t> warn_partial_interpose_{0};
  std::atomic<std::uint64_t> warn_forks_{0};
  std::unique_ptr<trace::ChunkedTraceWriter> sink_;
  std::vector<std::unique_ptr<StreamBuffer>> stream_owned_;
  std::atomic<StreamBuffer*> stream_registry_[kMaxStreamThreads] = {};
  std::atomic<std::uint32_t> stream_count_{0};
  std::thread flusher_;
};

}  // namespace cla::rt
