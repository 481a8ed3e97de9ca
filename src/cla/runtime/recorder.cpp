#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // dladdr (glibc); must precede the first system header
#endif

#include "cla/runtime/recorder.hpp"

#include <dlfcn.h>
#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <new>
#include <set>

#include "cla/util/clock.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/error.hpp"
#include "cla/util/faultinject.hpp"

namespace cla::rt {

namespace {

struct TlsBinding {
  Recorder* recorder = nullptr;
  void* buffer = nullptr;
  std::uint64_t epoch = 0;
};

thread_local TlsBinding tls_binding;

// Epochs are process-globally unique so a stale TLS binding can never
// false-match a different (or re-created) Recorder that happens to live
// at the same address.
std::atomic<std::uint64_t> g_binding_epoch{0};

std::uint64_t next_binding_epoch() {
  return g_binding_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

// The recorder currently in streaming mode (at most one per process in
// practice — the interposer singleton; a later start_streaming wins).
// The atfork handlers and the TSD thread-exit destructor dispatch through
// this pointer because both are process-global registrations.
std::atomic<Recorder*> g_stream_recorder{nullptr};

// A TSD slot whose destructor fires when a bound thread dies for any
// reason pthread knows about — pthread_exit, pthread_cancel, or falling
// off the start routine — recording the ThreadExit the thread never got
// to record itself.
pthread_key_t g_thread_exit_key;
std::once_flag g_thread_exit_key_once;
std::once_flag g_atfork_once;

extern "C" void cla_thread_exit_destructor(void*) {
  if (Recorder* recorder = g_stream_recorder.load(std::memory_order_acquire)) {
    recorder->thread_exit_on_destroy();
  }
}

// StreamBuffer::exit_state values.
constexpr std::uint32_t kExitNone = 0;
constexpr std::uint32_t kExitParked = 1;
constexpr std::uint32_t kExitTaken = 2;

// Set while the current thread runs recorder-internal machinery; the
// interposer's HookGuard disarms on it (see current_thread_internal()).
thread_local bool tls_internal_thread = false;

// Resolves one recorded return address to "symbol+0xoff (module)" via
// dladdr. Only meaningful in the recording process (the PCs index *its*
// address space), which is why symbols travel in the trace instead of
// being resolved at analysis time. Empty string when dladdr knows
// nothing about the address (static binary, stripped JIT page...).
std::string symbolize_pc(std::uint64_t pc) {
  Dl_info info{};
  const auto addr = reinterpret_cast<void*>(static_cast<std::uintptr_t>(pc));
  if (dladdr(addr, &info) == 0) return {};
  char buf[32];
  std::string out;
  if (info.dli_sname != nullptr) {
    out = info.dli_sname;
    const auto base = reinterpret_cast<std::uintptr_t>(info.dli_saddr);
    if (base != 0 && static_cast<std::uintptr_t>(pc) >= base) {
      std::snprintf(buf, sizeof buf, "+0x%llx",
                    static_cast<unsigned long long>(pc - base));
      out += buf;
    }
  }
  if (info.dli_fname != nullptr && *info.dli_fname != '\0') {
    // Module basename only: full build paths churn golden outputs.
    const char* slash = std::strrchr(info.dli_fname, '/');
    const char* module = slash != nullptr ? slash + 1 : info.dli_fname;
    if (!out.empty()) out += ' ';
    out += '(';
    out += module;
    out += ')';
  }
  return out;
}

}  // namespace

bool Recorder::current_thread_internal() noexcept {
  return tls_internal_thread;
}

Recorder::ScopedInternal::ScopedInternal() noexcept
    : prev_(tls_internal_thread) {
  tls_internal_thread = true;
}

Recorder::ScopedInternal::~ScopedInternal() { tls_internal_thread = prev_; }

/// Legacy unbounded in-memory buffer (collect() mode).
struct Recorder::ThreadBuffer {
  trace::ThreadId tid = 0;
  std::vector<trace::Event> events;
};

/// Streaming-mode double buffer. The owning thread appends to the active
/// half and flips when it fills; the flusher (or the crash handler)
/// drains published halves. All cross-thread hand-off is via the atomics,
/// so the crash handler can read any half without locks. Cache-line
/// aligned so no two threads' owner-written fields share a line.
struct alignas(64) Recorder::StreamBuffer {
  trace::ThreadId tid = 0;
  std::uint32_t capacity = 0;
  std::unique_ptr<trace::Event[]> half[2];
  std::atomic<std::uint32_t> count[2] = {0, 0};
  std::atomic<bool> full[2] = {false, false};
  std::atomic<bool> in_flight[2] = {false, false};
  std::atomic<std::uint64_t> publish_seq[2] = {0, 0};  // flush ordering
  std::atomic<std::uint64_t> last_ts{0};               // for exit synthesis
  std::atomic<bool> saw_exit{false};
  // Events dropped because both halves were full. Only the owner writes
  // it (load + store, no read-modify-write); dropped_events() sums it.
  std::atomic<std::uint64_t> dropped{0};
  // A ThreadExit that finds both halves full is parked here instead of
  // dropped; the flusher, finish_streaming or crash_spill writes it right
  // after the halves published before it (exit_after_seq), and whoever
  // moves exit_state from kExitParked to kExitTaken owns that write.
  std::atomic<std::uint32_t> exit_state{kExitNone};
  trace::Event parked_exit{};
  std::uint64_t exit_after_seq = 0;  // set before exit_state is released

  // Owner-thread-only state.
  std::uint32_t active = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t clamp_ts = 0;  // per-thread monotonic timestamp repair
};

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

Recorder::Recorder() {
  // Calibrate the TSC up front: the lazy path would charge the ~200µs
  // busy window to the first critical section that takes a timestamp.
  util::calibrate_clock();
  util::fault::init();
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);
}

Recorder::~Recorder() {
  finish_streaming();
  // Never leave the atfork/TSD dispatch pointer dangling at a destroyed
  // recorder (unit tests create short-lived streaming recorders).
  Recorder* self = this;
  g_stream_recorder.compare_exchange_strong(self, nullptr,
                                            std::memory_order_acq_rel);
}

trace::ThreadId Recorder::allocate_thread() {
  return next_tid_.fetch_add(1, std::memory_order_relaxed);
}

void Recorder::bind_current_thread(trace::ThreadId tid, trace::ThreadId parent) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  void* raw = nullptr;
  if (streaming_.load(std::memory_order_acquire)) {
    auto buffer = std::make_unique<StreamBuffer>();
    buffer->tid = tid;
    buffer->capacity = static_cast<std::uint32_t>(stream_capacity_);
    buffer->half[0] = std::make_unique<trace::Event[]>(stream_capacity_);
    buffer->half[1] = std::make_unique<trace::Event[]>(stream_capacity_);
    StreamBuffer* sb = buffer.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const std::uint32_t slot = stream_count_.load(std::memory_order_relaxed);
      if (slot >= kMaxStreamThreads) return;  // fail soft; records will drop
      stream_owned_.push_back(std::move(buffer));
      stream_registry_[slot].store(sb, std::memory_order_release);
      stream_count_.store(slot + 1, std::memory_order_release);
    }
    raw = sb;
    // Arm the per-thread exit destructor: if this thread is cancelled or
    // exits without reaching thread_exit(), the destructor records the
    // missing ThreadExit (value is a non-null sentinel; the destructor
    // resolves the recorder through g_stream_recorder).
    std::call_once(g_thread_exit_key_once, [] {
      pthread_key_create(&g_thread_exit_key, cla_thread_exit_destructor);
    });
    pthread_setspecific(g_thread_exit_key, reinterpret_cast<void*>(1));
  } else {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = tid;
    buffer->events.reserve(1024);
    raw = buffer.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::move(buffer));
    }
  }
  tls_binding = TlsBinding{this, raw, epoch_.load(std::memory_order_relaxed)};
  record(trace::EventType::ThreadStart,
         parent == trace::kNoThread ? trace::kNoObject
                                    : static_cast<trace::ObjectId>(parent));
}

trace::ThreadId Recorder::ensure_current_thread() {
  if (streaming_.load(std::memory_order_acquire)) {
    if (StreamBuffer* buffer = current_stream_buffer()) return buffer->tid;
  } else if (ThreadBuffer* buffer = current_buffer()) {
    return buffer->tid;
  }
  const trace::ThreadId tid = allocate_thread();
  bind_current_thread(tid, trace::kNoThread);
  return tid;
}

Recorder::ThreadBuffer* Recorder::current_buffer() {
  const TlsBinding& binding = tls_binding;
  if (binding.recorder != this ||
      binding.epoch != epoch_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  return static_cast<ThreadBuffer*>(binding.buffer);
}

Recorder::StreamBuffer* Recorder::current_stream_buffer() {
  const TlsBinding& binding = tls_binding;
  if (binding.recorder != this ||
      binding.epoch != epoch_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  return static_cast<StreamBuffer*>(binding.buffer);
}

void Recorder::thread_exit() {
  record(trace::EventType::ThreadExit, trace::kNoObject);
}

void Recorder::thread_exit_on_destroy() noexcept {
  if (!streaming_.load(std::memory_order_acquire) ||
      shutdown_.load(std::memory_order_acquire)) {
    return;
  }
  StreamBuffer* buffer = current_stream_buffer();
  if (buffer == nullptr || buffer->saw_exit.load(std::memory_order_relaxed)) {
    return;
  }
  // A fresh timestamp (not last_ts): the thread died *after* its last
  // recorded event, and the gap is real time its open critical sections
  // were held.
  record(trace::EventType::ThreadExit, trace::kNoObject);
}

void Recorder::note_partial_interposition() noexcept {
  warn_partial_interpose_.fetch_add(1, std::memory_order_relaxed);
}

void Recorder::record(trace::EventType type, trace::ObjectId object,
                      std::uint64_t arg) {
  record_at(type, util::now_ns(), object, arg);
}

void Recorder::record_at(trace::EventType type, std::uint64_t ts,
                         trace::ObjectId object, std::uint64_t arg) {
  if (util::fault::enabled()) util::fault::on_event();
  if (shutdown_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (streaming_.load(std::memory_order_acquire)) {
    StreamBuffer* buffer = current_stream_buffer();
    if (buffer == nullptr) {
      ensure_current_thread();
      buffer = current_stream_buffer();
    }
    if (buffer == nullptr) {  // registry full or bound during teardown
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    stream_append(*buffer,
                  trace::Event{ts, object, arg, type, 0, buffer->tid});
    return;
  }
  ThreadBuffer* buffer = current_buffer();
  if (buffer == nullptr) {
    ensure_current_thread();
    buffer = current_buffer();
  }
  if (buffer == nullptr) {  // binding failed mid-teardown: fail soft
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->events.push_back(trace::Event{ts, object, arg, type, 0, buffer->tid});
}

void Recorder::stream_append(StreamBuffer& buffer, const trace::Event& event) {
  trace::Event e = event;
  // Per-thread monotone clamp at record time: the clean-exit repair of
  // collect() never runs when chunks are already on disk.
  if (e.ts < buffer.clamp_ts) {
    e.ts = buffer.clamp_ts;
  } else {
    buffer.clamp_ts = e.ts;
  }
  std::uint32_t half = buffer.active;
  // Acquire: a count the flusher reset to 0 also says its reads of the
  // half are done, so this thread may overwrite it.
  std::uint32_t c = buffer.count[half].load(std::memory_order_acquire);
  if (c == buffer.capacity) {
    // The active half filled (and was published then): move to the other
    // half once the flusher has handed it back. It clears `full` before
    // it resets `count`, so a count that still reads full means "not yet".
    const std::uint32_t other = half ^ 1;
    if (!buffer.full[other].load(std::memory_order_acquire)) {
      c = buffer.count[other].load(std::memory_order_acquire);
    }
    if (c == buffer.capacity) {
      // Flusher starved: both halves full. Drop instead of blocking — but
      // park the thread's one ThreadExit, so it is written exactly once.
      if (e.type == trace::EventType::ThreadExit &&
          buffer.exit_state.load(std::memory_order_relaxed) == kExitNone) {
        buffer.parked_exit = e;
        buffer.exit_after_seq = buffer.next_seq - 1;
        buffer.last_ts.store(e.ts, std::memory_order_relaxed);
        buffer.saw_exit.store(true, std::memory_order_relaxed);
        buffer.exit_state.store(kExitParked, std::memory_order_release);
        return;
      }
      buffer.dropped.store(buffer.dropped.load(std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
      return;
    }
    buffer.active = half = other;
  }
  buffer.half[half][c] = e;
  buffer.count[half].store(c + 1, std::memory_order_release);
  buffer.last_ts.store(e.ts, std::memory_order_relaxed);
  if (e.type == trace::EventType::ThreadExit) {
    buffer.saw_exit.store(true, std::memory_order_relaxed);
  }
  if (c + 1 == buffer.capacity) {
    // Publish the half for the flusher the moment it fills, so a full
    // count always means "published" and a half is never published twice.
    buffer.publish_seq[half].store(buffer.next_seq++,
                                   std::memory_order_relaxed);
    buffer.full[half].store(true, std::memory_order_release);
  }
}

void Recorder::name_object(trace::ObjectId object, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = object_names_.try_emplace(object, name);
  if (!inserted) {
    if (it->second == name) return;  // idempotent re-registration
    it->second = name;               // last write wins
  }
  if (streaming_.load(std::memory_order_acquire) && sink_ != nullptr &&
      !shutdown_.load(std::memory_order_acquire)) {
    sink_->write_object_name(object, name);
  }
}

void Recorder::name_thread(trace::ThreadId tid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = thread_names_.try_emplace(tid, name);
  if (!inserted) {
    if (it->second == name) return;
    it->second = name;
  }
  if (streaming_.load(std::memory_order_acquire) && sink_ != nullptr &&
      !shutdown_.load(std::memory_order_acquire)) {
    sink_->write_thread_name(tid, name);
  }
}

std::uint64_t Recorder::register_call_stack(const std::uint64_t* pcs,
                                            std::size_t depth) {
  if (depth == 0 || pcs == nullptr ||
      shutdown_.load(std::memory_order_acquire)) {
    return 0;
  }
  if (depth > trace::kMaxCallStackDepth) depth = trace::kMaxCallStackDepth;
  std::vector<std::uint64_t> chain(pcs, pcs + depth);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t next_id = call_stack_ids_.size() + 1;
  auto [it, inserted] = call_stack_ids_.try_emplace(std::move(chain), next_id);
  if (inserted && streaming_.load(std::memory_order_acquire) &&
      sink_ != nullptr && !shutdown_.load(std::memory_order_acquire)) {
    sink_->write_call_stack(it->second, it->first.data(), it->first.size());
  }
  return it->second;
}

std::size_t Recorder::event_count() const {
  if (streaming_.load(std::memory_order_acquire)) {
    std::size_t total = 0;
    const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) {
      const StreamBuffer* buffer =
          stream_registry_[i].load(std::memory_order_acquire);
      if (buffer == nullptr) continue;
      total += buffer->count[0].load(std::memory_order_relaxed);
      total += buffer->count[1].load(std::memory_order_relaxed);
    }
    return total;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events.size();
  return total;
}

std::uint64_t Recorder::dropped_events() const noexcept {
  std::uint64_t total = dropped_.load(std::memory_order_relaxed);
  const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (const StreamBuffer* buffer =
            stream_registry_[i].load(std::memory_order_acquire)) {
      total += buffer->dropped.load(std::memory_order_relaxed);
    }
  }
  return total;
}

trace::Trace Recorder::collect() {
  CLA_CHECK(!streaming_.load(std::memory_order_acquire),
            "collect() is invalid in streaming mode (the trace is on disk)");
  std::lock_guard<std::mutex> lock(mutex_);
  trace::Trace out;

  std::uint64_t min_ts = ~0ull;
  for (const auto& buffer : buffers_) {
    if (!buffer->events.empty()) min_ts = std::min(min_ts, buffer->events.front().ts);
  }
  if (min_ts == ~0ull) min_ts = 0;

  for (auto& buffer : buffers_) {
    if (buffer->events.empty()) continue;
    // Per-thread timestamps must be monotone; rdtsc can regress slightly
    // on some VMs / across calibration, so repair the raw stream first —
    // doing this after the shift would propagate an underflow instead.
    for (std::size_t i = 1; i < buffer->events.size(); ++i) {
      if (buffer->events[i].ts < buffer->events[i - 1].ts)
        buffer->events[i].ts = buffer->events[i - 1].ts;
    }
    for (auto& event : buffer->events) {
      event.ts = event.ts > min_ts ? event.ts - min_ts : 0;
    }
    if (buffer->events.back().type != trace::EventType::ThreadExit) {
      buffer->events.push_back(trace::Event{buffer->events.back().ts,
                                            trace::kNoObject, trace::kNoArg,
                                            trace::EventType::ThreadExit, 0,
                                            buffer->tid});
    }
    out.add_thread_stream(buffer->tid, std::move(buffer->events));
  }
  for (auto& [object, name] : object_names_) out.set_object_name(object, name);
  for (auto& [tid, name] : thread_names_) out.set_thread_name(tid, name);
  for (const auto& [chain, id] : call_stack_ids_) {
    out.set_call_stack(id, chain);
    for (const std::uint64_t pc : chain) {
      if (std::string sym = symbolize_pc(pc); !sym.empty()) {
        out.set_frame_symbol(pc, std::move(sym));
      }
    }
  }
  out.set_dropped_events(dropped_.load(std::memory_order_relaxed));

  buffers_.clear();
  object_names_.clear();
  thread_names_.clear();
  call_stack_ids_.clear();
  next_tid_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);
  return out;
}

void Recorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  object_names_.clear();
  thread_names_.clear();
  call_stack_ids_.clear();
  next_tid_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);
}

// ---- streaming mode ------------------------------------------------------

void Recorder::start_streaming(const std::string& path,
                               std::size_t buffer_events,
                               std::uint32_t version,
                               std::uint64_t ring_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  CLA_CHECK(!streaming_.load(std::memory_order_acquire),
            "recorder is already streaming");
  sink_ = std::make_unique<trace::ChunkedTraceWriter>(path, version,
                                                      ring_bytes);  // may throw
  stream_capacity_ = std::clamp<std::size_t>(buffer_events, 64, 1u << 22);
  stream_path_ = path;
  stream_version_ = version;
  stream_ring_bytes_ = ring_bytes;
  flusher_stop_.store(false, std::memory_order_release);
  streaming_.store(true, std::memory_order_release);
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);  // rebind legacy TLS
  g_stream_recorder.store(this, std::memory_order_release);
  // One process-wide registration; the handlers dispatch through
  // g_stream_recorder so later recorders (unit tests) are covered too.
  std::call_once(g_atfork_once, [] {
    pthread_atfork(&Recorder::atfork_prepare, &Recorder::atfork_parent,
                   &Recorder::atfork_child);
  });
  {
    // The flusher must never appear in the trace: suppress the hooks both
    // for its pthread_create and (inside flusher_main) for its lifetime.
    ScopedInternal internal;
    flusher_ = std::thread([this] { flusher_main(); });
  }
}

// ---- fork safety ---------------------------------------------------------

void Recorder::atfork_prepare() {
  ScopedInternal internal;
  if (Recorder* r = g_stream_recorder.load(std::memory_order_acquire)) {
    r->prepare_fork();
  }
}

void Recorder::atfork_parent() {
  ScopedInternal internal;
  if (Recorder* r = g_stream_recorder.load(std::memory_order_acquire)) {
    r->resume_parent();
  }
}

void Recorder::atfork_child() {
  ScopedInternal internal;
  if (Recorder* r = g_stream_recorder.load(std::memory_order_acquire)) {
    r->reinit_child();
  }
}

void Recorder::prepare_fork() {
  // Quiesce registration and the flusher so the child's snapshot of the
  // recorder (and of the trace file) is not mid-mutation. Lock order
  // matches name_object -> sink writes: mutex_ first, then the gate.
  mutex_.lock();
  flush_gate_.lock();
}

void Recorder::resume_parent() {
  flush_gate_.unlock();
  mutex_.unlock();
  if (streaming_.load(std::memory_order_acquire) &&
      !shutdown_.load(std::memory_order_acquire)) {
    warn_forks_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Recorder::reinit_child() {
  flush_gate_.unlock();
  mutex_.unlock();
  if (!streaming_.load(std::memory_order_acquire) ||
      shutdown_.load(std::memory_order_acquire)) {
    return;
  }
  // The flusher thread does not exist in the child; its std::thread
  // handle still claims joinable, so reset the handle in place (join or
  // assignment would be UB / terminate).
  new (&flusher_) std::thread();
  // Invalidate every inherited thread binding *before* freeing the
  // buffers they point to; only the forking thread survives, and it
  // re-registers on its next event.
  epoch_.store(next_binding_epoch(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMaxStreamThreads; ++i) {
    stream_registry_[i].store(nullptr, std::memory_order_relaxed);
  }
  stream_count_.store(0, std::memory_order_relaxed);
  stream_owned_.clear();
  thread_names_.clear();
  next_tid_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  io_dropped_.store(0, std::memory_order_relaxed);
  warn_forks_.store(0, std::memory_order_relaxed);
  // Drop the inherited sink (its close() only releases the shared fd —
  // the parent's already-flushed chunks stay untouched) and open this
  // process's own trace file. Nested forks compound the suffix.
  sink_.reset();
  stream_path_ += "." + std::to_string(::getpid());
  try {
    sink_ = std::make_unique<trace::ChunkedTraceWriter>(
        stream_path_, stream_version_, stream_ring_bytes_);
  } catch (...) {
    // Child cannot trace (unwritable dir after chroot/setuid...): record
    // nothing rather than crash the forked application.
    streaming_.store(false, std::memory_order_release);
    shutdown_.store(true, std::memory_order_release);
    return;
  }
  // Object identities (lock addresses) persist across fork; replay their
  // names so the child's trace is self-contained. Interned call stacks
  // (and their ids) persist the same way — the child's MutexAcquire
  // events keep referencing them.
  for (const auto& [object, name] : object_names_) {
    sink_->write_object_name(object, name);
  }
  for (const auto& [chain, id] : call_stack_ids_) {
    sink_->write_call_stack(id, chain.data(), chain.size());
  }
  flusher_stop_.store(false, std::memory_order_release);
  flusher_ = std::thread([this] { flusher_main(); });
}

void Recorder::flusher_main() {
  // The whole loop is recorder machinery: its flush_gate_ acquisitions
  // must not surface as trace events through the interposed hooks.
  ScopedInternal internal;
  const struct timespec pause{0, 200'000};  // 200us between drain sweeps
  std::uint64_t sweeps = 0;
  while (!flusher_stop_.load(std::memory_order_acquire)) {
    if (const std::uint32_t stall = util::fault::flusher_stall_ms();
        stall != 0) {
      const struct timespec ts{stall / 1000,
                               static_cast<long>(stall % 1000) * 1'000'000};
      nanosleep(&ts, nullptr);
    }
    {
      // The gate quiesces this sweep around fork(): the atfork prepare
      // handler takes it, so no writev is in flight while the file and
      // the buffers get duplicated into the child.
      std::lock_guard<std::mutex> gate(flush_gate_);
      const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (StreamBuffer* buffer =
                stream_registry_[i].load(std::memory_order_acquire)) {
          drain_published(*buffer);
        }
      }
      // Refresh the in-place Meta/RuntimeWarnings chunks every ~50ms so
      // live tailers and point-in-time snapshots see current loss counts
      // (ring retirement, IO drops) instead of zeros until process exit.
      // Both are bounded pwrites of already-allocated bytes.
      if (++sweeps % 256 == 0 &&
          !shutdown_.load(std::memory_order_acquire)) {
        write_stream_warnings();
        sink_->write_meta(dropped_events() + sink_->ring_retired_events(),
                          /*clean_close=*/false);
      }
    }
    nanosleep(&pause, nullptr);
  }
}

// Fills `order` with the order every drain path writes a buffer's halves
// in: published (full) halves by publish sequence — they hold the older
// events — then the unpublished active half. Returns how many halves
// were published when it looked; they are the first ones in `order`.
unsigned Recorder::drain_order(const StreamBuffer& buffer, unsigned order[2]) {
  const bool full0 = buffer.full[0].load(std::memory_order_acquire);
  const bool full1 = buffer.full[1].load(std::memory_order_acquire);
  const bool first1 =
      full1 && (!full0 ||
                buffer.publish_seq[1].load(std::memory_order_relaxed) <
                    buffer.publish_seq[0].load(std::memory_order_relaxed));
  order[0] = first1 ? 1 : 0;
  order[1] = first1 ? 0 : 1;
  return static_cast<unsigned>(full0) + static_cast<unsigned>(full1);
}

// True if a published `half` went out no later than the buffer's parked
// ThreadExit, i.e. its events precede the exit on disk. Only valid once
// exit_state has been seen parked (exit_after_seq is set by then).
bool Recorder::published_before_exit(const StreamBuffer& buffer,
                                     unsigned half) {
  return buffer.publish_seq[half].load(std::memory_order_relaxed) <=
         buffer.exit_after_seq;
}

bool Recorder::take_parked_exit(StreamBuffer& buffer) noexcept {
  std::uint32_t expected = kExitParked;
  return buffer.exit_state.compare_exchange_strong(
      expected, kExitTaken, std::memory_order_acq_rel);
}

void Recorder::write_counted(trace::ThreadId tid, const trace::Event* events,
                             std::uint32_t count) {
  const std::size_t wrote = sink_->write_events(tid, events, count);
  if (wrote < count) {
    // The sink ran out of retry budget (disk full past the backoff
    // window): the unwritten tail is gone — count it, both in the meta
    // drop counter and in the IO-specific warning.
    dropped_.fetch_add(count - wrote, std::memory_order_relaxed);
    io_dropped_.fetch_add(count - wrote, std::memory_order_relaxed);
  }
}

void Recorder::write_parked_exit(StreamBuffer& buffer) {
  if (take_parked_exit(buffer)) {
    write_counted(buffer.tid, &buffer.parked_exit, 1);
  }
}

void Recorder::drain_published(StreamBuffer& buffer) {
  bool exit_due = buffer.exit_state.load(std::memory_order_acquire) ==
                  kExitParked;
  unsigned order[2];
  const unsigned published = drain_order(buffer, order);
  for (unsigned k = 0; k < published; ++k) {
    if (exit_due && !published_before_exit(buffer, order[k])) {
      if (shutdown_.load(std::memory_order_seq_cst)) return;
      write_parked_exit(buffer);
      exit_due = false;
    }
    flush_half(buffer, order[k]);
  }
  if (exit_due && !shutdown_.load(std::memory_order_seq_cst)) {
    write_parked_exit(buffer);
  }
}

void Recorder::flush_half(StreamBuffer& buffer, unsigned half) {
  buffer.in_flight[half].store(true, std::memory_order_seq_cst);
  if (shutdown_.load(std::memory_order_seq_cst)) {
    // A crash handler owns the file now. Park with in_flight set so the
    // handler never writes a half we may already have started.
    return;
  }
  write_counted(buffer.tid, buffer.half[half].get(),
                buffer.count[half].load(std::memory_order_acquire));
  // Hand the half back: `full` first, then `count` — the owner reuses a
  // half only once both read free (see stream_append).
  buffer.full[half].store(false, std::memory_order_release);
  buffer.count[half].store(0, std::memory_order_release);
  buffer.in_flight[half].store(false, std::memory_order_release);
}

void Recorder::spill_buffer(StreamBuffer& buffer, bool crash) {
  bool exit_due = buffer.exit_state.load(std::memory_order_acquire) ==
                  kExitParked;
  // Crash path only: a half published before the parked exit that the
  // flusher is still writing. Writing the exit now could put it ahead of
  // that half's events, so it is counted as dropped instead.
  bool exit_blocked = false;
  const auto place_exit = [&] {
    if (!exit_blocked) {
      write_parked_exit(buffer);
    } else if (take_parked_exit(buffer)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    exit_due = false;
  };
  unsigned order[2];
  const unsigned published = drain_order(buffer, order);
  for (unsigned k = 0; k < 2; ++k) {
    const unsigned half = order[k];
    const bool before_exit =
        exit_due && k < published && published_before_exit(buffer, half);
    if (exit_due && !before_exit) place_exit();
    if (crash && buffer.in_flight[half].load(std::memory_order_seq_cst)) {
      exit_blocked = exit_blocked || before_exit;
      continue;  // the flusher may already be writing this half
    }
    write_counted(buffer.tid, buffer.half[half].get(),
                  buffer.count[half].load(std::memory_order_acquire));
    if (!crash) {
      buffer.count[half].store(0, std::memory_order_relaxed);
      buffer.full[half].store(false, std::memory_order_relaxed);
    }
  }
  if (exit_due) place_exit();
}

void Recorder::finish_streaming() {
  if (!streaming_.load(std::memory_order_acquire)) return;
  // Teardown joins the flusher and must not record its own pthread use.
  ScopedInternal internal;
  flusher_stop_.store(true, std::memory_order_release);
  if (flusher_.joinable()) flusher_.join();
  if (shutdown_.exchange(true, std::memory_order_seq_cst)) return;

  const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    StreamBuffer* buffer = stream_registry_[i].load(std::memory_order_acquire);
    if (buffer == nullptr) continue;
    spill_buffer(*buffer, /*crash=*/false);
    if (!buffer->saw_exit.load(std::memory_order_relaxed)) {
      const trace::Event exit_event{
          buffer->last_ts.load(std::memory_order_relaxed), trace::kNoObject,
          trace::kNoArg, trace::EventType::ThreadExit, 0, buffer->tid};
      write_counted(buffer->tid, &exit_event, 1);
    }
  }
  // Lazy frame symbolization: resolve each distinct recorded PC exactly
  // once, here on the clean-exit path — never on the lock hot path. The
  // crash-spill handler skips this entirely (dladdr allocates and is not
  // async-signal-safe); a salvaged trace simply reports hex frames.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::set<std::uint64_t> pcs;
    for (const auto& [chain, id] : call_stack_ids_) {
      pcs.insert(chain.begin(), chain.end());
    }
    for (const std::uint64_t pc : pcs) {
      if (const std::string sym = symbolize_pc(pc); !sym.empty()) {
        sink_->write_frame_symbol(pc, sym);
      }
    }
  }
  write_stream_warnings();
  sink_->write_meta(dropped_events() + sink_->ring_retired_events(),
                    /*clean_close=*/true);
  sink_->close();
}

void Recorder::write_stream_warnings() {
  // Fixed stack array, no allocation: this also runs on the crash-spill
  // path inside fatal-signal handlers.
  trace::RuntimeWarning warnings[trace::kRuntimeWarningSlots];
  std::size_t n = 0;
  const auto add = [&](util::DiagCode code, std::uint64_t value) {
    if (value == 0 || n == trace::kRuntimeWarningSlots) return;
    warnings[n].code = static_cast<std::uint32_t>(code);
    warnings[n].value = value;
    ++n;
  };
  add(util::DiagCode::CLA_W_IO_RETRIED, sink_->io_retries());
  add(util::DiagCode::CLA_W_IO_DROPPED_EVENTS,
      io_dropped_.load(std::memory_order_relaxed));
  add(util::DiagCode::CLA_W_PARTIAL_INTERPOSITION,
      warn_partial_interpose_.load(std::memory_order_relaxed));
  add(util::DiagCode::CLA_W_FORKED_CHILD,
      warn_forks_.load(std::memory_order_relaxed));
  add(util::DiagCode::CLA_W_RING_RETIRED_EVENTS, sink_->ring_retired_events());
  add(util::DiagCode::CLA_W_RING_COMPACTION_NOOP,
      sink_->ring_compaction_noops());
  if (n > 0) sink_->write_warnings(warnings, n);
}

void Recorder::crash_spill() {
  // First caller wins; everyone else (including any racing recorder) sees
  // shutdown and drops. Deliberately lock-free and allocation-free: this
  // runs inside fatal-signal handlers.
  if (shutdown_.exchange(true, std::memory_order_seq_cst)) return;
  if (!streaming_.load(std::memory_order_acquire) || sink_ == nullptr) return;
  // Teardown write policy: single retry, no backoff stalls, no append
  // locking — a signal handler must never wait on state an interrupted
  // thread owns.
  sink_->set_teardown();

  const std::uint32_t n = stream_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (StreamBuffer* buffer =
            stream_registry_[i].load(std::memory_order_acquire)) {
      spill_buffer(*buffer, /*crash=*/true);
    }
  }
  write_stream_warnings();
  sink_->write_meta(dropped_events() + sink_->ring_retired_events(),
                    /*clean_close=*/false);
  // No close(): a concurrent flusher writev must not hit a recycled fd.
  // The kernel flushes and closes on process death either way.
}

}  // namespace cla::rt
