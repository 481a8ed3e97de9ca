// In-memory trace container: per-thread event streams plus side tables.
//
// This is the hand-off point of the paper's two-stage workflow (Fig. 3):
// the instrumentation module (or the simulator) produces a Trace, the
// analysis module consumes it.
#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cla/trace/event.hpp"

namespace cla::trace {

/// Everything a trace carries besides its per-thread event streams: the
/// side tables of the `.clat` format (trace_io.hpp). Trace, MappedTrace
/// and TraceStreamReader each own one; a TraceView points at one.
struct TraceTables {
  /// Names of synchronization objects (mutex, barrier, condvar) and of
  /// threads. Anonymous ones render as "mutex@<id>", "T<tid>".
  std::map<ObjectId, std::string> object_names;
  std::map<ThreadId, std::string> thread_names;
  /// Events the producing runtime had to drop at record time (buffer
  /// overrun, ring retention), from the Meta chunk. The analyzer reports
  /// them as incomplete coverage.
  std::uint64_t dropped_events = 0;
  /// Runtime warnings from the RuntimeWarnings chunk: stable
  /// cla::util::DiagCode value (CLA_W_*) -> count/value.
  std::map<std::uint32_t, std::uint64_t> runtime_warnings;
  /// Acquisition call stacks (CallStacks chunk): stack id -> return
  /// addresses, innermost first. Ids start at 1; 0 and kNoArg mean "no
  /// stack". MutexAcquire events carry the id in their `arg` field when
  /// capture was enabled.
  std::map<std::uint64_t, std::vector<std::uint64_t>> call_stacks;
  /// Frame symbols (FrameSymbols chunk): pc -> "symbol+0xoff (module)",
  /// resolved by the recording process, since raw PCs mean nothing in
  /// another address space.
  std::map<std::uint64_t, std::string> frame_symbols;

  /// Name lookups that fall back to `<prefix>@<id>` and `T<tid>`.
  std::string object_display_name(ObjectId object,
                                  std::string_view prefix) const;
  std::string thread_display_name(ThreadId tid) const;

  /// Folds in a later fragment of the same trace (live appends): map
  /// entries are last-write-wins and its dropped count adds to ours.
  /// Returns true if anything changed.
  bool merge(const TraceTables& later);

  bool operator==(const TraceTables&) const = default;
};

/// A complete execution trace of one program run.
///
/// Invariants (checked by validate()):
///  - events of each thread are sorted by timestamp (stable, non-strict);
///  - thread 0 exists and every thread has a ThreadStart as its first and
///    a ThreadExit as its last event;
///  - mutex events per (thread, mutex) follow Acquire -> Acquired ->
///    Released cycles; barrier events alternate Arrive/Leave.
class Trace {
 public:
  Trace() = default;

  /// Appends an event to its thread's stream. Events must arrive in
  /// non-decreasing timestamp order per thread (enforced by validate()).
  void add(const Event& event);

  /// Appends a whole per-thread stream (used by trace readers and the
  /// runtime flush path). Stream must be sorted by timestamp.
  void add_thread_stream(ThreadId tid, std::vector<Event> events);

  /// Appends a chunk to a thread's stream without re-sorting; chunks must
  /// arrive in timestamp order (the streaming reader's contract). Used to
  /// ingest large traces chunk by chunk without an intermediate copy.
  void append_thread_events(ThreadId tid, std::span<const Event> events);

  /// Pre-sizes a thread's stream (streaming ingestion knows the count up
  /// front from the file header, so the vector grows exactly once).
  void reserve_thread_events(ThreadId tid, std::size_t count);

  std::size_t thread_count() const noexcept { return threads_.size(); }
  std::span<const Event> thread_events(ThreadId tid) const;

  /// Total number of events across all threads.
  std::size_t event_count() const noexcept;

  /// Earliest / latest timestamp in the trace; 0 if empty.
  std::uint64_t start_ts() const noexcept;
  std::uint64_t end_ts() const noexcept;

  /// The side tables (names, drop count, warnings, call stacks, frame
  /// symbols); the accessors below are shorthands for its fields.
  const TraceTables& tables() const noexcept { return tables_; }
  TraceTables& tables() noexcept { return tables_; }

  /// Attaches a human-readable name to a synchronization object (mutex,
  /// barrier, condvar). Anonymous objects render as "mutex@<id>" etc.
  void set_object_name(ObjectId object, std::string name) {
    tables_.object_names[object] = std::move(name);
  }
  const std::string* object_name(ObjectId object) const;

  std::string object_display_name(ObjectId object,
                                  std::string_view prefix) const {
    return tables_.object_display_name(object, prefix);
  }

  void set_thread_name(ThreadId tid, std::string name) {
    tables_.thread_names[tid] = std::move(name);
  }
  std::string thread_display_name(ThreadId tid) const {
    return tables_.thread_display_name(tid);
  }

  void set_dropped_events(std::uint64_t count) noexcept {
    tables_.dropped_events = count;
  }
  std::uint64_t dropped_events() const noexcept {
    return tables_.dropped_events;
  }

  void set_runtime_warning(std::uint32_t code, std::uint64_t value) {
    tables_.runtime_warnings[code] = value;
  }
  const std::map<std::uint32_t, std::uint64_t>& runtime_warnings()
      const noexcept {
    return tables_.runtime_warnings;
  }

  const std::map<ObjectId, std::string>& object_names() const noexcept {
    return tables_.object_names;
  }
  const std::map<ThreadId, std::string>& thread_names() const noexcept {
    return tables_.thread_names;
  }

  void set_call_stack(std::uint64_t id, std::vector<std::uint64_t> pcs) {
    tables_.call_stacks[id] = std::move(pcs);
  }
  const std::vector<std::uint64_t>* call_stack(std::uint64_t id) const {
    auto it = tables_.call_stacks.find(id);
    return it == tables_.call_stacks.end() ? nullptr : &it->second;
  }
  const std::map<std::uint64_t, std::vector<std::uint64_t>>& call_stacks()
      const noexcept {
    return tables_.call_stacks;
  }

  void set_frame_symbol(std::uint64_t pc, std::string name) {
    tables_.frame_symbols[pc] = std::move(name);
  }
  const std::map<std::uint64_t, std::string>& frame_symbols() const noexcept {
    return tables_.frame_symbols;
  }

  /// Checks the structural invariants above; throws
  /// cla::util::ValidationError summarising the violations. The underlying
  /// checker (validate_trace in cla/trace/validate.hpp) reports every
  /// violation as a structured diagnostic instead of stopping at the first.
  void validate() const;

  /// Renders a human-readable dump (debugging aid; O(events) big).
  std::string dump() const;

 private:
  std::vector<std::vector<Event>> threads_;
  TraceTables tables_;
};

}  // namespace cla::trace
