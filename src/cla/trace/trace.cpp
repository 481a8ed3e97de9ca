#include "cla/trace/trace.hpp"

#include <algorithm>
#include <sstream>

#include "cla/trace/validate.hpp"
#include "cla/util/diagnostics.hpp"
#include "cla/util/error.hpp"

namespace cla::trace {

std::string_view to_string(EventType type) noexcept {
  switch (type) {
    case EventType::ThreadStart: return "ThreadStart";
    case EventType::ThreadExit: return "ThreadExit";
    case EventType::ThreadCreate: return "ThreadCreate";
    case EventType::JoinBegin: return "JoinBegin";
    case EventType::JoinEnd: return "JoinEnd";
    case EventType::MutexAcquire: return "MutexAcquire";
    case EventType::MutexAcquired: return "MutexAcquired";
    case EventType::MutexReleased: return "MutexReleased";
    case EventType::BarrierArrive: return "BarrierArrive";
    case EventType::BarrierLeave: return "BarrierLeave";
    case EventType::CondWaitBegin: return "CondWaitBegin";
    case EventType::CondWaitEnd: return "CondWaitEnd";
    case EventType::CondSignal: return "CondSignal";
    case EventType::CondBroadcast: return "CondBroadcast";
    case EventType::PhaseBegin: return "PhaseBegin";
    case EventType::PhaseEnd: return "PhaseEnd";
  }
  return "Unknown";
}

void Trace::add(const Event& event) {
  if (event.tid >= threads_.size()) threads_.resize(event.tid + 1);
  threads_[event.tid].push_back(event);
}

void Trace::add_thread_stream(ThreadId tid, std::vector<Event> events) {
  if (tid >= threads_.size()) threads_.resize(tid + 1);
  auto& stream = threads_[tid];
  if (stream.empty()) {
    stream = std::move(events);
  } else {
    stream.insert(stream.end(), events.begin(), events.end());
    std::stable_sort(stream.begin(), stream.end(),
                     [](const Event& a, const Event& b) { return a.ts < b.ts; });
  }
}

void Trace::append_thread_events(ThreadId tid, std::span<const Event> events) {
  if (tid >= threads_.size()) threads_.resize(tid + 1);
  auto& stream = threads_[tid];
  stream.insert(stream.end(), events.begin(), events.end());
}

void Trace::reserve_thread_events(ThreadId tid, std::size_t count) {
  if (tid >= threads_.size()) threads_.resize(tid + 1);
  threads_[tid].reserve(threads_[tid].size() + count);
}

std::span<const Event> Trace::thread_events(ThreadId tid) const {
  CLA_CHECK(tid < threads_.size(), "thread id out of range");
  return threads_[tid];
}

std::size_t Trace::event_count() const noexcept {
  std::size_t n = 0;
  for (const auto& stream : threads_) n += stream.size();
  return n;
}

std::uint64_t Trace::start_ts() const noexcept {
  std::uint64_t ts = ~0ull;
  for (const auto& stream : threads_)
    if (!stream.empty()) ts = std::min(ts, stream.front().ts);
  return ts == ~0ull ? 0 : ts;
}

std::uint64_t Trace::end_ts() const noexcept {
  std::uint64_t ts = 0;
  for (const auto& stream : threads_)
    if (!stream.empty()) ts = std::max(ts, stream.back().ts);
  return ts;
}

const std::string* Trace::object_name(ObjectId object) const {
  auto it = tables_.object_names.find(object);
  return it == tables_.object_names.end() ? nullptr : &it->second;
}

std::string TraceTables::object_display_name(ObjectId object,
                                             std::string_view prefix) const {
  auto it = object_names.find(object);
  if (it != object_names.end()) return it->second;
  return std::string(prefix) + "@" + std::to_string(object);
}

std::string TraceTables::thread_display_name(ThreadId tid) const {
  auto it = thread_names.find(tid);
  if (it != thread_names.end()) return it->second;
  return "T" + std::to_string(tid);
}

bool TraceTables::merge(const TraceTables& later) {
  bool changed = later.dropped_events != 0;
  dropped_events += later.dropped_events;
  const auto fold = [&changed](auto& into, const auto& from) {
    for (const auto& [key, value] : from) {
      auto [it, inserted] = into.try_emplace(key, value);
      if (inserted) {
        changed = true;
      } else if (it->second != value) {
        it->second = value;
        changed = true;
      }
    }
  };
  fold(object_names, later.object_names);
  fold(thread_names, later.thread_names);
  fold(runtime_warnings, later.runtime_warnings);
  fold(call_stacks, later.call_stacks);
  fold(frame_symbols, later.frame_symbols);
  return changed;
}

void Trace::validate() const {
  util::DiagnosticSink sink;
  if (validate_trace(*this, sink)) return;
  std::string message = "trace failed validation: " +
                        std::to_string(sink.error_count()) +
                        " error-severity diagnostic(s)";
  if (const auto* first = sink.first_at_least(util::Severity::Error)) {
    message += "; first: " + first->to_string();
  }
  throw util::ValidationError(message);
}

std::string Trace::dump() const {
  std::ostringstream out;
  for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
    out << "== " << thread_display_name(tid) << " ==\n";
    for (const Event& e : threads_[tid]) {
      out << "  " << e.ts << "  " << to_string(e.type);
      if (e.object != kNoObject) out << " obj=" << e.object;
      if (e.arg != kNoArg) out << " arg=" << e.arg;
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace cla::trace
