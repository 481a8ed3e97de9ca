#include "cla/analysis/index.hpp"

#include <algorithm>
#include <span>

#include "cla/util/error.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

namespace {

using trace::Event;
using trace::EventType;

constexpr std::uint64_t kUnreleased = ThreadScanState::kUnreleasedTs;

bool is_sync_op(EventType type) noexcept {
  switch (type) {
    case EventType::MutexAcquire:
    case EventType::MutexAcquired:
    case EventType::MutexReleased:
    case EventType::BarrierArrive:
    case EventType::BarrierLeave:
    case EventType::CondWaitBegin:
    case EventType::CondWaitEnd:
    case EventType::CondSignal:
    case EventType::CondBroadcast:
      return true;
    default:
      return false;
  }
}

}  // namespace

void ThreadScanState::consume(const trace::EventsView& events,
                              trace::ThreadId tid) {
  consume(events, tid, static_cast<std::uint32_t>(events.size()));
}

void ThreadScanState::consume(const trace::EventsView& events,
                              trace::ThreadId tid, std::uint32_t limit) {
  // Empty streams are legal mid-tail: a live trace can surface tid N's
  // first chunk before tid N-1's, leaving a placeholder thread with no
  // events yet. Its scan stays at the default (zero) info.
  if (events.empty()) return;
  CLA_CHECK(limit <= events.size(), "scan limit beyond the event stream");
  if (limit <= next_) return;
  if (next_ == 0) {
    info.start_ts = events.front().ts;
    if (events.front().type == EventType::ThreadStart &&
        events.front().object != trace::kNoObject) {
      info.parent = static_cast<trace::ThreadId>(events.front().object);
    }
  }
  info.exit_ts = events.ts_at(limit - 1);
  info.exit_idx = limit - 1;

  for (std::uint32_t i = next_; i < limit; ++i) {
    const Event e = events[i];
    if (is_sync_op(e.type)) ++info.sync_ops;
    switch (e.type) {
      case EventType::ThreadCreate:
        creates.emplace_back(static_cast<trace::ThreadId>(e.object),
                             EventRef{tid, i});
        break;
      case EventType::MutexAcquire: {
        auto& p = pending_cs_[e.object];
        if (!p.open) {  // ignore recursive re-acquire of a held lock
          // arg carries the acquisition call-stack id when the trace was
          // recorded with callsite capture (0 / kNoArg = none).
          const std::uint64_t sid = e.arg != trace::kNoArg ? e.arg : 0;
          p = PendingCs{i, e.ts, sid, true};
        }
        break;
      }
      case EventType::MutexAcquired: {
        auto& p = pending_cs_[e.object];
        if (p.open) {
          CsRecord cs;
          cs.tid = tid;
          cs.acquire_idx = p.acquire_idx;
          cs.acquired_idx = i;
          cs.acquire_ts = p.acquire_ts;
          cs.acquired_ts = e.ts;
          cs.released_ts = kUnreleasedTs;  // filled on MutexReleased
          cs.stack_id = p.stack_id;
          cs.contended = (e.arg != trace::kNoArg) && (e.arg & 1);
          sections[e.object].push_back(cs);
          p.open = false;
        }
        break;
      }
      case EventType::MutexReleased: {
        // This thread scans its events in order and its sections append in
        // acquisition order, so its open section is the rearmost one.
        auto& secs = sections[e.object];
        for (auto it = secs.rbegin(); it != secs.rend(); ++it) {
          if (it->released_ts == kUnreleasedTs) {
            it->released_idx = i;
            it->released_ts = e.ts;
            break;
          }
        }
        break;
      }
      case EventType::BarrierArrive: {
        auto& p = pending_barrier_[e.object];
        p.arrive_idx = i;
        p.arrive_ts = e.ts;
        p.recorded_episode = e.arg;
        p.open = true;
        break;
      }
      case EventType::BarrierLeave: {
        auto& p = pending_barrier_[e.object];
        if (p.open) {
          BarrierWaitRecord w;
          w.tid = tid;
          w.arrive_idx = p.arrive_idx;
          w.leave_idx = i;
          w.arrive_ts = p.arrive_ts;
          w.leave_ts = e.ts;
          // An episode recorded by the producer is preferred, but it is
          // untrusted input: an absurd value (corrupt trace) falls back
          // to the per-thread wait ordinal, which is always coherent.
          w.episode = p.recorded_episode != trace::kNoArg &&
                              p.recorded_episode <= (1u << 24)
                          ? static_cast<std::uint32_t>(p.recorded_episode)
                          : p.ordinal;
          barrier_waits[e.object].push_back(w);
          ++p.ordinal;
          p.open = false;
        }
        break;
      }
      case EventType::CondWaitBegin: {
        pending_cond_ = PendingCond{i, e.ts, true};
        pending_cond_id_ = e.object;
        break;
      }
      case EventType::CondWaitEnd: {
        if (pending_cond_.open && pending_cond_id_ == e.object) {
          CondWaitRecord w;
          w.tid = tid;
          w.begin_idx = pending_cond_.begin_idx;
          w.end_idx = i;
          w.begin_ts = pending_cond_.begin_ts;
          w.end_ts = e.ts;
          cond_waits[e.object].push_back(w);
          pending_cond_.open = false;
        }
        break;
      }
      case EventType::CondSignal:
      case EventType::CondBroadcast: {
        signals[e.object].push_back(CondSignalRecord{
            tid, i, e.ts, e.type == EventType::CondBroadcast});
        break;
      }
      default:
        break;
    }
  }
  next_ = limit;
}

std::uint64_t ThreadScanState::earliest_open_ts() const noexcept {
  std::uint64_t earliest = ~static_cast<std::uint64_t>(0);
  for (const auto& [object, secs] : sections) {
    (void)object;
    for (const auto& cs : secs) {
      if (cs.released_ts == kUnreleasedTs && cs.acquire_ts < earliest) {
        earliest = cs.acquire_ts;
      }
    }
  }
  // A pending acquire/arrive/wait-begin with no completing event yet can
  // still complete in a later round, changing resolutions from its start.
  for (const auto& [object, p] : pending_cs_) {
    (void)object;
    if (p.open && p.acquire_ts < earliest) earliest = p.acquire_ts;
  }
  for (const auto& [object, p] : pending_barrier_) {
    (void)object;
    if (p.open && p.arrive_ts < earliest) earliest = p.arrive_ts;
  }
  if (pending_cond_.open && pending_cond_.begin_ts < earliest) {
    earliest = pending_cond_.begin_ts;
  }
  return earliest;
}

TraceIndex::TraceIndex(const trace::Trace& t) : TraceIndex(t, nullptr) {}

TraceIndex::TraceIndex(const trace::TraceView& v)
    : TraceIndex(v, nullptr) {}

TraceIndex::TraceIndex(const trace::Trace& t, util::ThreadPool* pool)
    : TraceIndex(trace::TraceView(t), pool) {}

TraceIndex::TraceIndex(const trace::TraceView& v, util::ThreadPool* pool)
    : view_(v) {
  const trace::TraceView& t = view_;
  const auto thread_count = static_cast<trace::ThreadId>(t.thread_count());

  // --- per-thread scans: the O(events) part, fanned out across the pool.
  // Slot tid is written only by iteration tid, so scheduling order cannot
  // affect the result.
  std::vector<ThreadScanState> scans(thread_count);
  const auto scan_one = [&](std::size_t tid) {
    scans[tid].consume(t.thread_events(static_cast<trace::ThreadId>(tid)),
                       static_cast<trace::ThreadId>(tid));
  };
  if (pool != nullptr) {
    pool->parallel_for(thread_count, scan_one);
  } else {
    for (trace::ThreadId tid = 0; tid < thread_count; ++tid) scan_one(tid);
  }
  assemble(scans, pool);
}

TraceIndex::TraceIndex(const trace::TraceView& v,
                       const std::vector<ThreadScanState>& scans,
                       util::ThreadPool* pool)
    : view_(v) {
  CLA_CHECK(scans.size() == view_.thread_count(),
            "scan states do not cover the trace's threads");
  for (trace::ThreadId tid = 0; tid < scans.size(); ++tid) {
    CLA_CHECK(scans[tid].next_index() <= view_.thread_events(tid).size(),
              "scan state runs past the trace's events");
  }
  assemble(scans, pool);
}

namespace {

bool by_acquired_ts(const CsRecord& a, const CsRecord& b) noexcept {
  return a.acquired_ts < b.acquired_ts;
}

/// Stable k-way merge of runs that are each sorted by acquired_ts. Equal
/// keys leave in run order (runs are gathered in thread-id order, so the
/// lower thread wins), then in order within their run — exactly the order
/// std::stable_sort gives the runs' concatenation.
void merge_runs(const std::vector<std::span<const CsRecord>>& runs,
                std::vector<CsRecord>& out) {
  struct Head {
    std::uint64_t ts;
    std::uint32_t run;
    std::uint32_t pos;
  };
  const auto later = [](const Head& a, const Head& b) {
    return a.ts != b.ts ? a.ts > b.ts : a.run > b.run;
  };
  std::vector<Head> heap;
  heap.reserve(runs.size());
  for (std::uint32_t r = 0; r < runs.size(); ++r) {
    heap.push_back(Head{runs[r].front().acquired_ts, r, 0});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head& head = heap.back();
    const std::span<const CsRecord> run = runs[head.run];
    out.push_back(run[head.pos]);
    if (++head.pos < run.size()) {
      head.ts = run[head.pos].acquired_ts;
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
}

/// Pointers to a map's values, so a parallel_for can address them by k.
template <typename Map>
std::vector<typename Map::mapped_type*> values_of(Map& map) {
  std::vector<typename Map::mapped_type*> out;
  out.reserve(map.size());
  for (auto& [key, value] : map) {
    (void)key;
    out.push_back(&value);
  }
  return out;
}

}  // namespace

void TraceIndex::assemble(const std::vector<ThreadScanState>& scans,
                          util::ThreadPool* pool) {
  const trace::TraceView& t = view_;
  const auto thread_count = static_cast<trace::ThreadId>(t.thread_count());
  const auto run = [pool](std::size_t n, const auto& fn) {
    if (pool != nullptr) {
      pool->parallel_for(n, fn);
    } else {
      for (std::size_t k = 0; k < n; ++k) fn(k);
    }
  };

  // --- thread facts and the set of primitives, in thread-id order. This
  // is O(threads x objects); the records themselves move below.
  threads_.resize(thread_count);
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    const ThreadScanState& scan = scans[tid];
    threads_[tid] = scan.info;
    for (const auto& [child, ref] : scan.creates) creates_[child] = ref;
    for (const auto& [object, secs] : scan.sections) {
      (void)secs;
      mutexes_[object].id = object;
    }
    for (const auto& [object, waits] : scan.barrier_waits) {
      (void)waits;
      barriers_[object].id = object;
    }
    for (const auto& [object, waits] : scan.cond_waits) {
      (void)waits;
      conds_[object].id = object;
    }
    for (const auto& [object, sigs] : scan.signals) {
      (void)sigs;
      conds_[object].id = object;
    }
  }

  // --- the position column: one slot per event, npos32 until a record
  // claims it. Slot tid is written only by iteration tid.
  positions_.resize(thread_count);
  run(thread_count, [&](std::size_t tid) {
    positions_[tid].assign(
        t.thread_events(static_cast<trace::ThreadId>(tid)).size(), npos32);
  });

  // --- per-primitive gather + post-processing. Each task reads the scans
  // (shared, read-only) and writes only its own primitive's records and
  // the position slots of those records' events; every event belongs to
  // at most one record, so the slot writes are disjoint.
  const auto claim = [this](trace::ThreadId tid, std::uint32_t idx,
                            std::size_t pos) {
    positions_[tid][idx] = static_cast<std::uint32_t>(pos);
  };

  const std::vector<MutexIndex*> mutex_list = values_of(mutexes_);
  const auto build_mutex = [&](std::size_t k) {
    MutexIndex& mi = *mutex_list[k];
    std::vector<std::span<const CsRecord>> runs;
    std::size_t total = 0;
    bool sorted = true;
    for (const ThreadScanState& scan : scans) {
      const auto it = scan.sections.find(mi.id);
      if (it == scan.sections.end() || it->second.empty()) continue;
      runs.emplace_back(it->second);
      total += it->second.size();
      sorted = sorted && std::is_sorted(it->second.begin(), it->second.end(),
                                        by_acquired_ts);
    }
    mi.sections.reserve(total);
    if (sorted) {
      merge_runs(runs, mi.sections);
    } else {
      // A thread's sections are out of timestamp order (only a trace that
      // fails validation does this): fall back to sorting everything.
      for (const auto& r : runs) {
        mi.sections.insert(mi.sections.end(), r.begin(), r.end());
      }
      std::stable_sort(mi.sections.begin(), mi.sections.end(),
                       by_acquired_ts);
    }
    for (std::size_t pos = 0; pos < mi.sections.size(); ++pos) {
      CsRecord& cs = mi.sections[pos];
      // A section missing its release (thread exited holding the lock —
      // tolerated) is closed at thread exit. Done on the index's own
      // records, so a resumable caller's scans keep it open.
      if (cs.released_ts == kUnreleased) {
        cs.released_ts = threads_[cs.tid].exit_ts;
        cs.released_idx = threads_[cs.tid].exit_idx;
      }
      claim(cs.tid, cs.acquired_idx, pos);
    }
  };

  // Barrier waits gather in thread-id order; waits group into episodes,
  // each with its last arriver. Episode numbers are renumbered densely:
  // clipped traces keep the original generation counters, which need not
  // start at zero.
  const std::vector<BarrierIndex*> barrier_list = values_of(barriers_);
  const auto build_barrier = [&](std::size_t k) {
    BarrierIndex& bi = *barrier_list[k];
    for (const ThreadScanState& scan : scans) {
      const auto it = scan.barrier_waits.find(bi.id);
      if (it == scan.barrier_waits.end()) continue;
      for (const BarrierWaitRecord& w : it->second) {
        claim(w.tid, w.leave_idx, bi.waits.size());
        bi.waits.push_back(w);
      }
    }
    std::map<std::uint32_t, std::uint32_t> dense;  // recorded -> dense index
    for (auto& w : bi.waits) {
      auto [it, inserted] =
          dense.try_emplace(w.episode, static_cast<std::uint32_t>(dense.size()));
      (void)inserted;
      w.episode = it->second;
    }
    bi.episodes.resize(dense.size());
    for (std::uint32_t wi = 0; wi < bi.waits.size(); ++wi) {
      bi.episodes[bi.waits[wi].episode].waits.push_back(wi);
    }
    for (auto& ep : bi.episodes) {
      if (ep.waits.empty()) continue;
      ep.last_arriver = ep.waits.front();
      for (std::uint32_t wi : ep.waits) {
        const auto& cand = bi.waits[wi];
        const auto& best = bi.waits[ep.last_arriver];
        if (cand.arrive_ts > best.arrive_ts ||
            (cand.arrive_ts == best.arrive_ts && cand.tid < best.tid)) {
          ep.last_arriver = wi;
        }
      }
    }
  };

  // Condvar waits gather in thread-id order; signals are sorted by time
  // for binary-search matching.
  const std::vector<CondIndex*> cond_list = values_of(conds_);
  const auto build_cond = [&](std::size_t k) {
    CondIndex& ci = *cond_list[k];
    for (const ThreadScanState& scan : scans) {
      if (const auto it = scan.cond_waits.find(ci.id);
          it != scan.cond_waits.end()) {
        for (const CondWaitRecord& w : it->second) {
          claim(w.tid, w.end_idx, ci.waits.size());
          ci.waits.push_back(w);
        }
      }
      if (const auto it = scan.signals.find(ci.id); it != scan.signals.end()) {
        ci.signals.insert(ci.signals.end(), it->second.begin(),
                          it->second.end());
      }
    }
    std::stable_sort(ci.signals.begin(), ci.signals.end(),
                     [](const CondSignalRecord& a, const CondSignalRecord& b) {
                       return a.ts < b.ts;
                     });
  };

  const std::size_t n_mutexes = mutex_list.size();
  const std::size_t n_barriers = barrier_list.size();
  run(n_mutexes + n_barriers + cond_list.size(), [&](std::size_t k) {
    if (k < n_mutexes) {
      build_mutex(k);
    } else if (k < n_mutexes + n_barriers) {
      build_barrier(k - n_mutexes);
    } else {
      build_cond(k - n_mutexes - n_barriers);
    }
  });

  // Last finished thread (max exit ts, ties toward lower tid). Empty
  // placeholder threads never win: the critical-path walk starts here and
  // needs at least one event to stand on.
  last_thread_ = 0;
  bool have_last = false;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    if (t.thread_events(tid).empty()) continue;
    if (!have_last || threads_[tid].exit_ts > threads_[last_thread_].exit_ts) {
      last_thread_ = tid;
      have_last = true;
    }
  }
}

EventRef TraceIndex::create_event(trace::ThreadId child) const {
  auto it = creates_.find(child);
  return it == creates_.end() ? EventRef{} : it->second;
}

std::uint32_t TraceIndex::position_of(trace::ThreadId tid, std::uint32_t idx,
                                      trace::EventType type) const {
  if (tid >= positions_.size() || idx >= positions_[tid].size()) {
    return npos32;
  }
  if (view_.thread_events(tid).type_at(idx) != type) return npos32;
  return positions_[tid][idx];
}

std::uint32_t TraceIndex::section_of(trace::ThreadId tid,
                                     std::uint32_t acquired_idx) const {
  return position_of(tid, acquired_idx, EventType::MutexAcquired);
}

std::uint32_t TraceIndex::barrier_wait_of(trace::ThreadId tid,
                                          std::uint32_t leave_idx) const {
  return position_of(tid, leave_idx, EventType::BarrierLeave);
}

std::uint32_t TraceIndex::cond_wait_of(trace::ThreadId tid,
                                       std::uint32_t end_idx) const {
  return position_of(tid, end_idx, EventType::CondWaitEnd);
}

}  // namespace cla::analysis
