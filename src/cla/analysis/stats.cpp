#include "cla/analysis/stats.hpp"

#include <algorithm>
#include <cstdio>

#include "cla/util/stats.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

using util::safe_ratio;

const LockStats* AnalysisResult::find_lock(const std::string& lock_name) const {
  for (const auto& ls : locks)
    if (ls.name == lock_name) return &ls;
  return nullptr;
}

AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options) {
  return compute_stats(index, std::move(path), options, nullptr);
}

AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options,
                             util::ThreadPool* pool) {
  const trace::TraceView& t = index.view();
  StatsTally tally;
  tally.threads.reserve(t.thread_count());
  for (trace::ThreadId tid = 0; tid < t.thread_count(); ++tid) {
    const ThreadInfo& info = index.threads()[tid];
    tally.threads.push_back({info.duration(), info.sync_ops});
  }

  // One task per lock: the path overlap of every section is the costly
  // part. The slots are inserted up front, so each task writes only its
  // own map value.
  std::vector<std::pair<const MutexIndex*, PerThread<LockThreadTally>*>> locks;
  for (const auto& [id, mi] : index.mutexes()) {
    locks.emplace_back(&mi, &tally.locks[id]);
  }
  const auto tally_lock = [&](std::size_t k) {
    std::vector<LockThreadTally> by_thread(t.thread_count());
    for (const CsRecord& cs : locks[k].first->sections) {
      tally_section(by_thread[cs.tid], cs,
                    path.overlap(cs.tid, cs.acquired_ts, cs.released_ts));
    }
    for (trace::ThreadId tid = 0; tid < by_thread.size(); ++tid) {
      if (by_thread[tid].sections.invocations == 0) continue;
      locks[k].second->emplace_back(tid, std::move(by_thread[tid]));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(locks.size(), tally_lock);
  } else {
    for (std::size_t k = 0; k < locks.size(); ++k) tally_lock(k);
  }

  for (const auto& [id, bi] : index.barriers()) {
    std::vector<WaitTally> by_thread(t.thread_count());
    for (const BarrierWaitRecord& w : bi.waits) {
      ++by_thread[w.tid].waits;
      by_thread[w.tid].wait += w.leave_ts - w.arrive_ts;
    }
    StatsTally::Barrier& out = tally.barriers[id];
    out.episodes = bi.episodes.size();
    for (trace::ThreadId tid = 0; tid < by_thread.size(); ++tid) {
      if (by_thread[tid].waits == 0) continue;
      out.threads.emplace_back(tid, by_thread[tid]);
    }
  }

  for (const auto& [id, ci] : index.conds()) {
    StatsTally::Cond& out = tally.conds[id];
    out.waits.waits = ci.waits.size();
    for (const CondWaitRecord& w : ci.waits) {
      out.waits.wait += w.end_ts - w.begin_ts;
    }
    out.signals = ci.signals.size();
  }
  return assemble_stats(t, tally, std::move(path), options);
}

CsTally& CsTally::operator+=(const CsTally& other) noexcept {
  invocations += other.invocations;
  contended += other.contended;
  wait += other.wait;
  hold += other.hold;
  cp_invocations += other.cp_invocations;
  cp_contended += other.cp_contended;
  cp_hold += other.cp_hold;
  return *this;
}

void tally_section(LockThreadTally& tally, const CsRecord& cs,
                   std::uint64_t on_path) {
  CsTally one;
  one.invocations = 1;
  one.contended = cs.contended ? 1 : 0;
  one.wait = cs.wait_time();
  one.hold = cs.hold_time();
  if (on_path > 0) {
    one.cp_invocations = 1;
    one.cp_contended = one.contended;
    one.cp_hold = on_path;
  }
  tally.sections += one;
  if (cs.stack_id != 0) tally.callsites[cs.stack_id] += one;
}

namespace {

/// Symbolized frames of call stack `stack_id`, innermost first: names from
/// the trace's symbol table, raw hex PCs where it has none (crash spills).
std::vector<std::string> callsite_frames(const trace::TraceView& view,
                                         std::uint64_t stack_id) {
  std::vector<std::string> frames;
  const auto stack = view.call_stacks().find(stack_id);
  if (stack == view.call_stacks().end()) return frames;
  const auto& symbols = view.frame_symbols();
  frames.reserve(stack->second.size());
  for (std::uint64_t pc : stack->second) {
    if (auto sym = symbols.find(pc); sym != symbols.end()) {
      frames.push_back(sym->second);
    } else {
      char buf[2 + 16 + 1];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(pc));
      frames.emplace_back(buf);
    }
  }
  return frames;
}

}  // namespace

AnalysisResult assemble_stats(const trace::TraceView& view,
                              const StatsTally& tally, CriticalPath path,
                              const StatsOptions& options) {
  AnalysisResult result;
  result.completion_time = path.length();

  // --- thread stats & the TYPE 2 averaging denominator ---
  const std::size_t thread_count = tally.threads.size();
  std::vector<bool> is_worker(thread_count, false);
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    ThreadStats ts;
    ts.tid = tid;
    ts.name = view.thread_display_name(tid);
    ts.duration = tally.threads[tid].duration;
    ts.cp_time = path.thread_time(tid);
    ts.sync_ops = tally.threads[tid].sync_ops;
    result.threads.push_back(std::move(ts));
    is_worker[tid] =
        !options.worker_threads_only || tally.threads[tid].sync_ops > 0;
  }
  std::size_t workers = 0;
  for (bool w : is_worker) workers += w ? 1 : 0;
  if (workers == 0) {  // degenerate trace: average over everything
    std::fill(is_worker.begin(), is_worker.end(), true);
    workers = thread_count;
  }
  result.worker_threads = workers;
  const auto worker_count = static_cast<double>(workers);
  const double cp_len = static_cast<double>(path.length());

  // Average over the worker threads of the fraction of each one's lifetime
  // spent in `ns(entry)`, summed in thread-id order (threads without an
  // entry add 0).
  const auto avg_fraction = [&](const auto& per_thread, const auto& ns) {
    double sum = 0.0;
    for (const auto& [tid, entry] : per_thread) {
      if (!is_worker[tid]) continue;
      sum += safe_ratio(static_cast<double>(ns(entry)),
                        static_cast<double>(tally.threads[tid].duration));
    }
    return sum / worker_count;
  };

  // --- per-lock and per-(lock, callsite) stats ---
  for (const auto& [id, per_thread] : tally.locks) {
    LockStats ls;
    ls.id = id;
    ls.name = view.object_display_name(id, "mutex");
    CsTally total;
    std::map<std::uint64_t, CsTally> callsites;
    for (const auto& [tid, entry] : per_thread) {
      total += entry.sections;
      result.threads[tid].lock_wait_time += entry.sections.wait;
      result.threads[tid].lock_hold_time += entry.sections.hold;
      for (const auto& [stack_id, cs] : entry.callsites) {
        callsites[stack_id] += cs;
      }
    }
    ls.invocations = total.invocations;
    ls.contended = total.contended;
    ls.total_wait = total.wait;
    ls.total_hold = total.hold;
    ls.cp_invocations = total.cp_invocations;
    ls.cp_contended = total.cp_contended;
    ls.cp_hold_time = total.cp_hold;
    ls.avg_wait_fraction = avg_fraction(
        per_thread, [](const LockThreadTally& e) { return e.sections.wait; });
    ls.avg_hold_fraction = avg_fraction(
        per_thread, [](const LockThreadTally& e) { return e.sections.hold; });
    ls.avg_invocations = static_cast<double>(ls.invocations) / worker_count;
    ls.avg_contention_prob =
        safe_ratio(static_cast<double>(ls.contended),
                   static_cast<double>(ls.invocations));
    ls.cp_time_fraction =
        safe_ratio(static_cast<double>(ls.cp_hold_time), cp_len);
    ls.cp_contention_prob =
        safe_ratio(static_cast<double>(ls.cp_contended),
                   static_cast<double>(ls.cp_invocations));
    ls.invocation_increase =
        safe_ratio(static_cast<double>(ls.cp_invocations), ls.avg_invocations);
    ls.hold_increase = safe_ratio(ls.cp_time_fraction, ls.avg_hold_fraction);

    for (const auto& [stack_id, cs] : callsites) {
      CallsiteStats g;
      g.lock_id = id;
      g.lock_name = ls.name;
      g.stack_id = stack_id;
      g.cp_hold_time = cs.cp_hold;
      g.cp_invocations = cs.cp_invocations;
      g.cp_contended = cs.cp_contended;
      g.cp_time_fraction = safe_ratio(static_cast<double>(cs.cp_hold), cp_len);
      g.invocations = cs.invocations;
      g.contended = cs.contended;
      g.total_wait = cs.wait;
      g.total_hold = cs.hold;
      g.frames = callsite_frames(view, stack_id);
      result.callsites.push_back(std::move(g));
    }
    result.locks.push_back(std::move(ls));
  }
  std::sort(result.locks.begin(), result.locks.end(),
            [](const LockStats& a, const LockStats& b) {
              if (a.cp_hold_time != b.cp_hold_time)
                return a.cp_hold_time > b.cp_hold_time;
              if (a.total_wait != b.total_wait) return a.total_wait > b.total_wait;
              return a.name < b.name;
            });
  std::sort(result.callsites.begin(), result.callsites.end(),
            [](const CallsiteStats& a, const CallsiteStats& b) {
              if (a.cp_hold_time != b.cp_hold_time)
                return a.cp_hold_time > b.cp_hold_time;
              if (a.total_wait != b.total_wait) return a.total_wait > b.total_wait;
              if (a.lock_name != b.lock_name) return a.lock_name < b.lock_name;
              return a.stack_id < b.stack_id;
            });

  // --- barrier and condvar stats ---
  for (const auto& [id, bt] : tally.barriers) {
    BarrierStats bs;
    bs.id = id;
    bs.name = view.object_display_name(id, "barrier");
    bs.episodes = bt.episodes;
    for (const auto& [tid, w] : bt.threads) {
      bs.waits += w.waits;
      bs.total_wait_time += w.wait;
    }
    bs.avg_wait_fraction =
        avg_fraction(bt.threads, [](const WaitTally& w) { return w.wait; });
    result.barriers.push_back(std::move(bs));
  }
  for (const auto& [id, ct] : tally.conds) {
    CondStats cs;
    cs.id = id;
    cs.name = view.object_display_name(id, "cond");
    cs.waits = ct.waits.waits;
    cs.signals = ct.signals;
    cs.total_wait_time = ct.waits.wait;
    result.conds.push_back(std::move(cs));
  }

  // --- attribute path jumps to barriers/conds ---
  for (const PathJump& jump : path.jumps) {
    if (jump.kind == trace::EventType::BarrierLeave) {
      for (auto& bs : result.barriers)
        if (bs.id == jump.object) ++bs.cp_jumps;
    } else if (jump.kind == trace::EventType::CondWaitEnd) {
      for (auto& cs : result.conds)
        if (cs.id == jump.object) ++cs.cp_jumps;
    }
  }

  result.path = std::move(path);
  return result;
}

}  // namespace cla::analysis
