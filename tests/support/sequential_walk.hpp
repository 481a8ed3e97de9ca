// Test oracle: the paper's event-by-event backward walk (Fig. 2).
//
// The library builds the critical path from the segment DAG
// (segment_dag.hpp + the DAG overload of compute_critical_path). This
// oracle is the walk as the paper states it, kept next to the tests as
// the independent reference the DAG walk is checked against: start at the
// last event of the last-finishing thread, scan each thread's events
// backwards, and whenever a wake-up actually blocked (resolve_wakeup)
// record the stretch walked on this thread and continue at the releasing
// event. It shares only the resolution rules with the library.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/index.hpp"
#include "cla/analysis/report.hpp"
#include "cla/analysis/resolver.hpp"
#include "cla/analysis/segment_dag.hpp"
#include "cla/analysis/stats.hpp"
#include "cla/trace/trace.hpp"

namespace cla::test_support {

/// The critical path of an indexed, valid trace by the sequential walk.
inline analysis::CriticalPath sequential_walk(
    const analysis::TraceIndex& index) {
  using analysis::EventRef;
  using analysis::PathInterval;
  using analysis::PathJump;

  const trace::TraceView& t = index.view();
  analysis::CriticalPath path;
  path.last_thread = index.last_finished_thread();

  trace::ThreadId tid = path.last_thread;
  trace::EventsView events = t.thread_events(tid);
  auto idx = static_cast<std::uint32_t>(events.size() - 1);
  std::uint64_t cur_time = events.ts_at(idx);
  path.end_ts = cur_time;

  // Guards termination on malformed traces whose releaser relation has a
  // cycle (impossible for a consistent happens-before order): a wake-up
  // is jumped from at most once, later visits keep scanning backwards.
  std::set<EventRef> jumped_from;
  for (;;) {
    const trace::EventType type = events.type_at(idx);
    const std::uint64_t ts = events.ts_at(idx);
    const EventRef here{tid, idx};
    if (trace::is_wakeup(type) && !jumped_from.contains(here)) {
      const analysis::Resolution r = analysis::resolve_wakeup(index, tid, idx);
      if (r.blocked && r.releaser.valid()) {
        jumped_from.insert(here);
        if (cur_time > ts) path.intervals.push_back({tid, ts, cur_time});
        path.jumps.push_back(
            PathJump{here, r.releaser, type, events.object_at(idx)});
        tid = r.releaser.tid;
        events = t.thread_events(tid);
        idx = r.releaser.index;
        cur_time = std::min({cur_time, ts, events.ts_at(idx)});
        // A releasing event is never a wake-up, so scanning resumes below
        // it — unless it is the thread's first event (the walk then
        // processes that ThreadStart).
        if (idx > 0) --idx;
        continue;
      }
    }
    if (idx == 0) {
      // The thread's ThreadStart with no (further) releaser: the
      // beginning of the execution.
      if (cur_time > ts) path.intervals.push_back({tid, ts, cur_time});
      path.start_ts = ts;
      break;
    }
    --idx;
  }

  // Chronological order, then per-thread sorted and merged intervals.
  std::reverse(path.intervals.begin(), path.intervals.end());
  std::reverse(path.jumps.begin(), path.jumps.end());
  path.per_thread.resize(t.thread_count());
  for (const PathInterval& iv : path.intervals) {
    path.per_thread[iv.tid].push_back(iv);
  }
  for (auto& ivs : path.per_thread) {
    std::sort(ivs.begin(), ivs.end(),
              [](const PathInterval& a, const PathInterval& b) {
                return a.begin_ts < b.begin_ts;
              });
    std::vector<PathInterval> merged;
    for (const PathInterval& iv : ivs) {
      if (!merged.empty() && iv.begin_ts <= merged.back().end_ts) {
        merged.back().end_ts = std::max(merged.back().end_ts, iv.end_ts);
      } else {
        merged.push_back(iv);
      }
    }
    ivs = std::move(merged);
  }
  return path;
}

/// The JSON report of a valid trace with the sequential walk as its path:
/// what Pipeline::report_json() must print at any worker count, bounded
/// or not. The "dag" block carries the segment DAG's counts, which
/// are structural (the walk does not change them).
inline std::string sequential_report_json(
    const trace::Trace& trace, const analysis::StatsOptions& options = {}) {
  const analysis::TraceIndex index(trace);
  const analysis::AnalysisResult result =
      analysis::compute_stats(index, sequential_walk(index), options);
  const analysis::SegmentDag dag = analysis::SegmentDag::build(index, nullptr);
  analysis::JsonReportMeta meta;
  meta.has_dag = true;
  meta.dag_segments = dag.segment_count();
  meta.dag_threads = dag.thread_count();
  return analysis::render_json(result, meta);
}

/// Asserts that two critical paths agree exactly: endpoints, intervals,
/// jumps and the per-thread merged intervals.
inline void expect_same_path(const analysis::CriticalPath& a,
                             const analysis::CriticalPath& b,
                             const char* label) {
  EXPECT_EQ(a.start_ts, b.start_ts) << label;
  EXPECT_EQ(a.end_ts, b.end_ts) << label;
  EXPECT_EQ(a.last_thread, b.last_thread) << label;
  ASSERT_EQ(a.intervals.size(), b.intervals.size()) << label;
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].tid, b.intervals[i].tid) << label << " #" << i;
    EXPECT_EQ(a.intervals[i].begin_ts, b.intervals[i].begin_ts)
        << label << " #" << i;
    EXPECT_EQ(a.intervals[i].end_ts, b.intervals[i].end_ts)
        << label << " #" << i;
  }
  ASSERT_EQ(a.jumps.size(), b.jumps.size()) << label;
  for (std::size_t i = 0; i < a.jumps.size(); ++i) {
    EXPECT_EQ(a.jumps[i].from, b.jumps[i].from) << label << " #" << i;
    EXPECT_EQ(a.jumps[i].to, b.jumps[i].to) << label << " #" << i;
    EXPECT_EQ(a.jumps[i].kind, b.jumps[i].kind) << label << " #" << i;
    EXPECT_EQ(a.jumps[i].object, b.jumps[i].object) << label << " #" << i;
  }
  ASSERT_EQ(a.per_thread.size(), b.per_thread.size()) << label;
  for (std::size_t t = 0; t < a.per_thread.size(); ++t) {
    ASSERT_EQ(a.per_thread[t].size(), b.per_thread[t].size())
        << label << " tid " << t;
    for (std::size_t i = 0; i < a.per_thread[t].size(); ++i) {
      EXPECT_EQ(a.per_thread[t][i].begin_ts, b.per_thread[t][i].begin_ts)
          << label << " tid " << t << " #" << i;
      EXPECT_EQ(a.per_thread[t][i].end_ts, b.per_thread[t][i].end_ts)
          << label << " tid " << t << " #" << i;
    }
  }
}

}  // namespace cla::test_support
