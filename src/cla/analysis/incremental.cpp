#include "cla/analysis/incremental.hpp"

#include <algorithm>
#include <utility>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/report.hpp"
#include "cla/analysis/resolver.hpp"
#include "cla/util/error.hpp"
#include "cla/util/guard.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

IncrementalAnalyzer::IncrementalAnalyzer(Options options)
    : options_(std::move(options)) {}

IncrementalAnalyzer::~IncrementalAnalyzer() = default;

void IncrementalAnalyzer::append(const trace::Trace& chunk) {
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(chunk.thread_count()); ++tid) {
    const auto events = chunk.thread_events(tid);
    if (events.empty()) continue;
    if (tid < trace_.thread_count()) {
      const auto existing = trace_.thread_events(tid);
      CLA_CHECK(existing.empty() ||
                    events.front().ts >= existing.back().ts,
                "appended chunk rewinds a thread's timestamps");
    }
    trace_.append_thread_events(tid, events);
    dirty_ = true;
  }
  if (trace_.tables().merge(chunk.tables())) dirty_ = true;
}

const AnalysisResult& IncrementalAnalyzer::result() {
  if (dirty_ || !result_.has_value()) refresh();
  CLA_CHECK(result_.has_value(), "incremental analyzer has no trace yet");
  return *result_;
}

std::string IncrementalAnalyzer::report_json() {
  (void)result();
  JsonReportMeta meta;
  meta.has_dag = true;
  meta.dag_segments = dag_segments_;
  meta.dag_threads = dag_threads_;
  return render_json(*result_, meta);
}

void IncrementalAnalyzer::refresh() {
  try {
    extend();
  } catch (...) {
    // A breach mid-round can leave the scans ahead of the segments (or the
    // segments inside a discarded DAG): drop the carried state, so the
    // next refresh rebuilds it from the accumulated trace.
    scans_.clear();
    segments_.clear();
    throw;
  }
}

void IncrementalAnalyzer::extend() {
  CLA_CHECK(trace_.thread_count() > 0,
            "incremental analyzer has no trace yet");
  // Each refresh gets a fresh wall-clock budget from --deadline-ms (the
  // whole point of incremental analysis is that one round is small); the
  // event budget applies to the accumulated trace. A breach throws
  // ResourceLimitError out of result() — always-on callers catch it and
  // shed the window instead of dying.
  const util::Deadline deadline =
      util::Deadline::after_ms(options_.limits.deadline_ms);
  if (options_.limits.max_events != 0 &&
      trace_.event_count() > options_.limits.max_events) {
    throw util::ResourceLimitError(
        "accumulated trace exceeds the event budget: " +
        std::to_string(trace_.event_count()) + " events > max-events=" +
        std::to_string(options_.limits.max_events) +
        " (CLA_E_EVENT_BUDGET_EXCEEDED)");
  }
  if (options_.validate) trace_.validate();
  deadline.check("incremental-validate");
  const trace::TraceView view(trace_);
  const auto thread_count = static_cast<trace::ThreadId>(view.thread_count());
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(
        util::ThreadPool::resolve_num_threads(options_.execution.num_threads));
  }
  pool_->set_deadline(deadline);
  scans_.resize(thread_count);
  segments_.resize(thread_count);

  // --- the re-resolution boundary, from the *previous* round's state ---
  std::uint64_t boundary = ~static_cast<std::uint64_t>(0);
  for (const ThreadScanState& scan : scans_) {
    boundary = std::min(boundary, scan.earliest_open_ts());
  }
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    const trace::EventsView& events = view.thread_events(tid);
    if (scans_[tid].next_index() < events.size()) {
      boundary = std::min(boundary, events.ts_at(scans_[tid].next_index()));
    }
  }

  // --- resume the forward scans over the appended tail only ---
  pool_->parallel_for(thread_count, [&](std::size_t tid) {
    scans_[tid].consume(view.thread_events(static_cast<trace::ThreadId>(tid)),
                        static_cast<trace::ThreadId>(tid));
  });

  deadline.check("incremental-scan");

  // Materialize the index from the carried scans: O(records), not
  // O(events). The index only reads them and closes still-open sections on
  // its own merged records, so the scans stay resumable for the next round.
  const TraceIndex index(view, scans_, pool_.get());
  deadline.check("incremental-index");

  // --- prune retained segments past the boundary, re-resolve the tail ---
  std::uint64_t kept_total = 0;
  pool_->parallel_for(thread_count, [&](std::size_t t) {
    const auto tid = static_cast<trace::ThreadId>(t);
    const trace::EventsView& events = view.thread_events(tid);
    if (events.empty()) return;  // placeholder thread in a live tail
    std::vector<Segment>& segs = segments_[tid];
    if (segs.empty()) {
      Segment initial;
      initial.begin_idx = 0;
      initial.begin_ts = events.ts_at(0);
      initial.kind = events.type_at(0);
      initial.object = events.object_at(0);
      segs.push_back(initial);
    }
    auto keep_end = segs.begin() + 1;
    for (auto it = segs.begin() + 1; it != segs.end(); ++it) {
      if (it->begin_ts >= boundary) break;  // begin_ts ascending
      *keep_end++ = *it;
    }
    segs.erase(keep_end, segs.end());
    if (segs.front().begin_ts >= boundary) {
      segs.front().jump_to = EventRef{};  // event 0 re-resolves below
    }

    // First event index whose resolution may have changed.
    const auto n = static_cast<std::uint32_t>(events.size());
    trace::ChunkCursor cursor = view.thread_cursor(tid);
    cursor.seek_ts(boundary);
    for (std::uint32_t i = cursor.position(); i < n; ++i) {
      // Cooperative early-out; the throw happens on the main thread.
      if ((i & 0xfff) == 0 && deadline.should_stop()) return;
      if (!trace::is_wakeup(events.type_at(i))) continue;
      const Resolution r = resolve_wakeup(index, tid, i);
      if (!r.blocked || !r.releaser.valid()) continue;
      if (i == 0) {
        segs.front().jump_to = r.releaser;
        continue;
      }
      Segment s;
      s.begin_idx = i;
      s.begin_ts = events.ts_at(i);
      s.jump_to = r.releaser;
      s.kind = events.type_at(i);
      s.object = events.object_at(i);
      segs.push_back(s);
    }
  });

  deadline.check("incremental-resolve");

  rescanned_ = 0;
  std::uint64_t rescanned_hops = 0;
  for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
    kept_total += segments_[tid].size();
    for (const Segment& s : segments_[tid]) {
      // Segments at or past the boundary were (re)resolved this round.
      if (s.begin_ts >= boundary) {
        ++rescanned_;
        rescanned_hops += s.has_jump() ? 1 : 0;
      }
    }
  }
  retained_ = kept_total - rescanned_;

  // --- extend the DAG and walk it. The segment vectors move into the DAG
  // and back out after the walk. Retained segments begin before the
  // boundary and their hops point back into unchanged history, so their
  // jump_ts / jump_seg carry over: with the boundary as its watermark, the
  // hop pass resolves the re-resolved tail's hops only.
  SegmentDag dag(view, std::move(segments_), index.last_finished_thread(),
                 pool_.get(), nullptr, boundary);
  dag_segments_ = dag.segment_count();
  dag_threads_ = dag.thread_count();
  retained_hops_resolved_ = dag.resolved_hops() - rescanned_hops;
  deadline.check("incremental-builddag");
  CriticalPath path =
      compute_critical_path(dag, pool_.get(), nullptr, &walk_stats_);
  segments_ = std::move(dag).release_segments();
  deadline.check("incremental-walk");
  result_ = compute_stats(index, std::move(path), options_.stats, pool_.get());
  dirty_ = false;
}

}  // namespace cla::analysis
