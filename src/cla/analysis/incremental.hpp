// Incremental append analysis: extend the segment DAG as a trace grows.
//
// A long-running target flushes its trace in rounds; re-analyzing from
// scratch each round is O(history). The IncrementalAnalyzer instead keeps
//   - one resumable ThreadScanState per thread (the O(events) forward
//     scan never revisits an event), and
//   - the resolved per-thread segment vectors of the previous round,
//     hops included.
// On update it computes a *re-resolution boundary*: the earliest
// timestamp whose wake-up resolution could have changed, which is the
// minimum of (a) the first newly appended event's timestamp and (b) the
// start of any record still open after the previous round (an open
// critical section that closes later moves its waiters' releaser).
// The index is rebuilt from the scans, which it reads in place (no copy):
// a flat per-event position column plus a merge of the per-thread record
// runs. Segments beginning before the boundary are retained verbatim,
// including their resolved hops (jump_ts / jump_seg), since a hop points
// back in time to history that did not change; only the tail past the
// boundary is re-resolved and has its hops resolved. The segment vectors
// move into the DAG and back, never copied. The walk and the stats
// assembly then run on the extended DAG, so reports are byte-identical to
// a from-scratch cla::Pipeline over the same accumulated trace (the
// determinism suite pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cla/analysis/index.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/analysis/segment_dag.hpp"
#include "cla/analysis/stats.hpp"
#include "cla/trace/trace.hpp"

namespace cla::analysis {

class IncrementalAnalyzer {
 public:
  explicit IncrementalAnalyzer(Options options = {});
  ~IncrementalAnalyzer();

  IncrementalAnalyzer(const IncrementalAnalyzer&) = delete;
  IncrementalAnalyzer& operator=(const IncrementalAnalyzer&) = delete;

  /// Appends a chunk of trace: per-thread event spans (each sorted by
  /// timestamp and extending that thread's stream) plus its side tables,
  /// merged by TraceTables::merge. Cheap — analysis happens lazily in
  /// result().
  void append(const trace::Trace& chunk);

  /// The analysis of everything appended so far. Re-resolves only the
  /// tail past the re-resolution boundary; unchanged rounds are free.
  const AnalysisResult& result();

  /// Schema-2 JSON, byte-identical to cla::Pipeline::report_json() over
  /// the same accumulated trace.
  std::string report_json();

  /// The accumulated trace.
  const trace::Trace& trace() const noexcept { return trace_; }

  /// Observability: segments kept from the previous round vs re-resolved
  /// in the last result() refresh, and the walk's speculation counters.
  std::uint64_t retained_segments() const noexcept { return retained_; }
  std::uint64_t rescanned_segments() const noexcept { return rescanned_; }
  /// Hops of retained segments that the last refresh had to resolve
  /// again. Retained hops carry over, so this stays 0 unless a hop lands
  /// past the boundary (only a trace whose releaser is timestamped after
  /// its waiter's wake-up does that).
  std::uint64_t retained_hops_resolved() const noexcept {
    return retained_hops_resolved_;
  }
  const DagWalkStats& walk_stats() const noexcept { return walk_stats_; }

 private:
  void refresh();
  void extend();

  Options options_;
  std::unique_ptr<util::ThreadPool> pool_;
  trace::Trace trace_;
  std::vector<ThreadScanState> scans_;
  std::vector<std::vector<Segment>> segments_;
  std::optional<AnalysisResult> result_;
  DagWalkStats walk_stats_;
  std::uint64_t dag_segments_ = 0;
  std::uint64_t dag_threads_ = 0;
  std::uint64_t retained_ = 0;
  std::uint64_t rescanned_ = 0;
  std::uint64_t retained_hops_resolved_ = 0;
  bool dirty_ = false;
};

}  // namespace cla::analysis
