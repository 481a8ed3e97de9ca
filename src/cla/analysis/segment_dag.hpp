// Segment DAG: the analysis core's compact intermediate representation.
//
// A *segment* is a maximal stretch of one thread's events between two
// consecutive blocking wake-ups: it begins either at the thread's first
// event or at a wake-up that actually blocked and has a known releaser
// (exactly the positions where the paper's backward walk jumps threads).
// Each segment stores the hop its begin event would take — precomputed
// for *every* segment, speculatively, because path membership is only
// known after the merge walk consumed the chain. The DAG therefore holds
// everything the backward critical-path construction needs, at a fraction
// of the per-event footprint: typical traces have one segment per tens to
// thousands of events.
//
// Segments are built shard-parallel straight from the trace's columns
// (one task per thread, plus a chunked hop-resolution pass), and the DAG
// is storage-agnostic — it only keeps a TraceView. See DESIGN §12.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cla/analysis/index.hpp"
#include "cla/util/guard.hpp"

namespace cla::util {
class ThreadPool;
}

namespace cla::analysis {

/// One node of the DAG. Edges: to the previous segment on the same thread
/// (implicit, local index - 1) and, when the begin event blocked, to the
/// segment containing its releaser (jump_to / jump_seg).
struct Segment {
  std::uint32_t begin_idx = 0;   ///< event index where the segment starts
  std::uint64_t begin_ts = 0;    ///< timestamp of that event
  EventRef jump_to;              ///< releaser event; invalid = no blocking hop
  std::uint64_t jump_ts = 0;     ///< timestamp of the releaser event
  std::uint32_t jump_seg = 0;    ///< local index of the segment the walk
                                 ///< lands in after the hop (the segment
                                 ///< containing jump_to.index - 1, or
                                 ///< segment 0 when the releaser is the
                                 ///< target thread's first event)
  trace::EventType kind = trace::EventType::ThreadStart;  ///< begin type
  trace::ObjectId object = trace::kNoObject;  ///< begin event's object

  bool has_jump() const noexcept { return jump_to.valid(); }
};

/// Counters from the speculative parallel walk (reported in the JSON
/// schema-2 "dag" block and by bench_analysis_core).
struct DagWalkStats {
  std::uint64_t segments = 0;           ///< nodes in the DAG
  std::uint64_t jumps_taken = 0;        ///< hops the merge walk consumed
  std::uint64_t speculation_misses = 0; ///< precomputed hops never consumed
  std::uint64_t merge_steps = 0;        ///< merge-walk iterations
};

/// The segment DAG of one trace. Immutable once built; cheap to copy is a
/// non-goal (it owns the per-thread segment vectors).
class SegmentDag {
 public:
  SegmentDag() = default;

  /// Builds the DAG from an index: one shard per thread scans that
  /// thread's type column for blocking wake-ups (via resolve_wakeup), then
  /// a chunked pass resolves every hop's landing segment. A null pool (or
  /// a pool of size 1) runs inline; the result is bit-identical either
  /// way. A non-null deadline is polled periodically.
  static SegmentDag build(const TraceIndex& index, util::ThreadPool* pool,
                          const util::Deadline* deadline = nullptr);

  /// Assembles a DAG from externally built per-thread segment vectors
  /// (each sorted by begin_idx) — the incremental and bounded-RSS engines
  /// construct segments themselves and only need the hop-resolution pass.
  /// `last_thread` is the walk's start thread.
  ///
  /// Segments beginning before `hop_watermark` (a timestamp) keep the
  /// jump_ts / jump_seg they carry: the incremental engine's retained
  /// history, resolved in an earlier round. Only a kept hop that lands at
  /// or past the watermark on its target thread — where that thread's
  /// segments may have changed — is resolved again. Watermark 0 resolves
  /// every hop.
  SegmentDag(trace::TraceView view,
             std::vector<std::vector<Segment>> threads,
             trace::ThreadId last_thread, util::ThreadPool* pool,
             const util::Deadline* deadline = nullptr,
             std::uint64_t hop_watermark = 0);

  /// Moves the per-thread segment vectors out (the DAG is left empty), so
  /// a caller that extends them round by round never copies them.
  std::vector<std::vector<Segment>> release_segments() && {
    return std::move(threads_);
  }

  const trace::TraceView& view() const noexcept { return view_; }
  std::size_t thread_count() const noexcept { return threads_.size(); }
  const std::vector<Segment>& thread_segments(trace::ThreadId tid) const;
  std::size_t segment_count() const noexcept { return total_; }
  trace::ThreadId last_finished_thread() const noexcept { return last_thread_; }

  /// Local index of the segment of `tid` containing event `idx`.
  std::uint32_t segment_at(trace::ThreadId tid, std::uint32_t idx) const;

  /// Hops whose landing the hop pass resolved (all of them at watermark
  /// 0; see the constructor).
  std::uint64_t resolved_hops() const noexcept { return resolved_hops_; }

  /// Global node id (bitset index) of segment `local` of `tid`.
  std::size_t global_id(trace::ThreadId tid, std::uint32_t local) const {
    return offsets_[tid] + local;
  }

 private:
  void resolve_hops(util::ThreadPool* pool, const util::Deadline* deadline,
                    std::uint64_t watermark);
  void finish(util::ThreadPool* pool, const util::Deadline* deadline,
              std::uint64_t watermark);

  trace::TraceView view_;
  std::vector<std::vector<Segment>> threads_;
  std::vector<std::size_t> offsets_;  ///< prefix sums of per-thread counts
  trace::ThreadId last_thread_ = 0;
  std::size_t total_ = 0;
  std::uint64_t resolved_hops_ = 0;
};

}  // namespace cla::analysis
