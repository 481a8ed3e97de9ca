// Quantitative performance metrics (paper §III.B and Table 2).
//
// TYPE 1 — new, measured along the critical path:
//   CP Time %          fraction of critical-path time spent inside the hot
//                      critical sections protected by the lock
//   Invocation # on CP number of the lock's critical sections on the path
//   Cont. Prob. on CP  fraction of those invocations that were contended
//
// TYPE 2 — prior-work statistics, averaged per thread:
//   Wait Time %        avg fraction of a thread's time spent waiting
//   Avg. Invo. #       avg invocations of the lock per thread
//   Avg. Cont. Prob %  contended / total invocations
//   Avg. Hold Time %   avg fraction of a thread's time inside the lock's
//                      critical sections
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cla/analysis/critical_path.hpp"
#include "cla/analysis/index.hpp"

namespace cla::analysis {

/// Per-lock statistics, both families.
struct LockStats {
  trace::ObjectId id = trace::kNoObject;
  std::string name;

  // --- TYPE 1 (on the critical path) ---
  std::uint64_t cp_hold_time = 0;     ///< ns of hot-CS execution on the path
  std::uint64_t cp_invocations = 0;   ///< "Invocation # on CP"
  std::uint64_t cp_contended = 0;
  double cp_time_fraction = 0.0;      ///< "CP Time %" (0..1)
  double cp_contention_prob = 0.0;    ///< "Cont. Prob. on CP %" (0..1)

  // --- TYPE 2 (per-lock, averaged per thread) ---
  std::uint64_t invocations = 0;      ///< total across all threads
  std::uint64_t contended = 0;
  std::uint64_t total_wait = 0;       ///< ns, summed across threads
  std::uint64_t total_hold = 0;       ///< ns, summed across threads
  double avg_wait_fraction = 0.0;     ///< "Wait Time %" (0..1)
  double avg_hold_fraction = 0.0;     ///< "Avg. Hold Time %" (0..1)
  double avg_invocations = 0.0;       ///< "Avg. Invo. #"
  double avg_contention_prob = 0.0;   ///< "Avg. Cont. Prob %" (0..1)

  // --- derived ("Incr. Times ..." columns of Figs. 10/11/13/14) ---
  double invocation_increase = 0.0;   ///< cp_invocations / avg_invocations
  double hold_increase = 0.0;         ///< cp_time_fraction / avg_hold_fraction

  /// A lock is critical iff any of its critical sections lies on the path.
  bool is_critical() const noexcept { return cp_invocations > 0; }
};

/// Per-(lock, acquisition callsite) statistics. Populated only when the
/// trace carries callsite capture (CsRecord::stack_id != 0); traces
/// recorded with CLA_STACK_DEPTH=0 — and every pre-callsite trace —
/// produce an empty vector.
struct CallsiteStats {
  trace::ObjectId lock_id = trace::kNoObject;
  std::string lock_name;
  std::uint64_t stack_id = 0;  ///< key into TraceView::call_stacks()

  std::uint64_t cp_hold_time = 0;    ///< ns of hot-CS execution on the path
  std::uint64_t cp_invocations = 0;
  std::uint64_t cp_contended = 0;
  double cp_time_fraction = 0.0;     ///< cp_hold_time / path length (0..1)

  std::uint64_t invocations = 0;
  std::uint64_t contended = 0;
  std::uint64_t total_wait = 0;      ///< ns, summed across threads
  std::uint64_t total_hold = 0;      ///< ns, summed across threads

  /// Symbolized acquisition frames, innermost first. Resolved from the
  /// trace's FrameSymbols table when the recording process symbolized at
  /// close; raw "0x..." program counters otherwise (e.g. crash spills).
  std::vector<std::string> frames;
};

/// Per-barrier statistics (extension; the paper reports locks only).
struct BarrierStats {
  trace::ObjectId id = trace::kNoObject;
  std::string name;
  std::uint64_t episodes = 0;
  std::uint64_t waits = 0;
  std::uint64_t total_wait_time = 0;
  double avg_wait_fraction = 0.0;   ///< avg fraction of thread time waiting
  std::uint64_t cp_jumps = 0;       ///< times the path crossed this barrier
};

/// Per-condvar statistics (extension).
struct CondStats {
  trace::ObjectId id = trace::kNoObject;
  std::string name;
  std::uint64_t waits = 0;
  std::uint64_t signals = 0;
  std::uint64_t total_wait_time = 0;
  std::uint64_t cp_jumps = 0;
};

/// Per-thread summary.
struct ThreadStats {
  trace::ThreadId tid = 0;
  std::string name;
  std::uint64_t duration = 0;
  std::uint64_t cp_time = 0;        ///< time this thread spends on the path
  std::uint64_t lock_wait_time = 0;
  std::uint64_t lock_hold_time = 0;
  std::uint64_t sync_ops = 0;
};

/// Options controlling metric aggregation.
struct StatsOptions {
  /// When true (default), per-thread TYPE 2 averages are taken over the
  /// threads that performed at least one synchronization operation; pure
  /// coordinator threads (spawn + join only) would otherwise dilute them.
  bool worker_threads_only = true;
};

/// Complete analysis output.
struct AnalysisResult {
  CriticalPath path;
  std::vector<LockStats> locks;       ///< sorted by cp_hold_time descending
  /// Per-(lock, callsite) breakdown, sorted by cp_hold_time descending;
  /// empty unless the trace carries acquisition call stacks.
  std::vector<CallsiteStats> callsites;
  std::vector<BarrierStats> barriers;
  std::vector<CondStats> conds;
  std::vector<ThreadStats> threads;
  std::uint64_t completion_time = 0;  ///< == path.length()
  std::size_t worker_threads = 0;     ///< denominator of TYPE 2 averages

  /// Lookup by display name; nullptr if absent.
  const LockStats* find_lock(const std::string& name) const;
};

/// Computes all statistics for a trace whose path was already walked.
AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options = {});

/// Pooled variant: the per-lock tallies (TYPE 2 plus the TYPE 1 path
/// overlaps) fan out across `pool`, one task per lock, each writing only
/// its own slot, so the result — including the final ranking — is
/// bit-identical to the sequential computation. A null pool (or a pool of
/// size 1) runs inline.
AnalysisResult compute_stats(const TraceIndex& index, CriticalPath path,
                             const StatsOptions& options,
                             util::ThreadPool* pool);

// --- the integer tallies every statistic derives from ---
//
// compute_stats tallies the TraceIndex's records, the bounded-RSS engine
// (streaming.hpp) tallies its per-thread rescans; assemble_stats turns
// either into an AnalysisResult, so the fractions, averages, rankings and
// attribution rules exist once.

/// A set of critical sections, with the part of them on the critical path.
struct CsTally {
  std::uint64_t invocations = 0;
  std::uint64_t contended = 0;
  std::uint64_t wait = 0;            ///< ns
  std::uint64_t hold = 0;            ///< ns
  std::uint64_t cp_invocations = 0;  ///< sections overlapping the path
  std::uint64_t cp_contended = 0;
  std::uint64_t cp_hold = 0;         ///< ns of hold time on the path

  CsTally& operator+=(const CsTally& other) noexcept;
};

/// One thread's critical sections of one lock, in total and by
/// acquisition call stack (sections without a stack id count in total
/// only).
struct LockThreadTally {
  CsTally sections;
  std::map<std::uint64_t, CsTally> callsites;  ///< by stack id
};

/// Adds critical section `cs`, of which `on_path` ns lie on the critical
/// path, to `tally`.
void tally_section(LockThreadTally& tally, const CsRecord& cs,
                   std::uint64_t on_path);

/// Completed waits at a barrier or condvar.
struct WaitTally {
  std::uint64_t waits = 0;
  std::uint64_t wait = 0;  ///< ns
};

/// Per-thread entries in ascending thread id; a thread without records of
/// the primitive has none.
template <typename T>
using PerThread = std::vector<std::pair<trace::ThreadId, T>>;

struct StatsTally {
  struct Thread {
    std::uint64_t duration = 0;
    std::uint64_t sync_ops = 0;
  };
  struct Barrier {
    std::uint64_t episodes = 0;
    PerThread<WaitTally> threads;
  };
  struct Cond {
    WaitTally waits;
    std::uint64_t signals = 0;
  };

  std::vector<Thread> threads;  ///< indexed by thread id
  std::map<trace::ObjectId, PerThread<LockThreadTally>> locks;
  std::map<trace::ObjectId, Barrier> barriers;
  std::map<trace::ObjectId, Cond> conds;
};

/// Builds the statistics from `tally`: names from `view`, TYPE 1/TYPE 2
/// fractions over the path and the worker threads, both rankings,
/// symbolized callsite frames and the barrier/condvar path crossings.
AnalysisResult assemble_stats(const trace::TraceView& view,
                              const StatsTally& tally, CriticalPath path,
                              const StatsOptions& options);

}  // namespace cla::analysis
