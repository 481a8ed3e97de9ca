// Parallel-analysis determinism: the sharded executor, the segment-DAG
// walk and the bounded-RSS engine must be pure performance changes. For
// every bundled workload, the pipeline at every worker count, bounded or
// not, must print a JSON report byte-identical to the test-side sequential
// walk oracle's, and the incremental analyzer fed the trace in halves must
// agree too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cla/core/cla.hpp"
#include "support/sequential_walk.hpp"
#include "cla/analysis/incremental.hpp"
#include "cla/util/rng.hpp"
#include "cla/workloads/workload.hpp"

namespace cla {
namespace {

class DeterminismTest : public testing::TestWithParam<const char*> {};

trace::Trace workload_trace(const char* name) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.25;  // keep each workload fast; structure is unchanged
  return workloads::run_workload(name, config).trace;
}

TEST_P(DeterminismTest, DagWalkIsByteIdenticalToSequentialAtAnyWorkerCount) {
  const trace::Trace trace = workload_trace(GetParam());

  // Reference: the test-side sequential walk oracle.
  const std::string expected = test_support::sequential_report_json(trace);

  for (unsigned workers : {1u, 2u, 8u}) {
    Options options;
    options.execution.num_threads = workers;
    Pipeline pipeline(options);
    pipeline.use_trace(trace);
    EXPECT_EQ(pipeline.report_json(), expected)
        << GetParam() << " with " << workers << " analysis threads";
  }
  for (unsigned workers : {1u, 4u}) {
    Options options;
    options.execution.num_threads = workers;
    options.limits.max_rss_mb = 4096;  // generous: routing, not pressure
    Pipeline pipeline(options);
    pipeline.use_trace(trace);
    EXPECT_EQ(pipeline.report_json(), expected)
        << GetParam() << " bounded with " << workers << " analysis threads";
  }
}

TEST_P(DeterminismTest, IncrementalHalvesMatchTheOneShotWalk) {
  const trace::Trace trace = workload_trace(GetParam());
  Pipeline pipeline;
  pipeline.use_trace(trace);
  const std::string expected = pipeline.report_json();

  // Split every thread's stream roughly in half, preserving names on the
  // first chunk, and feed the two chunks through the incremental DAG.
  trace::Trace first, second;
  for (const auto& [id, name] : trace.object_names()) {
    first.set_object_name(id, name);
  }
  for (const auto& [tid, name] : trace.thread_names()) {
    first.set_thread_name(tid, name);
  }
  for (trace::ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    const auto events = trace.thread_events(tid);
    const std::size_t cut = events.size() / 2;
    first.append_thread_events(tid, events.subspan(0, cut));
    second.append_thread_events(tid, events.subspan(cut));
  }

  Options inc_options;
  inc_options.validate = false;  // a half-trace has no clean thread exits
  analysis::IncrementalAnalyzer inc(inc_options);
  inc.append(first);
  (void)inc.result();  // force a mid-stream round
  inc.append(second);
  EXPECT_EQ(inc.report_json(), expected) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DeterminismTest,
                         testing::Values("micro", "radiosity", "tsp", "uts",
                                         "water", "volrend", "raytrace",
                                         "ldap"),
                         [](const auto& info) { return info.param; });

// Deterministically damages a workload trace: drops one event, regresses
// one timestamp and truncates one thread's tail, so repair has real work
// to do on every workload.
trace::Trace damage(const trace::Trace& base, util::Rng& rng) {
  trace::Trace damaged;
  for (trace::ThreadId tid = 0; tid < base.thread_count(); ++tid) {
    const auto span = base.thread_events(tid);
    std::vector<trace::Event> events(span.begin(), span.end());
    if (events.size() > 4) {
      events.erase(events.begin() +
                   static_cast<std::ptrdiff_t>(1 + rng.below(events.size() - 2)));
      events[1 + rng.below(events.size() - 2)].ts = 0;
      if (rng.chance(0.5)) {
        events.resize(2 + rng.below(events.size() - 2));
      }
    }
    damaged.add_thread_stream(tid, std::move(events));
  }
  return damaged;
}

// Repair and lenient modes must also be worker-count invariant: the
// repaired trace, the report (including the trace-health section) and the
// diagnostics JSON are byte-identical at 1, 2 and 8 analysis threads.
TEST_P(DeterminismTest, RepairModesAreWorkerCountInvariant) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.25;
  const trace::Trace base = workloads::run_workload(GetParam(), config).trace;
  util::Rng rng(0xde7e12u ^ std::string(GetParam()).size());
  const trace::Trace damaged = damage(base, rng);

  for (const util::Strictness mode :
       {util::Strictness::Repair, util::Strictness::Lenient}) {
    std::string expected_report;
    std::string expected_json;
    for (unsigned workers : {1u, 2u, 8u}) {
      Options options;
      options.strictness = mode;
      options.execution.num_threads = workers;
      Pipeline pipeline(options);
      pipeline.use_trace(damaged);
      const std::string report = pipeline.report();
      const std::string json = pipeline.diagnostics_json();
      if (workers == 1u) {
        expected_report = report;
        expected_json = json;
        EXPECT_NE(report.find("--- trace health ---"), std::string::npos)
            << GetParam() << ": damage() produced no diagnostics";
      } else {
        EXPECT_EQ(report, expected_report)
            << GetParam() << " " << util::to_string(mode) << " with "
            << workers << " analysis threads";
        EXPECT_EQ(json, expected_json)
            << GetParam() << " " << util::to_string(mode) << " with "
            << workers << " analysis threads";
      }
    }
  }
}

}  // namespace
}  // namespace cla
