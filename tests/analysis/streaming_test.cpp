// Bounded-RSS streaming engine: report parity with the unbounded
// pipeline, budget enforcement, and the pipeline routing (max_rss_mb).
#include <gtest/gtest.h>

#include "cla/analysis/pipeline.hpp"
#include "cla/analysis/report.hpp"
#include "cla/analysis/streaming.hpp"
#include "cla/trace/builder.hpp"
#include "cla/util/error.hpp"
#include "cla/util/guard.hpp"
#include "cla/util/thread_pool.hpp"
#include "cla/workloads/workload.hpp"

namespace cla::analysis {
namespace {

trace::Trace workload_trace(const char* name) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.25;
  return workloads::run_workload(name, config).trace;
}

TEST(Streaming, ReportMatchesUnboundedPipelineOnAllWorkloads) {
  for (const char* name :
       {"micro", "radiosity", "tsp", "uts", "water", "volrend", "raytrace",
        "ldap"}) {
    const trace::Trace trace = workload_trace(name);

    Pipeline reference;
    reference.use_trace(trace);
    const std::string expected = reference.report_json();

    Options bounded;
    bounded.limits.max_rss_mb = 4096;  // generous: routing, not pressure
    Pipeline pipeline(bounded);
    pipeline.use_trace(trace);
    EXPECT_EQ(pipeline.report_json(), expected) << name;
    EXPECT_GT(pipeline.streaming_peak_bytes(), 0u) << name;
  }
}

TEST(Streaming, CallsiteTraceMatchesUnboundedPipeline) {
  // Sections carry acquisition call stacks (symbolized and raw), so the
  // report has a callsite section; the bounded engine must print it too.
  trace::TraceBuilder b;
  b.name_object(1, "queue");
  b.name_object(2, "stats");
  b.thread(0)
      .start(0)
      .lock_at(1, 1, 10, 10, 400)
      .lock_at(2, 3, 410, 410, 415)
      .lock_at(1, 2, 420, 420, 460)
      .exit(500);
  b.thread(1)
      .start(0, trace::kNoThread)
      .lock_at(1, 1, 20, 400, 450)
      .lock_at(2, 3, 455, 455, 470)
      .lock_at(1, 2, 475, 475, 600)
      .exit(620);
  trace::Trace trace = b.finish_unchecked();
  trace.set_call_stack(1, {0x4000, 0x5000});
  trace.set_call_stack(2, {0x6000});
  trace.set_call_stack(3, {0x7000, 0x5000});
  trace.set_frame_symbol(0x4000, "enqueue+0x10 (demo)");
  trace.set_frame_symbol(0x5000, "main+0x44 (demo)");

  for (unsigned workers : {1u, 4u}) {
    Options unbounded;
    unbounded.execution.num_threads = workers;
    Pipeline reference(unbounded);
    reference.use_trace(trace);
    const std::string expected_json = reference.report_json();
    const std::string expected_text = reference.report();
    ASSERT_NE(expected_json.find("\"callsites\""), std::string::npos);

    Options bounded = unbounded;
    bounded.limits.max_rss_mb = 4096;
    Pipeline pipeline(bounded);
    pipeline.use_trace(trace);
    EXPECT_EQ(pipeline.report_json(), expected_json) << workers << " workers";
    EXPECT_EQ(pipeline.report(), expected_text) << workers << " workers";
  }
}

TEST(Streaming, PooledStreamingMatchesInlineStreaming) {
  const trace::Trace trace = workload_trace("tsp");
  const trace::TraceView view(trace);
  StatsOptions options;

  const StreamingOutcome inline_run =
      analyze_streaming(view, options, nullptr, 0);
  util::ThreadPool pool(4);
  const StreamingOutcome pooled = analyze_streaming(view, options, &pool, 0);

  EXPECT_EQ(render_json(inline_run.result), render_json(pooled.result));
  EXPECT_EQ(inline_run.dag_segments, pooled.dag_segments);
}

TEST(Streaming, TinyBudgetAborts) {
  const trace::Trace trace = workload_trace("radiosity");
  const trace::TraceView view(trace);
  StatsOptions options;
  EXPECT_THROW(analyze_streaming(view, options, nullptr, 1024),
               util::ResourceLimitError);
}

TEST(Streaming, PeakBytesStaysUnderTheBudget) {
  const trace::Trace trace = workload_trace("micro");
  const trace::TraceView view(trace);
  StatsOptions options;
  const StreamingOutcome out =
      analyze_streaming(view, options, nullptr, 64ull << 20);
  EXPECT_GT(out.peak_bytes, 0u);
  EXPECT_LE(out.peak_bytes, 64ull << 20);
}

}  // namespace
}  // namespace cla::analysis
