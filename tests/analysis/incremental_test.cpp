// Incremental append: analyzing a trace in rounds must produce the same
// bytes as one-shot analysis of the accumulated trace.
#include <gtest/gtest.h>

#include <span>

#include "cla/analysis/incremental.hpp"
#include "cla/analysis/pipeline.hpp"
#include "cla/trace/builder.hpp"
#include "cla/util/error.hpp"
#include "cla/workloads/workload.hpp"

namespace cla::analysis {
namespace {

trace::Trace workload_trace(const char* name) {
  workloads::WorkloadConfig config;
  config.threads = 8;
  config.scale = 0.25;
  return workloads::run_workload(name, config).trace;
}

/// Splits `full` into `rounds` chunks, cutting every thread's stream at
/// proportional points. Names ride on the first chunk.
std::vector<trace::Trace> split_trace(const trace::Trace& full,
                                      std::size_t rounds) {
  std::vector<trace::Trace> chunks(rounds);
  for (trace::ThreadId tid = 0;
       tid < static_cast<trace::ThreadId>(full.thread_count()); ++tid) {
    const auto events = full.thread_events(tid);
    std::size_t begin = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t end =
          r + 1 == rounds ? events.size() : events.size() * (r + 1) / rounds;
      if (end > begin) {
        chunks[r].append_thread_events(tid,
                                       events.subspan(begin, end - begin));
      }
      begin = end;
    }
  }
  for (const auto& [object, name] : full.object_names()) {
    chunks[0].set_object_name(object, name);
  }
  for (const auto& [tid, name] : full.thread_names()) {
    chunks[0].set_thread_name(tid, name);
  }
  return chunks;
}

std::string pipeline_report(const trace::Trace& trace) {
  Pipeline pipeline;
  pipeline.use_trace(trace);
  return pipeline.report_json();
}

TEST(Incremental, HalvesMatchOneShotOnAllWorkloads) {
  for (const char* name :
       {"micro", "radiosity", "tsp", "uts", "water", "volrend", "raytrace",
        "ldap"}) {
    const trace::Trace full = workload_trace(name);
    const auto chunks = split_trace(full, 2);

    Options options;
    options.validate = false;  // intermediate rounds clip mid-protocol
    IncrementalAnalyzer analyzer(options);
    analyzer.append(chunks[0]);
    (void)analyzer.result();  // analyze the half, then extend
    analyzer.append(chunks[1]);

    EXPECT_EQ(analyzer.report_json(), pipeline_report(full)) << name;
  }
}

TEST(Incremental, ManyRoundsMatchOneShot) {
  const trace::Trace full = workload_trace("tsp");
  const auto chunks = split_trace(full, 5);
  Options options;
  options.validate = false;
  IncrementalAnalyzer analyzer(options);
  for (const auto& chunk : chunks) {
    analyzer.append(chunk);
    (void)analyzer.result();  // force a refresh every round
  }
  EXPECT_EQ(analyzer.report_json(), pipeline_report(full));
}

TEST(Incremental, LaterRoundsRetainEarlierSegments) {
  const trace::Trace full = workload_trace("radiosity");
  const auto chunks = split_trace(full, 2);
  Options options;
  options.validate = false;
  IncrementalAnalyzer analyzer(options);
  analyzer.append(chunks[0]);
  (void)analyzer.result();
  analyzer.append(chunks[1]);
  (void)analyzer.result();
  // The first half is history: most of its segments must survive the
  // append untouched (the re-resolution boundary only reaches back to
  // records still open at the cut).
  EXPECT_GT(analyzer.retained_segments(), 0u);
}

TEST(Incremental, ThirtyTwoRoundsMatchPipelineAtOneAndFourWorkers) {
  const trace::Trace full = workload_trace("radiosity");
  const auto chunks = split_trace(full, 32);
  for (const unsigned workers : {1u, 4u}) {
    Options options;
    options.validate = false;
    options.execution.num_threads = workers;
    IncrementalAnalyzer analyzer(options);
    std::uint64_t retained_total = 0;
    for (const auto& chunk : chunks) {
      analyzer.append(chunk);
      (void)analyzer.result();
      retained_total += analyzer.retained_segments();
      // Retained segments keep their resolved hops: a refresh resolves
      // hops for the re-resolved tail only.
      EXPECT_EQ(analyzer.retained_hops_resolved(), 0u) << workers;
    }
    EXPECT_GT(retained_total, 0u) << workers;

    Options batch;
    batch.execution.num_threads = workers;
    Pipeline pipeline(batch);
    pipeline.use_trace(full);
    EXPECT_EQ(analyzer.report_json(), pipeline.report_json()) << workers;
  }
}

TEST(Incremental, KeptHopLandingPastTheBoundaryIsResolvedAgain) {
  // Releases are recorded after the real unlock, so a releaser can carry
  // a later timestamp than its waiter's wake-up. Thread 1 wakes on M at 80
  // with releaser thread 0's release at 100, landing on thread 0's event
  // at 90. Thread 2's section on N, which precedes thread 0's contended
  // acquisition of N at 85, only arrives in round 2 (boundary 82): thread
  // 0 gains a segment at 85, so thread 1's retained hop at 80 must land
  // in a different segment than it did in round 1.
  constexpr trace::ObjectId kM = 1;
  constexpr trace::ObjectId kN = 2;
  trace::TraceBuilder b;
  b.thread(0).start(0).acquire(kM, 1).acquired(kM, 1, false)
      .acquire(kN, 2).acquired(kN, 85, true).released(kN, 90)
      .released(kM, 100).exit(200);
  b.thread(1).start(0, trace::kNoThread).acquire(kM, 5)
      .acquired(kM, 80, true).released(kM, 120).exit(300);
  b.thread(2).start(82, trace::kNoThread).acquire(kN, 82)
      .acquired(kN, 83, false).released(kN, 86).exit(87);
  const trace::Trace full = b.finish_unchecked();

  std::vector<trace::Trace> rounds(2);
  for (trace::ThreadId tid = 0; tid < full.thread_count(); ++tid) {
    rounds[tid == 2 ? 1 : 0].append_thread_events(tid,
                                                  full.thread_events(tid));
  }
  Options options;
  options.validate = false;
  IncrementalAnalyzer analyzer(options);
  analyzer.append(rounds[0]);
  (void)analyzer.result();
  analyzer.append(rounds[1]);
  (void)analyzer.result();
  EXPECT_GT(analyzer.retained_segments(), 0u);
  EXPECT_EQ(analyzer.retained_hops_resolved(), 1u);

  Pipeline pipeline(options);
  pipeline.use_trace(full);
  EXPECT_EQ(analyzer.report_json(), pipeline.report_json());
}

TEST(Incremental, SingleRoundMatchesPipeline) {
  const trace::Trace full = workload_trace("uts");
  IncrementalAnalyzer analyzer;
  analyzer.append(full);
  EXPECT_EQ(analyzer.report_json(), pipeline_report(full));
}

TEST(Incremental, EmptyAnalyzerIsACleanError) {
  IncrementalAnalyzer analyzer;
  EXPECT_THROW(analyzer.result(), util::Error);
}

TEST(Incremental, RewindingAppendIsRejected) {
  const trace::Trace full = workload_trace("micro");
  IncrementalAnalyzer analyzer;
  analyzer.append(full);
  EXPECT_THROW(analyzer.append(full), util::Error);  // restarts at ts 0
}

}  // namespace
}  // namespace cla::analysis
