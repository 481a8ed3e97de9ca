// google-benchmark microbenches for the analysis module itself: indexing,
// the segment-DAG build (wake-up resolution), the DAG walk and full
// analysis throughput on a realistic trace (the 16-thread Radiosity
// workload, ~80k events).
#include <benchmark/benchmark.h>

#include "cla/analysis/pipeline.hpp"
#include "cla/sim/engine.hpp"
#include "cla/trace/builder.hpp"
#include "cla/util/thread_pool.hpp"
#include "cla/workloads/workload.hpp"
#include <vector>

namespace {

const cla::trace::Trace& radiosity_trace() {
  static const cla::trace::Trace trace = [] {
    cla::workloads::WorkloadConfig config;
    config.threads = 16;
    return cla::workloads::run_workload("radiosity", config).trace;
  }();
  return trace;
}

// Large synthetic trace for the parallel executor: 8 worker threads, 64
// locks, ~1M events of globally disjoint critical sections. Big enough
// that the per-thread indexing and per-lock statistics shards dominate
// over merge and pool overhead.
const cla::trace::Trace& big_synthetic_trace() {
  static const cla::trace::Trace trace = [] {
    constexpr std::uint32_t kWorkers = 8;
    constexpr std::uint64_t kSections = 20000;  // per worker
    constexpr cla::trace::ObjectId kLocks = 64;
    cla::trace::TraceBuilder b;
    auto main_thread = b.thread(0);
    main_thread.start(0);
    for (std::uint32_t w = 1; w <= kWorkers; ++w) main_thread.create(w, w);
    std::uint64_t global_end = 0;
    for (std::uint32_t w = 1; w <= kWorkers; ++w) {
      auto t = b.thread(w);
      t.start(kWorkers + w, 0);
      for (std::uint64_t i = 0; i < kSections; ++i) {
        // Slot (i * kWorkers + w) gives every section a globally unique
        // time window, so sections never overlap and stay uncontended.
        const std::uint64_t at = 100 + (i * kWorkers + w) * 20;
        t.lock_uncontended(1000 + (i + w) % kLocks, at, at + 10);
      }
      const std::uint64_t done = 100 + (kSections * kWorkers + w) * 20;
      t.exit(done);
      global_end = std::max(global_end, done);
    }
    for (std::uint32_t w = 1; w <= kWorkers; ++w) {
      main_thread.join(w, global_end + w, global_end + w + 1);
    }
    main_thread.exit(global_end + kWorkers + 2);
    return b.finish();
  }();
  return trace;
}

void BM_TraceIndexBuild(benchmark::State& state) {
  const auto& trace = radiosity_trace();
  for (auto _ : state) {
    cla::analysis::TraceIndex index(trace);
    benchmark::DoNotOptimize(index.mutexes().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.event_count()));
}
BENCHMARK(BM_TraceIndexBuild);

void BM_SegmentDagBuild(benchmark::State& state) {
  const auto& trace = radiosity_trace();
  const cla::analysis::TraceIndex index(trace);
  for (auto _ : state) {
    const auto dag = cla::analysis::SegmentDag::build(index, nullptr);
    benchmark::DoNotOptimize(dag.segment_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.event_count()));
}
BENCHMARK(BM_SegmentDagBuild);

void BM_CriticalPathWalk(benchmark::State& state) {
  const auto& trace = radiosity_trace();
  const cla::analysis::TraceIndex index(trace);
  const auto dag = cla::analysis::SegmentDag::build(index, nullptr);
  for (auto _ : state) {
    auto path = cla::analysis::compute_critical_path(dag, nullptr);
    benchmark::DoNotOptimize(path.intervals.size());
  }
}
BENCHMARK(BM_CriticalPathWalk);

void BM_FullAnalysis(benchmark::State& state) {
  const auto& trace = radiosity_trace();
  for (auto _ : state) {
    cla::analysis::Pipeline pipeline;
    pipeline.use_trace(trace);
    auto result = pipeline.take_result();
    benchmark::DoNotOptimize(result.locks.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.event_count()));
}
BENCHMARK(BM_FullAnalysis);

void BM_ParallelIndexStats(benchmark::State& state) {
  // The sharded executor's parallel stages (per-thread indexing, per-lock
  // statistics) at 1/2/4/8 workers on the ~1M-event synthetic trace. The
  // acceptance shape: >= 1.8x over Arg(1) at Arg(8) on an 8-core host,
  // while staying bit-identical (see integration/determinism_test.cpp).
  const auto& trace = big_synthetic_trace();
  cla::util::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const cla::analysis::TraceIndex seq_index(trace);
  const cla::analysis::CriticalPath path =
      cla::analysis::compute_critical_path(
          cla::analysis::SegmentDag::build(seq_index, nullptr), nullptr);
  for (auto _ : state) {
    cla::analysis::TraceIndex index(trace, &pool);
    auto result = cla::analysis::compute_stats(index, path, {}, &pool);
    benchmark::DoNotOptimize(result.locks.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.event_count()));
}
BENCHMARK(BM_ParallelIndexStats)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SimEngineThroughput(benchmark::State& state) {
  // Sync-operation throughput of the virtual-time engine itself.
  for (auto _ : state) {
    cla::sim::Engine engine;
    const auto mutex = engine.create_mutex("m");
    engine.run([&](cla::sim::TaskCtx& main) {
      std::vector<cla::sim::TaskId> kids;
      for (int i = 0; i < 4; ++i) {
        kids.push_back(main.spawn([&](cla::sim::TaskCtx& task) {
          for (int k = 0; k < 500; ++k) {
            task.lock(mutex);
            task.compute(5);
            task.unlock(mutex);
            task.compute(20);
          }
        }));
      }
      for (const auto kid : kids) main.join(kid);
    });
    benchmark::DoNotOptimize(engine.completion_time());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 500 * 2);  // lock+unlock ops
}
BENCHMARK(BM_SimEngineThroughput);

}  // namespace

BENCHMARK_MAIN();
