#include "cla/analysis/index.hpp"

#include <gtest/gtest.h>

#include "cla/trace/builder.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {
namespace {

using trace::TraceBuilder;

TEST(TraceIndex, PairsCriticalSections) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 1, 4).lock(9, 6, 6, 8).exit(10);
  const trace::Trace t = b.finish();
  const TraceIndex index(t);
  ASSERT_EQ(index.mutexes().size(), 1u);
  const MutexIndex& mi = index.mutexes().at(9);
  ASSERT_EQ(mi.sections.size(), 2u);
  EXPECT_EQ(mi.sections[0].acquired_ts, 1u);
  EXPECT_EQ(mi.sections[0].released_ts, 4u);
  EXPECT_EQ(mi.sections[0].hold_time(), 3u);
  EXPECT_EQ(mi.sections[0].wait_time(), 0u);
  EXPECT_EQ(mi.sections[1].acquired_ts, 6u);
}

TEST(TraceIndex, OrdersSectionsAcrossThreadsByAcquisition) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 5, 5, 9).exit(20);
  b.thread(1).start(0, trace::kNoThread).lock(9, 0, 0, 4).exit(20);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  const MutexIndex& mi = index.mutexes().at(9);
  ASSERT_EQ(mi.sections.size(), 2u);
  EXPECT_EQ(mi.sections[0].tid, 1u);  // acquired at 0
  EXPECT_EQ(mi.sections[1].tid, 0u);  // acquired at 5
}

TEST(TraceIndex, ContendedFlagComesFromEventArg) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 3, 4).lock(9, 5, 5, 6).exit(10);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  const MutexIndex& mi = index.mutexes().at(9);
  EXPECT_TRUE(mi.sections[0].contended);
  EXPECT_FALSE(mi.sections[1].contended);
}

TEST(TraceIndex, UnreleasedSectionClosedAtThreadExit) {
  TraceBuilder b;
  b.thread(0).start(0).acquire(9, 2).acquired(9, 2, false).exit(15);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  const MutexIndex& mi = index.mutexes().at(9);
  ASSERT_EQ(mi.sections.size(), 1u);
  EXPECT_EQ(mi.sections[0].released_ts, 15u);
}

TEST(TraceIndex, SectionOfLookup) {
  TraceBuilder b;
  b.thread(0).start(0).lock(9, 1, 1, 4).exit(10);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  // MutexAcquired is event index 2 (start, acquire, acquired, ...).
  EXPECT_EQ(index.section_of(0, 2), 0u);
  EXPECT_EQ(index.section_of(0, 1), TraceIndex::npos32);
}

TEST(TraceIndex, PositionLookupsRejectOutOfRangeAndWrongType) {
  TraceBuilder b;
  // Events of thread 0: 0 start, 1-3 lock(9), 4 arrive, 5 leave,
  // 6 acquire(4), 7 acquired(4), then cond_wait: 8 released(4),
  // 9 wait-begin, 10 wait-end, 11 acquire(4), 12 acquired(4); finally
  // 13 released(4), 14 exit.
  auto t0 = b.thread(0).start(0);
  t0.lock(9, 1, 1, 2).barrier(7, 3, 4);
  t0.acquire(4, 5).acquired(4, 5, false).cond_wait(8, 4, 6, 9);
  t0.released(4, 10).exit(12);
  b.thread(1).start(0, trace::kNoThread).cond_signal(8, 9).exit(11);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  constexpr auto npos = TraceIndex::npos32;

  EXPECT_EQ(index.section_of(0, 2), 0u);
  EXPECT_EQ(index.section_of(0, 7), 0u);   // mutex 4, first section
  EXPECT_EQ(index.section_of(0, 12), 1u);  // mutex 4, after the wait
  EXPECT_EQ(index.barrier_wait_of(0, 5), 0u);
  EXPECT_EQ(index.cond_wait_of(0, 10), 0u);

  // Out-of-range thread or event index.
  EXPECT_EQ(index.section_of(2, 2), npos);
  EXPECT_EQ(index.section_of(trace::kNoThread, 2), npos);
  EXPECT_EQ(index.section_of(0, 15), npos);
  EXPECT_EQ(index.barrier_wait_of(0, 1000), npos);
  EXPECT_EQ(index.cond_wait_of(7, 10), npos);

  // An event of another type, even one that owns a record elsewhere.
  EXPECT_EQ(index.section_of(0, 5), npos);       // BarrierLeave
  EXPECT_EQ(index.section_of(0, 10), npos);      // CondWaitEnd
  EXPECT_EQ(index.section_of(0, 1), npos);       // MutexAcquire
  EXPECT_EQ(index.barrier_wait_of(0, 2), npos);  // MutexAcquired
  EXPECT_EQ(index.barrier_wait_of(0, 4), npos);  // BarrierArrive
  EXPECT_EQ(index.cond_wait_of(0, 7), npos);     // MutexAcquired
  EXPECT_EQ(index.cond_wait_of(0, 9), npos);     // CondWaitBegin
  EXPECT_EQ(index.cond_wait_of(1, 1), npos);     // CondSignal
}

TEST(TraceIndex, EqualAcquisitionTimesKeepThreadIdOrder) {
  TraceBuilder b;
  // Scripted out of thread order, so only the index can restore it.
  b.thread(2).start(0, trace::kNoThread).lock(9, 5, 5, 6).lock(9, 7, 7, 8)
      .exit(20);
  b.thread(0).start(0).lock(9, 5, 5, 6).lock(9, 7, 7, 8).exit(20);
  b.thread(1).start(0, trace::kNoThread).lock(9, 5, 5, 6).exit(20);
  const trace::Trace t = b.finish_unchecked();
  for (const unsigned workers : {1u, 4u}) {
    util::ThreadPool pool(workers);
    const TraceIndex index(t, &pool);
    const MutexIndex& mi = index.mutexes().at(9);
    ASSERT_EQ(mi.sections.size(), 5u);
    const std::vector<std::pair<trace::ThreadId, std::uint64_t>> expected = {
        {0, 5}, {1, 5}, {2, 5}, {0, 7}, {2, 7}};
    for (std::uint32_t pos = 0; pos < mi.sections.size(); ++pos) {
      const CsRecord& cs = mi.sections[pos];
      EXPECT_EQ(cs.tid, expected[pos].first) << pos;
      EXPECT_EQ(cs.acquired_ts, expected[pos].second) << pos;
      EXPECT_EQ(index.section_of(cs.tid, cs.acquired_idx), pos);
    }
  }
}

TEST(TraceIndex, UnsortedThreadFallsBackToStableSortOrder) {
  TraceBuilder b;
  // Thread 0's sections run backwards in time (a trace that fails
  // validation); a merge that trusted per-thread order would emit
  // 5, 10, 2 instead of the stable-sort order 2, 5, 10.
  b.thread(0).start(0).lock(9, 10, 10, 12).lock(9, 2, 2, 4).exit(20);
  b.thread(1).start(0, trace::kNoThread).lock(9, 5, 5, 6).exit(20);
  const trace::Trace t = b.finish_unchecked();
  const TraceIndex index(t);
  const MutexIndex& mi = index.mutexes().at(9);
  ASSERT_EQ(mi.sections.size(), 3u);
  EXPECT_EQ(mi.sections[0].acquired_ts, 2u);
  EXPECT_EQ(mi.sections[0].tid, 0u);
  EXPECT_EQ(mi.sections[1].acquired_ts, 5u);
  EXPECT_EQ(mi.sections[1].tid, 1u);
  EXPECT_EQ(mi.sections[2].acquired_ts, 10u);
  EXPECT_EQ(mi.sections[2].tid, 0u);
  for (std::uint32_t pos = 0; pos < mi.sections.size(); ++pos) {
    const CsRecord& cs = mi.sections[pos];
    EXPECT_EQ(index.section_of(cs.tid, cs.acquired_idx), pos);
  }
}

TEST(TraceIndex, BarrierEpisodesGroupByRecordedGeneration) {
  TraceBuilder b;
  b.thread(0).start(0).barrier(7, 1, 5, 0).barrier(7, 8, 12, 1).exit(20);
  b.thread(1).start(0, trace::kNoThread).barrier(7, 5, 5, 0).barrier(7, 12, 12, 1).exit(20);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  const BarrierIndex& bi = index.barriers().at(7);
  ASSERT_EQ(bi.episodes.size(), 2u);
  EXPECT_EQ(bi.episodes[0].waits.size(), 2u);
  EXPECT_EQ(bi.episodes[1].waits.size(), 2u);
  // Last arriver of episode 0 arrived at t=5 on thread 1.
  EXPECT_EQ(bi.waits[bi.episodes[0].last_arriver].tid, 1u);
}

TEST(TraceIndex, BarrierEpisodesFallBackToPerThreadOrdinal) {
  TraceBuilder b;  // no recorded generation (kNoArg)
  b.thread(0).start(0).barrier(7, 1, 5).barrier(7, 8, 12).exit(20);
  b.thread(1).start(0, trace::kNoThread).barrier(7, 5, 5).barrier(7, 12, 12).exit(20);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  const BarrierIndex& bi = index.barriers().at(7);
  ASSERT_EQ(bi.episodes.size(), 2u);
  EXPECT_EQ(bi.episodes[0].waits.size(), 2u);
}

TEST(TraceIndex, CondWaitsAndSignalsIndexed) {
  TraceBuilder b;
  auto t0 = b.thread(0).start(0);
  t0.acquire(4, 1).acquired(4, 1, false);
  t0.cond_wait(8, 4, 2, 9);
  t0.released(4, 10).exit(12);
  b.thread(1).start(0, trace::kNoThread).cond_signal(8, 9).exit(11);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  const CondIndex& ci = index.conds().at(8);
  ASSERT_EQ(ci.waits.size(), 1u);
  EXPECT_EQ(ci.waits[0].begin_ts, 2u);
  EXPECT_EQ(ci.waits[0].end_ts, 9u);
  ASSERT_EQ(ci.signals.size(), 1u);
  EXPECT_EQ(ci.signals[0].tid, 1u);
}

TEST(TraceIndex, ThreadLifecycleFacts) {
  TraceBuilder b;
  b.thread(0).start(0).create(1, 1).join(1, 2, 9).exit(10);
  b.thread(1).start(1, 0).lock(9, 2, 2, 5).exit(8);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  ASSERT_EQ(index.threads().size(), 2u);
  EXPECT_EQ(index.threads()[0].start_ts, 0u);
  EXPECT_EQ(index.threads()[0].exit_ts, 10u);
  EXPECT_EQ(index.threads()[1].parent, 0u);
  EXPECT_EQ(index.threads()[1].duration(), 7u);
  EXPECT_EQ(index.threads()[0].sync_ops, 0u);  // create/join are lifecycle
  EXPECT_EQ(index.threads()[1].sync_ops, 3u);  // acquire/acquired/released
  const EventRef create = index.create_event(1);
  ASSERT_TRUE(create.valid());
  EXPECT_EQ(create.tid, 0u);
  EXPECT_EQ(create.index, 1u);
}

TEST(TraceIndex, LastFinishedThread) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  b.thread(1).start(0, trace::kNoThread).exit(25);
  b.thread(2).start(0, trace::kNoThread).exit(19);
  const trace::Trace t_owned = b.finish_unchecked();
  const TraceIndex index(t_owned);
  EXPECT_EQ(index.last_finished_thread(), 1u);
}

TEST(TraceIndex, MissingCreateEventIsInvalid) {
  TraceBuilder b;
  b.thread(0).start(0).exit(10);
  const trace::Trace t_owned = b.finish();
  const TraceIndex index(t_owned);
  EXPECT_FALSE(index.create_event(5).valid());
}

}  // namespace
}  // namespace cla::analysis
