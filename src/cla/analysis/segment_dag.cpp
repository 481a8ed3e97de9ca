#include "cla/analysis/segment_dag.hpp"

#include <algorithm>
#include <atomic>

#include "cla/analysis/resolver.hpp"
#include "cla/util/error.hpp"
#include "cla/util/thread_pool.hpp"

namespace cla::analysis {

namespace {

/// Events scanned between deadline polls inside one shard.
constexpr std::uint32_t kPollMask = 0xffff;

}  // namespace

const std::vector<Segment>& SegmentDag::thread_segments(
    trace::ThreadId tid) const {
  CLA_ASSERT(tid < threads_.size(), "segment thread out of range");
  return threads_[tid];
}

std::uint32_t SegmentDag::segment_at(trace::ThreadId tid,
                                     std::uint32_t idx) const {
  const std::vector<Segment>& segs = thread_segments(tid);
  CLA_ASSERT(!segs.empty(), "thread has no segments");
  // Last segment whose begin_idx <= idx. Segment 0 starts at event 0, so
  // the upper_bound is never begin().
  auto it = std::upper_bound(segs.begin(), segs.end(), idx,
                             [](std::uint32_t i, const Segment& s) {
                               return i < s.begin_idx;
                             });
  return static_cast<std::uint32_t>((it - segs.begin()) - 1);
}

SegmentDag SegmentDag::build(const TraceIndex& index, util::ThreadPool* pool,
                             const util::Deadline* deadline) {
  const trace::TraceView& t = index.view();
  SegmentDag dag;
  dag.view_ = t;
  dag.last_thread_ = index.last_finished_thread();
  const auto thread_count = static_cast<trace::ThreadId>(t.thread_count());
  dag.threads_.resize(thread_count);

  // Shard-parallel segment discovery: one task per thread, reading only
  // the type column (one 2-byte load per event) and resolving the wake-ups
  // it finds. Slot tid is written only by iteration tid.
  const auto build_thread = [&](std::size_t task) {
    const auto tid = static_cast<trace::ThreadId>(task);
    const trace::EventsView& events = t.thread_events(tid);
    if (events.empty()) return;  // placeholder thread in a live tail
    std::vector<Segment>& segs = dag.threads_[tid];
    for (std::uint32_t i = 0; i < events.size(); ++i) {
      if (deadline != nullptr && (i & kPollMask) == kPollMask) {
        deadline->check("segment-dag build");
      }
      const trace::EventType type = events.type_at(i);
      const bool wakeup = trace::is_wakeup(type);
      if (i != 0 && !wakeup) continue;
      Resolution r;
      if (wakeup) r = resolve_wakeup(index, tid, i);
      const bool boundary = r.blocked && r.releaser.valid();
      if (i != 0 && !boundary) continue;
      Segment s;
      s.begin_idx = i;
      s.begin_ts = events.ts_at(i);
      if (boundary) s.jump_to = r.releaser;
      s.kind = type;
      s.object = events.object_at(i);
      segs.push_back(s);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(thread_count, build_thread);
  } else {
    for (trace::ThreadId tid = 0; tid < thread_count; ++tid) {
      build_thread(tid);
    }
  }

  dag.finish(pool, deadline, 0);
  return dag;
}

SegmentDag::SegmentDag(trace::TraceView view,
                       std::vector<std::vector<Segment>> threads,
                       trace::ThreadId last_thread, util::ThreadPool* pool,
                       const util::Deadline* deadline,
                       std::uint64_t hop_watermark)
    : view_(std::move(view)),
      threads_(std::move(threads)),
      last_thread_(last_thread) {
  finish(pool, deadline, hop_watermark);
}

void SegmentDag::finish(util::ThreadPool* pool,
                        const util::Deadline* deadline,
                        std::uint64_t watermark) {
  offsets_.resize(threads_.size() + 1, 0);
  for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
    offsets_[tid + 1] = offsets_[tid] + threads_[tid].size();
  }
  total_ = offsets_.back();
  resolve_hops(pool, deadline, watermark);
}

void SegmentDag::resolve_hops(util::ThreadPool* pool,
                              const util::Deadline* deadline,
                              std::uint64_t watermark) {
  // Speculative hop resolution: for every segment — whether or not the
  // walk will ever enter it — find where its jump lands. The backward
  // walker continues scanning *below* the releaser (event jump_to.index-1
  // when it is not the target's first event), so the landing segment is
  // the one containing that predecessor event.
  //
  // A segment before the watermark keeps its hop. Its landing segment can
  // only have changed if the landing event lies at or past the watermark
  // on the target thread (everything before it is unchanged history), so
  // `fresh_from[tid]` — the first event of tid at or past the watermark —
  // decides whether a kept hop is still valid.
  std::vector<std::uint32_t> fresh_from(threads_.size(), 0);
  for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
    fresh_from[tid] = view_.thread_cursor(static_cast<trace::ThreadId>(tid))
                          .seek_ts(watermark);
  }
  std::atomic<std::uint64_t> resolved{0};
  const auto resolve_range = [&](std::size_t begin, std::size_t end) {
    std::uint64_t resolved_here = 0;
    // Map the global range back to (tid, local) runs.
    std::size_t tid = 0;
    while (offsets_[tid + 1] <= begin) ++tid;
    std::size_t local = begin - offsets_[tid];
    for (std::size_t g = begin; g < end; ++g) {
      if (deadline != nullptr && (g & 0xfff) == 0xfff) {
        deadline->check("segment-dag hop resolution");
      }
      while (local >= threads_[tid].size()) {
        ++tid;
        local = 0;
      }
      Segment& s = threads_[tid][local];
      ++local;
      if (!s.jump_to.valid()) continue;
      const trace::ThreadId target = s.jump_to.tid;
      CLA_ASSERT(target < threads_.size(), "hop target thread out of range");
      const std::uint32_t j = s.jump_to.index;
      const std::uint32_t landing = j == 0 ? 0 : j - 1;
      if (s.begin_ts < watermark && landing < fresh_from[target]) {
        continue;  // kept hop, still valid
      }
      s.jump_ts = view_.thread_events(target).ts_at(j);
      s.jump_seg = segment_at(target, landing);
      ++resolved_here;
    }
    resolved += resolved_here;
  };
  if (total_ != 0) {
    if (pool == nullptr) {
      resolve_range(0, total_);
    } else {
      pool->parallel_for_chunks(total_, 4096, resolve_range);
    }
  }
  resolved_hops_ = resolved.load();
}

}  // namespace cla::analysis
