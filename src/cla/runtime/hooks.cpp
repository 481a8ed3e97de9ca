#include "cla/runtime/hooks.hpp"

#include <atomic>
#include <cerrno>
#include <thread>
#include <vector>

#include "cla/util/error.hpp"

namespace cla::rt {

using trace::EventType;

InstrumentedMutex::InstrumentedMutex(std::string name) {
  pthread_mutex_init(&mutex_, nullptr);
  if (!name.empty()) Recorder::instance().name_object(id(), std::move(name));
}

InstrumentedMutex::~InstrumentedMutex() { pthread_mutex_destroy(&mutex_); }

void InstrumentedMutex::lock() {
  Recorder& recorder = Recorder::instance();
  recorder.record(EventType::MutexAcquire, id());  // MAGIC: acquire the lock
  bool contended = false;
  if (pthread_mutex_trylock(&mutex_) == EBUSY) {
    contended = true;  // MAGIC: lock contention
    const int rc = pthread_mutex_lock(&mutex_);
    CLA_CHECK(rc == 0, "pthread_mutex_lock failed");
  }
  // MAGIC: obtain the lock
  recorder.record(EventType::MutexAcquired, id(), contended ? 1 : 0);
}

void InstrumentedMutex::unlock() {
  const int rc = pthread_mutex_unlock(&mutex_);
  CLA_CHECK(rc == 0, "pthread_mutex_unlock failed");
  // MAGIC after the real unlock: no extra time inside the critical section.
  Recorder::instance().record(EventType::MutexReleased, id());
}

InstrumentedBarrier::InstrumentedBarrier(std::uint32_t participants,
                                         std::string name)
    : participants_(participants) {
  CLA_CHECK(participants > 0, "barrier needs at least one participant");
  pthread_barrier_init(&barrier_, nullptr, participants);
  if (!name.empty()) Recorder::instance().name_object(id(), std::move(name));
}

InstrumentedBarrier::~InstrumentedBarrier() { pthread_barrier_destroy(&barrier_); }

void InstrumentedBarrier::wait() {
  Recorder& recorder = Recorder::instance();
  const std::uint64_t order = arrivals_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t episode = order / participants_;
  // MAGIC before the wait: the arrival time identifies the last arriver.
  recorder.record(EventType::BarrierArrive, id(), episode);
  pthread_barrier_wait(&barrier_);
  recorder.record(EventType::BarrierLeave, id(), episode);
}

InstrumentedCond::InstrumentedCond(std::string name) {
  pthread_cond_init(&cond_, nullptr);
  if (!name.empty()) Recorder::instance().name_object(id(), std::move(name));
}

InstrumentedCond::~InstrumentedCond() { pthread_cond_destroy(&cond_); }

void InstrumentedCond::wait(InstrumentedMutex& mutex) {
  Recorder& recorder = Recorder::instance();
  // cond_wait atomically releases the mutex; trace that release so lock
  // hold times stay correct.
  recorder.record(EventType::MutexReleased, mutex.id());
  recorder.record(EventType::CondWaitBegin, id(), mutex.id());
  pthread_cond_wait(&cond_, mutex.native());
  // MAGIC: signal received (paper Fig. 4, "woken up by signal").
  recorder.record(EventType::CondWaitEnd, id(), mutex.id());
  recorder.record(EventType::MutexAcquire, mutex.id());
  // The re-acquire may well have contended, but pthread_cond_wait hides
  // it; record uncontended so the analyzer does not invent a block.
  recorder.record(EventType::MutexAcquired, mutex.id(), 0);
}

void InstrumentedCond::signal() {
  // MAGIC before: "signal sent already" must be visible to the waiter's
  // wake-up matching, so timestamp the signal no later than the wake.
  Recorder::instance().record(EventType::CondSignal, id());
  pthread_cond_signal(&cond_);
}

void InstrumentedCond::broadcast() {
  Recorder::instance().record(EventType::CondBroadcast, id());
  pthread_cond_broadcast(&cond_);
}

void phase_begin() {
  Recorder::instance().record(EventType::PhaseBegin, trace::kNoObject);
}

void phase_end() {
  Recorder::instance().record(EventType::PhaseEnd, trace::kNoObject);
}

void run_instrumented_threads(std::uint32_t thread_count,
                              const std::function<void(std::uint32_t)>& body) {
  Recorder& recorder = Recorder::instance();
  const trace::ThreadId parent = recorder.ensure_current_thread();

  struct Worker {
    trace::ThreadId tid;
    std::thread thread;
  };
  // Untraced start gate: bodies begin only after every worker exists and
  // the coordinator has recorded its first JoinBegin. Without it, a
  // coordinator descheduled between ThreadCreate and JoinBegin finds every
  // worker already gone, no join blocks, and the critical path never
  // leaves the coordinator.
  std::atomic<bool> started{false};
  std::vector<Worker> workers;
  workers.reserve(thread_count);
  for (std::uint32_t i = 0; i < thread_count; ++i) {
    const trace::ThreadId child = recorder.allocate_thread();
    recorder.record(EventType::ThreadCreate, static_cast<trace::ObjectId>(child));
    workers.push_back(Worker{
        child, std::thread([&recorder, &body, &started, child, parent, i] {
          recorder.bind_current_thread(child, parent);
          started.wait(false);
          body(i);
          recorder.thread_exit();
        })});
  }
  for (auto& worker : workers) {
    recorder.record(EventType::JoinBegin, static_cast<trace::ObjectId>(worker.tid));
    if (!started.exchange(true)) started.notify_all();
    worker.thread.join();
    recorder.record(EventType::JoinEnd, static_cast<trace::ObjectId>(worker.tid));
  }
}

}  // namespace cla::rt
