// Tiny *uninstrumented* pthread application used by the LD_PRELOAD
// interposition integration test. Two locks with very different critical
// section sizes, plus a barrier — enough structure for the analyzer to
// find a critical lock.
//
// Invoked with the argument "hashing" it instead runs hashing_worker,
// whose lock calls keep only large 64-bit values live; the test build of
// that mode omits frame pointers (see hashing_worker).
//
// Invoked with the argument "errorcheck" it instead exercises every
// pthread_mutex_* error path on a PTHREAD_MUTEX_ERRORCHECK mutex, so the
// interposer's only-record-on-success rule has a regression scenario:
// exactly three acquisitions succeed; every failed call must leave no
// events behind or the trace stops validating.
#include <errno.h>
#include <pthread.h>
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

pthread_mutex_t g_small = PTHREAD_MUTEX_INITIALIZER;
pthread_mutex_t g_big = PTHREAD_MUTEX_INITIALIZER;
pthread_barrier_t g_barrier;
volatile long g_counter = 0;

void burn(long iterations) {
  for (long i = 0; i < iterations; ++i) g_counter = g_counter + 1;
}

}  // namespace

// External linkage on purpose: the binary links with -rdynamic so the
// interposer's CLA_STACK_DEPTH capture can symbolize this callsite by
// name (an internal-linkage function never reaches the dynamic symbol
// table and dladdr would fall back to the bare module name).
extern "C" void* demo_worker(void*) {
  pthread_barrier_wait(&g_barrier);
  for (int round = 0; round < 20; ++round) {
    pthread_mutex_lock(&g_small);
    burn(2000);
    pthread_mutex_unlock(&g_small);
    pthread_mutex_lock(&g_big);
    burn(60000);  // keep g_big clearly dominant even under scheduler noise
    pthread_mutex_unlock(&g_big);
  }
  return nullptr;
}

// Lock calls with only large 64-bit values live across them: a key
// counted up from 0xff00... and an FNV-1a hash. Built with
// -fomit-frame-pointer, the compiler keeps one of them in the
// frame-pointer register, so a stack walk that takes that register for a
// frame address would read far outside the stack.
extern "C" void* hashing_worker(void*) {
  constexpr std::uint64_t kFirstKey = 0xff00000000000000ull;
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::uint64_t key = kFirstKey; key != kFirstKey + 200; ++key) {
    pthread_mutex_lock(&g_small);
    hash = (hash ^ key) * 0x100000001b3ull;
    pthread_mutex_unlock(&g_small);
  }
  g_counter = g_counter + static_cast<long>(hash & 1);
  return nullptr;
}

namespace {

int run_hashing() {
  constexpr int kThreads = 4;
  pthread_t threads[kThreads];
  for (auto& thread : threads) {
    pthread_create(&thread, nullptr, &hashing_worker, nullptr);
  }
  for (auto& thread : threads) pthread_join(thread, nullptr);
  hashing_worker(nullptr);  // the main thread walks its stack too
  std::printf("hashing ok\n");
  return 0;
}

int run_errorcheck() {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_settype(&attr, PTHREAD_MUTEX_ERRORCHECK);
  pthread_mutex_t m;
  pthread_mutex_init(&m, &attr);
  pthread_mutexattr_destroy(&attr);

  if (pthread_mutex_lock(&m) != 0) return 10;        // acquisition 1
  if (pthread_mutex_lock(&m) != EDEADLK) return 11;  // failed relock
  if (pthread_mutex_trylock(&m) != EBUSY) return 12; // failed trylock
  if (pthread_mutex_unlock(&m) != 0) return 13;      // release 1
  if (pthread_mutex_unlock(&m) != EPERM) return 14;  // failed unlock
  if (pthread_mutex_trylock(&m) != 0) return 15;     // acquisition 2
  if (pthread_mutex_unlock(&m) != 0) return 16;      // release 2
  timespec abstime{};
  clock_gettime(CLOCK_REALTIME, &abstime);
  abstime.tv_sec += 5;
  if (pthread_mutex_timedlock(&m, &abstime) != 0) return 17;  // acquisition 3
  if (pthread_mutex_unlock(&m) != 0) return 18;               // release 3

  pthread_mutex_destroy(&m);
  std::printf("errorcheck ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "errorcheck") == 0) {
    return run_errorcheck();
  }
  if (argc > 1 && std::strcmp(argv[1], "hashing") == 0) return run_hashing();
  constexpr int kThreads = 4;
  pthread_barrier_init(&g_barrier, nullptr, kThreads);
  pthread_t threads[kThreads];
  for (auto& thread : threads) {
    pthread_create(&thread, nullptr, &demo_worker, nullptr);
  }
  for (auto& thread : threads) {
    pthread_join(thread, nullptr);
  }
  pthread_barrier_destroy(&g_barrier);
  std::printf("counter=%ld\n", g_counter);
  return 0;
}
