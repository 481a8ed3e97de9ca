// The benchmark's own uninstrumented pthread application (the record
// phase of every workload). It links no CLA code: the interposer records
// it only when it is launched under LD_PRELOAD, exactly like a user's
// binary.
//
// Each of --threads workers runs a closed loop of --ops operations: the
// next operation starts only after the previous one returned. About one
// critical section in kHotEvery takes a shared hot mutex and is short;
// the rest take the worker's own mutex. Every kSyncEvery operations all
// workers meet at a barrier, then hand a token over a condition variable
// from worker 0 to the others. That round is rare on purpose: it costs
// futex wake-ups, and on a shared virtual machine their latency swings
// with the host's load, so at every 4096 operations the plain app's wall
// time doubled from one minute to the next; at every 65536 it moved by
// under a fifth.
//
// On exit it prints one JSON line with its own operation counters, from
// which the benchmark derives the number of events the interposer must
// account for (recorded + dropped).
//
//   lockapp --threads 4 --ops 500000 --seed 7
#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

constexpr unsigned kHotEvery = 8;
constexpr std::uint64_t kSyncEvery = 65536;

struct Config {
  unsigned threads = 4;
  std::uint64_t ops = 500000;
  std::uint64_t seed = 1;
};

struct Counters {
  std::uint64_t lock_pairs = 0;     // pthread_mutex_lock + unlock
  std::uint64_t barrier_waits = 0;  // pthread_barrier_wait
  std::uint64_t cond_waits = 0;     // pthread_cond_wait calls (spurious too)
  std::uint64_t cond_wakes = 0;     // pthread_cond_broadcast calls
  std::uint64_t checksum = 0;
};

struct alignas(64) Worker {
  pthread_t thread{};
  unsigned index = 0;
  pthread_mutex_t own = PTHREAD_MUTEX_INITIALIZER;
  std::uint64_t own_data = 0;
  Counters counters;
};

Config g_config;
pthread_mutex_t g_hot = PTHREAD_MUTEX_INITIALIZER;
std::uint64_t g_hot_data = 0;
pthread_barrier_t g_barrier;
pthread_mutex_t g_token_mutex = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t g_token_cond = PTHREAD_COND_INITIALIZER;
std::uint64_t g_token_round = 0;  // guarded by g_token_mutex

// xorshift64*: cheap, seedable, identical on every platform.
std::uint64_t next_random(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 2685821657736338717ull;
}

// Data-dependent busy work the compiler cannot fold away.
std::uint64_t spin(std::uint64_t value, unsigned iterations) {
  for (unsigned i = 0; i < iterations; ++i) {
    value = value * 6364136223846793005ull + 1442695040888963407ull;
  }
  return value;
}

void locked(pthread_mutex_t* mutex, std::uint64_t* data, unsigned work,
            Counters& counters) {
  pthread_mutex_lock(mutex);
  *data = spin(*data, work);
  pthread_mutex_unlock(mutex);
  ++counters.lock_pairs;
}

void handoff(unsigned index, std::uint64_t round, Counters& counters) {
  pthread_barrier_wait(&g_barrier);
  ++counters.barrier_waits;
  pthread_mutex_lock(&g_token_mutex);
  if (index == 0) {
    g_token_round = round;
    pthread_cond_broadcast(&g_token_cond);
    ++counters.cond_wakes;
  } else {
    while (g_token_round < round) {
      pthread_cond_wait(&g_token_cond, &g_token_mutex);
      ++counters.cond_waits;
    }
  }
  pthread_mutex_unlock(&g_token_mutex);
  ++counters.lock_pairs;
}

void* worker_main(void* raw) {
  Worker& self = *static_cast<Worker*>(raw);
  Counters& counters = self.counters;
  std::uint64_t state = (g_config.seed + 1) * 0x9E3779B97F4A7C15ull +
                        (self.index + 1) * 0xD1B54A32D192ED03ull;
  std::uint64_t local = state;
  for (std::uint64_t op = 1; op <= g_config.ops; ++op) {
    const std::uint64_t r = next_random(state);
    local = spin(local, 160 + static_cast<unsigned>(r & 31));
    if ((r >> 8) % kHotEvery == 0) {
      locked(&g_hot, &g_hot_data, 2 + static_cast<unsigned>((r >> 16) & 3),
             counters);
    } else {
      locked(&self.own, &self.own_data,
             8 + static_cast<unsigned>((r >> 16) & 15), counters);
    }
    if (op % kSyncEvery == 0) {
      handoff(self.index, op / kSyncEvery, counters);
    }
  }
  counters.checksum = local ^ self.own_data;
  return nullptr;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = value;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: lockapp [--threads N] [--ops N] [--seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    std::uint64_t value = 0;
    if (!parse_u64(argv[i + 1], value) || value == 0) return usage();
    const std::string flag = argv[i];
    if (flag == "--threads") {
      g_config.threads = static_cast<unsigned>(value);
    } else if (flag == "--ops") {
      g_config.ops = value;
    } else if (flag == "--seed") {
      g_config.seed = value;
    } else {
      return usage();
    }
  }
  if (g_config.threads > 64) return usage();

  pthread_barrier_init(&g_barrier, nullptr, g_config.threads);
  std::vector<Worker> workers(g_config.threads);
  const auto start = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < g_config.threads; ++i) {
    workers[i].index = i;
    if (pthread_create(&workers[i].thread, nullptr, worker_main,
                       &workers[i]) != 0) {
      std::perror("pthread_create");
      return 1;
    }
  }
  for (Worker& worker : workers) pthread_join(worker.thread, nullptr);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  pthread_barrier_destroy(&g_barrier);

  Counters total;
  for (const Worker& worker : workers) {
    total.lock_pairs += worker.counters.lock_pairs;
    total.barrier_waits += worker.counters.barrier_waits;
    total.cond_waits += worker.counters.cond_waits;
    total.cond_wakes += worker.counters.cond_wakes;
    total.checksum ^= worker.counters.checksum;
  }
  std::printf(
      "{\"threads\": %u, \"ops_per_thread\": %llu, \"lock_pairs\": %llu, "
      "\"barrier_waits\": %llu, \"cond_waits\": %llu, \"cond_wakes\": %llu, "
      "\"threads_created\": %u, \"joins\": %u, \"elapsed_ns\": %lld, "
      "\"checksum\": %llu}\n",
      g_config.threads, static_cast<unsigned long long>(g_config.ops),
      static_cast<unsigned long long>(total.lock_pairs),
      static_cast<unsigned long long>(total.barrier_waits),
      static_cast<unsigned long long>(total.cond_waits),
      static_cast<unsigned long long>(total.cond_wakes), g_config.threads,
      g_config.threads,
      static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      static_cast<unsigned long long>(total.checksum));
  return 0;
}
