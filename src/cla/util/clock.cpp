#include "cla/util/clock.hpp"

#include <atomic>
#include <cmath>
#include <ctime>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define CLA_HAVE_RDTSC 1
#else
#define CLA_HAVE_RDTSC 0
#endif

namespace cla::util {

namespace {

std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

#if CLA_HAVE_RDTSC
double calibrate_ticks_per_ns() noexcept {
  // Sample TSC against CLOCK_MONOTONIC over a short busy window. A few
  // hundred microseconds is enough for ~0.1% accuracy, which is far below
  // the noise of the measured critical sections.
  const std::uint64_t t0 = __rdtsc();
  const std::uint64_t n0 = monotonic_ns();
  std::uint64_t n1 = n0;
  while (n1 - n0 < 200'000) n1 = monotonic_ns();
  const std::uint64_t t1 = __rdtsc();
  const double dns = static_cast<double>(n1 - n0);
  const double dt = static_cast<double>(t1 - t0);
  return dns > 0 ? dt / dns : 1.0;
}
#endif

// ticks_to_ns is (ticks * mult) >> kNsShift in 128-bit arithmetic, with
// mult = 2^kNsShift / ticks_per_ns: a multiply and a shift on the record
// path instead of a double divide. 0 until the first conversion derives
// it from the calibration; racing first callers store the same value.
constexpr int kNsShift = 32;
std::atomic<std::uint64_t> g_ns_mult{0};

std::uint64_t ns_mult() noexcept {
  std::uint64_t mult = g_ns_mult.load(std::memory_order_relaxed);
  if (mult == 0) [[unlikely]] {
    mult = static_cast<std::uint64_t>(
        std::llround(std::ldexp(1.0 / ticks_per_ns(), kNsShift)));
    if (mult == 0) mult = 1;
    g_ns_mult.store(mult, std::memory_order_relaxed);
  }
  return mult;
}

}  // namespace

std::uint64_t ticks() noexcept {
#if CLA_HAVE_RDTSC
  return __rdtsc();
#else
  return monotonic_ns();
#endif
}

double ticks_per_ns() noexcept {
#if CLA_HAVE_RDTSC
  static const double factor = calibrate_ticks_per_ns();
  return factor;
#else
  return 1.0;
#endif
}

void calibrate_clock() noexcept { (void)ns_mult(); }

std::uint64_t ticks_to_ns(std::uint64_t t) noexcept {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(t) * ns_mult()) >> kNsShift);
}

std::uint64_t now_ns() noexcept {
#if CLA_HAVE_RDTSC
  return ticks_to_ns(__rdtsc());
#else
  return monotonic_ns();
#endif
}

void spin_for_ns(std::uint64_t ns) noexcept {
  const std::uint64_t start = now_ns();
  while (now_ns() - start < ns) {
#if CLA_HAVE_RDTSC
    _mm_pause();
#endif
  }
}

}  // namespace cla::util
