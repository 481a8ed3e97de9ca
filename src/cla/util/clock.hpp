// Lightweight timestamping for the instrumentation hot path.
//
// The paper's tool reads the POWER7 `mftb` timebase from user space; the
// x86-64 equivalent is `rdtsc` (paper footnote 2). We expose:
//   - ticks():   raw TSC ticks when available, CLOCK_MONOTONIC ns otherwise
//   - now_ns():  monotonic nanoseconds (calibrated from the TSC)
//
// All trace timestamps are stored in nanoseconds so traces from different
// machines (or from the virtual-time simulator) are comparable.
#pragma once

#include <cstdint>

namespace cla::util {

/// Raw timestamp counter. On x86-64 this compiles to a single `rdtsc`;
/// elsewhere it falls back to CLOCK_MONOTONIC nanoseconds.
std::uint64_t ticks() noexcept;

/// Monotonic wall-clock nanoseconds since an arbitrary (per-process) epoch.
std::uint64_t now_ns() noexcept;

/// Ticks-per-nanosecond calibration factor (1.0 on the fallback path).
/// The first call performs a short calibration against CLOCK_MONOTONIC.
double ticks_per_ns() noexcept;

/// Forces the one-time TSC calibration now (~200µs busy window). The
/// recorder calls this at init so the stall lands at startup instead of
/// inside whichever critical section first asks for a timestamp.
void calibrate_clock() noexcept;

/// Converts raw ticks to nanoseconds using the calibrated factor, as a
/// 128-bit multiply and shift (no floating-point divide on the hot path).
std::uint64_t ticks_to_ns(std::uint64_t t) noexcept;

/// Busy-spins for approximately `ns` nanoseconds (used by the pthread
/// execution backend to model compute work without sleeping off-CPU).
void spin_for_ns(std::uint64_t ns) noexcept;

}  // namespace cla::util
