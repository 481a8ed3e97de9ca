// LEB128-style varint and zigzag primitives for the `.clat` v3 event
// encoding.
//
// v3 stores per-thread event streams as delta-encoded, varint-compressed
// field groups (see trace_io.hpp). The encoder writes into a
// caller-sized buffer; decoders are strictly bounds-checked cursors that
// report truncation and overlong input by returning false instead of
// reading out of range, so the same routines back both the strict reader
// (which turns a failure into a corruption error) and salvage (which
// drops the chunk).
#pragma once

#include <cstddef>
#include <cstdint>

namespace cla::trace {

/// Maps signed deltas onto small unsigned values (0, -1, 1, -2, ...).
constexpr std::uint64_t zigzag_encode(std::int64_t value) noexcept {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

/// Longest possible encoding of a u64 (10 * 7 bits >= 64 bits).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `value` at `out` as a base-128 varint (7 bits per byte, high
/// bit = continuation; room for kMaxVarintBytes) and returns the byte
/// past it. Allocation-free, so the streaming writer can encode on its
/// async-signal-safe path.
inline char* put_varint(char* out, std::uint64_t value) noexcept {
  while (value >= 0x80) {
    *out++ = static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<char>(value);
  return out;
}

/// Bounds-checked varint cursor over `[data, data + size)`.
struct VarintReader {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  std::size_t remaining() const noexcept { return size - pos; }

  /// Reads one varint into `out`; false on truncation or an encoding
  /// longer than 10 bytes (corrupt input, not a valid u64).
  bool get(std::uint64_t& out) noexcept {
    std::uint64_t value = 0;
    unsigned shift = 0;
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
      if (pos >= size) return false;
      const unsigned char byte = data[pos++];
      // The 10th byte may only contribute the final bit of a u64.
      if (i == kMaxVarintBytes - 1 && (byte & 0xfe) != 0) return false;
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        out = value;
        return true;
      }
      shift += 7;
    }
    return false;  // 10 continuation bytes: overlong
  }
};

}  // namespace cla::trace
