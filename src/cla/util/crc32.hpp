// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges.
//
// Used to checksum `.clat` chunk payloads and agg-store records, by the
// streaming writer's flusher thread and by every reader. Slicing-by-8:
// eight bytes per step through eight 256-entry tables, bit-identical to
// the byte-at-a-time table loop (table 0) and about five times faster,
// which keeps one flusher ahead of several recording threads.
//
// Header-only and free of allocation or global constructors: the tables
// are constexpr, so the functions are safe to call from async-signal
// context (the crash-time trace spill) and from static initialisation
// order-sensitive code. Words are assembled from bytes, so the result
// does not depend on the host's endianness or on the buffer's alignment.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cla::util {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte table; tables[k][b] is the CRC state
// after byte b is followed by k zero bytes, so eight table lookups fold
// eight input bytes at once.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Initial value for an incremental CRC-32 computation.
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `len` bytes into a running CRC state (start from kCrc32Init).
inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                  std::size_t len) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = crc ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

/// Finalises a running CRC state into the standard CRC-32 value.
constexpr std::uint32_t crc32_final(std::uint32_t crc) noexcept {
  return crc ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a single byte range.
inline std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  return crc32_final(crc32_update(kCrc32Init, data, len));
}

}  // namespace cla::util
