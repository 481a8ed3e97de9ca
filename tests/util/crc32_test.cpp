#include "cla/util/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

namespace cla::util {
namespace {

// Bit-at-a-time CRC-32 (IEEE, reflected): the definition the table-driven
// code must reproduce.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32, CheckValueOfStandardString) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(crc32(check, 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceForEveryShortLength) {
  const std::vector<unsigned char> bytes = random_bytes(64, 1);
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    EXPECT_EQ(crc32(bytes.data(), len), reference_crc32(bytes.data(), len))
        << "length " << len;
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnLargeBufferAtEveryAlignment) {
  constexpr std::size_t kBytes = 1u << 20;
  const std::vector<unsigned char> bytes = random_bytes(kBytes + 8, 2);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* start = bytes.data() + offset;
    EXPECT_EQ(crc32(start, kBytes), reference_crc32(start, kBytes))
        << "offset " << offset;
  }
}

TEST(Crc32, SplitUpdatesEqualOneShot) {
  const std::vector<unsigned char> bytes = random_bytes(4096 + 13, 3);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (const std::size_t cut : {0u, 1u, 7u, 8u, 9u, 63u, 2048u, 4096u}) {
    std::uint32_t state = kCrc32Init;
    state = crc32_update(state, bytes.data(), cut);
    state = crc32_update(state, bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(crc32_final(state), whole) << "cut at " << cut;
  }
  // Many small pieces of varying length, as a chunk header + body would.
  std::uint32_t state = kCrc32Init;
  std::size_t at = 0;
  for (std::size_t piece = 1; at < bytes.size(); piece = piece % 11 + 1) {
    const std::size_t n = std::min(piece, bytes.size() - at);
    state = crc32_update(state, bytes.data() + at, n);
    at += n;
  }
  EXPECT_EQ(crc32_final(state), whole);
}

}  // namespace
}  // namespace cla::util
