// CRC-32: the IEEE check value, the continuation contract, and the
// sliced production loop held to the bytewise oracle
// (tests/support/reference_crc32.*) at every alignment and length
// class it branches on.
#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/reference_crc32.hpp"
#include "util/rng.hpp"

namespace ldga::util {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return {text.begin(), text.end()};
}

std::vector<std::uint8_t> random_bytes(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(count);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard check value for CRC-32/ISO-HDLC: crc("123456789").
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(crc32(std::vector<std::uint8_t>{}), 0u);
}

TEST(Crc32, IncrementalFeedingMatchesOneShot) {
  const auto data = bytes_of("linkage disequilibrium");
  const auto whole = crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const auto first = crc32(std::span<const std::uint8_t>(data.data(), split));
    const auto second = crc32(
        std::span<const std::uint8_t>(data.data() + split,
                                      data.size() - split),
        first);
    EXPECT_EQ(second, whole) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  auto data = bytes_of("payload");
  const auto clean = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1u;
    EXPECT_NE(crc32(data), clean) << "flip at " << i;
    data[i] ^= 1u;
  }
}

TEST(Crc32, SlicedMatchesBytewiseOracle) {
  // Every length below four 16-byte steps (tail only, one step plus
  // tail, ...), both sides of a page, and 1 MiB; each from every start
  // offset within a step, so the 8-byte loads see every alignment, and
  // from a zero and a nonzero running CRC.
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 64; ++length) {
    lengths.push_back(length);
  }
  for (const std::size_t length : {4095u, 4096u, 4097u, 1u << 20}) {
    lengths.push_back(length);
  }
  const auto data = random_bytes((1u << 20) + 16, 30);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (const std::size_t length : lengths) {
      const std::span<const std::uint8_t> bytes(data.data() + offset, length);
      for (const std::uint32_t running : {0u, 0xDEADBEEFu}) {
        EXPECT_EQ(crc32(bytes, running), reference::crc32(bytes, running))
            << "offset " << offset << ", length " << length
            << ", running CRC " << running;
      }
    }
  }
}

TEST(Crc32, SplitFeedingAcrossTheStrideMatchesOneShot) {
  // A 64-byte buffer split at every point: the first piece ends, and
  // the second starts, at every position within a 16-byte step.
  const auto data = random_bytes(64, 31);
  const std::span<const std::uint8_t> whole(data);
  const std::uint32_t expected = reference::crc32(whole);
  ASSERT_EQ(crc32(whole), expected);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = crc32(whole.first(split));
    EXPECT_EQ(crc32(whole.subspan(split), first), expected)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace ldga::util
