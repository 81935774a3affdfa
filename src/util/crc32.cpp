#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstddef>
#include <cstring>

namespace ldga::util {

namespace {

// The 8-byte loads below read the first input byte into the low byte
// of the word; the .pgs and checkpoint formats assume the same host.
static_assert(std::endian::native == std::endian::little,
              "slice-by-16 CRC-32 assumes a little-endian host");

constexpr std::uint32_t kPolynomial = 0xEDB88320u;
constexpr std::size_t kSlices = 16;

using Table = std::array<std::uint32_t, 256>;

/// Table s maps a byte to the CRC of that byte followed by s zero
/// bytes, so the sixteen bytes of one step are looked up independently
/// and XORed: the first byte through table 15, the last through table 0.
constexpr std::array<Table, kSlices> make_tables() {
  std::array<Table, kSlices> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = value;
  }
  for (std::size_t s = 1; s < kSlices; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t shorter = tables[s - 1][i];
      tables[s][i] = (shorter >> 8) ^ tables[0][shorter & 0xFFu];
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  crc = ~crc;
  const std::uint8_t* at = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= kSlices; at += kSlices, left -= kSlices) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::memcpy(&lo, at, 8);
    std::memcpy(&hi, at + 8, 8);
    lo ^= crc;
    crc = kTables[15][lo & 0xFF] ^ kTables[14][(lo >> 8) & 0xFF] ^
          kTables[13][(lo >> 16) & 0xFF] ^ kTables[12][(lo >> 24) & 0xFF] ^
          kTables[11][(lo >> 32) & 0xFF] ^ kTables[10][(lo >> 40) & 0xFF] ^
          kTables[9][(lo >> 48) & 0xFF] ^ kTables[8][lo >> 56] ^
          kTables[7][hi & 0xFF] ^ kTables[6][(hi >> 8) & 0xFF] ^
          kTables[5][(hi >> 16) & 0xFF] ^ kTables[4][(hi >> 24) & 0xFF] ^
          kTables[3][(hi >> 32) & 0xFF] ^ kTables[2][(hi >> 40) & 0xFF] ^
          kTables[1][(hi >> 48) & 0xFF] ^ kTables[0][hi >> 56];
  }
  for (; left > 0; ++at, --left) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *at) & 0xFFu];
  }
  return ~crc;
}

}  // namespace ldga::util
