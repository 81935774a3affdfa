#include "support/reference_crc32.hpp"

#include <array>

namespace ldga::util::reference {

namespace {

std::array<std::uint32_t, 256> make_table() {
  constexpr std::uint32_t kPolynomial = 0xEDB88320u;
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? kPolynomial : 0u);
    }
    table[i] = value;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = make_table();
  crc = ~crc;
  for (const std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
}

}  // namespace ldga::util::reference
