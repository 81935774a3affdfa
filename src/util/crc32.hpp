// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
// spans. Used as the integrity check on what is read back from disk:
// GA checkpoint files and the packed genotype store (.pgs). Software
// slice-by-16: sixteen 256-entry tables (16 KiB) built at compile time
// fold 16 bytes per step from two 8-byte loads, so there is no ISA
// gate. Assumes a little-endian host, as the .pgs and checkpoint
// formats do.
#pragma once

#include <cstdint>
#include <span>

namespace ldga::util {

/// CRC of `bytes`, continuing from `crc` (pass 0 to start; feeding a
/// buffer in pieces gives the same result as one call over the whole).
std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc = 0);

}  // namespace ldga::util
