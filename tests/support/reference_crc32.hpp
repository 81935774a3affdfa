// Test-only reference CRC-32 — the oracle util::crc32 is held to.
//
// Production CRC-32 (util/crc32.*) folds sixteen bytes per step
// through sixteen lookup tables. The code here is the plain
// byte-at-a-time loop over one 256-entry table, built at run time
// from the polynomial, so agreement with production is evidence, not
// tautology. Only tests link this library.
#pragma once

#include <cstdint>
#include <span>

namespace ldga::util::reference {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`,
/// continuing from `crc`, one byte at a time: the contract of
/// util::crc32.
std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t crc = 0);

}  // namespace ldga::util::reference
