// CRC-32 (IEEE 802.3).
//
// Not used by UpKit's own verifier — the paper explicitly calls CRC-only
// verification (TinyOS/Deluge, Sparrow) *insufficient* against tampering.
// It is implemented here for the CRC-only baseline comparator and the
// attack-scenario experiments that demonstrate exactly that insufficiency.
// It also guards the swap journal's records and sector copies against torn
// writes (slots/), which is why it runs slice-by-8.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace upkit::crypto {

/// CRC-32/ISO-HDLC: poly 0x04C11DB7 reflected, init 0xFFFFFFFF, final XOR.
/// crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(ByteSpan data, std::uint32_t seed = 0);

}  // namespace upkit::crypto
