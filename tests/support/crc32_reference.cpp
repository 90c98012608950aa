#include "support/oracles.hpp"

namespace upkit::crypto {

std::uint32_t crc32_reference(ByteSpan data, std::uint32_t seed) {
    std::uint32_t c = ~seed;
    for (const std::uint8_t byte : data) {
        c ^= byte;
        for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    return ~c;
}

}  // namespace upkit::crypto
