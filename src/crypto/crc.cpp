#include "crypto/crc.hpp"

#include <array>

namespace upkit::crypto {

namespace {

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320. Row 0 is the
/// byte-at-a-time table; row k advances a byte's contribution through k
/// further zero bytes, so eight rows fold eight input bytes per step.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
        }
    }
    return t;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(ByteSpan data, std::uint32_t seed) {
    const auto& t = kCrc32Tables;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = c ^ load_le32(p);
        const std::uint32_t hi = load_le32(p + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

}  // namespace upkit::crypto
