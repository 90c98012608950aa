#include "support/oracles.hpp"

#include <bit>
#include <cstring>

namespace upkit::crypto {

namespace {

std::uint32_t load_be32(const std::uint8_t* p) {
    return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

/// Rolled single-block compression: the FIPS 180-4 loop as written, with a
/// full 64-word schedule.
void compress_rolled(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) {
    using std::rotr;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kSha256K[static_cast<std::size_t>(i)] + w[i];
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

}  // namespace

Sha256Digest sha256_reference(ByteSpan data) {
    std::array<std::uint32_t, 8> state = kSha256Init;
    std::size_t offset = 0;
    while (offset + kSha256BlockSize <= data.size()) {
        compress_rolled(state, data.data() + offset);
        offset += kSha256BlockSize;
    }

    // Final one or two padded blocks: 0x80, zeros, 64-bit bit length.
    std::uint8_t tail[kSha256BlockSize * 2] = {};
    const std::size_t rem = data.size() - offset;
    if (rem > 0) std::memcpy(tail, data.data() + offset, rem);
    tail[rem] = 0x80;
    const std::size_t tail_blocks = rem < 56 ? 1 : 2;
    const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
    for (int i = 0; i < 8; ++i) {
        tail[tail_blocks * kSha256BlockSize - 8 + i] =
            static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    }
    for (std::size_t b = 0; b < tail_blocks; ++b) {
        compress_rolled(state, tail + b * kSha256BlockSize);
    }

    Sha256Digest out{};
    for (std::size_t i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
    return out;
}

}  // namespace upkit::crypto
