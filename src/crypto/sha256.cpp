#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

namespace upkit::crypto {

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

inline std::uint32_t load_be32(const std::uint8_t* p) {
    // Compiles to a single load + bswap at -O2; stays correct on any
    // endianness/alignment without reaching for C++23 std::byteswap.
    return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

}  // namespace

void Sha256::reset() {
    state_ = kSha256Init;
    buffered_ = 0;
    total_bytes_ = 0;
}

// Fully unrolled compression. The 8-word working state rotates through the
// round macro's arguments instead of shuffling registers, and the message
// schedule is a 16-word ring updated in place.
#define UPKIT_SHA_BSIG0(x) (rotr((x), 2) ^ rotr((x), 13) ^ rotr((x), 22))
#define UPKIT_SHA_BSIG1(x) (rotr((x), 6) ^ rotr((x), 11) ^ rotr((x), 25))
#define UPKIT_SHA_SSIG0(x) (rotr((x), 7) ^ rotr((x), 18) ^ ((x) >> 3))
#define UPKIT_SHA_SSIG1(x) (rotr((x), 17) ^ rotr((x), 19) ^ ((x) >> 10))
#define UPKIT_SHA_RND(A, B, C, D, E, F, G, H, i, wv)                             \
    t = (H) + UPKIT_SHA_BSIG1(E) + (((E) & (F)) ^ (~(E) & (G))) + kSha256K[i] + (wv);  \
    (D) += t;                                                                    \
    (H) = t + UPKIT_SHA_BSIG0(A) + (((A) & (B)) ^ (((A) ^ (B)) & (C)));
// Rounds 0-15 read the loaded message words; 16-63 extend the ring in place.
#define UPKIT_SHA_R0(i, A, B, C, D, E, F, G, H) UPKIT_SHA_RND(A, B, C, D, E, F, G, H, i, w[(i) & 15])
#define UPKIT_SHA_R1(i, A, B, C, D, E, F, G, H)                                  \
    UPKIT_SHA_RND(A, B, C, D, E, F, G, H, i,                                     \
                  (w[(i) & 15] += UPKIT_SHA_SSIG1(w[((i) - 2) & 15]) +           \
                                  w[((i) - 7) & 15] +                            \
                                  UPKIT_SHA_SSIG0(w[((i) - 15) & 15])))
#define UPKIT_SHA_8ROUNDS(R, i)                      \
    R((i) + 0, a, b, c, d, e, f, g, h)               \
    R((i) + 1, h, a, b, c, d, e, f, g)               \
    R((i) + 2, g, h, a, b, c, d, e, f)               \
    R((i) + 3, f, g, h, a, b, c, d, e)               \
    R((i) + 4, e, f, g, h, a, b, c, d)               \
    R((i) + 5, d, e, f, g, h, a, b, c)               \
    R((i) + 6, c, d, e, f, g, h, a, b)               \
    R((i) + 7, b, c, d, e, f, g, h, a)

void sha256_compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                     std::size_t blocks) {
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    while (blocks-- > 0) {
        std::uint32_t w[16];
        for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
        data += kSha256BlockSize;

        const std::uint32_t sa = a, sb = b, sc = c, sd = d;
        const std::uint32_t se = e, sf = f, sg = g, sh = h;
        std::uint32_t t;
        UPKIT_SHA_8ROUNDS(UPKIT_SHA_R0, 0)
        UPKIT_SHA_8ROUNDS(UPKIT_SHA_R0, 8)
        UPKIT_SHA_8ROUNDS(UPKIT_SHA_R1, 16)
        UPKIT_SHA_8ROUNDS(UPKIT_SHA_R1, 24)
        UPKIT_SHA_8ROUNDS(UPKIT_SHA_R1, 32)
        UPKIT_SHA_8ROUNDS(UPKIT_SHA_R1, 40)
        UPKIT_SHA_8ROUNDS(UPKIT_SHA_R1, 48)
        UPKIT_SHA_8ROUNDS(UPKIT_SHA_R1, 56)
        a += sa;
        b += sb;
        c += sc;
        d += sd;
        e += se;
        f += sf;
        g += sg;
        h += sh;
    }

    state = {a, b, c, d, e, f, g, h};
}

#undef UPKIT_SHA_8ROUNDS
#undef UPKIT_SHA_R1
#undef UPKIT_SHA_R0
#undef UPKIT_SHA_RND
#undef UPKIT_SHA_SSIG1
#undef UPKIT_SHA_SSIG0
#undef UPKIT_SHA_BSIG1
#undef UPKIT_SHA_BSIG0

void Sha256::update(ByteSpan data) {
    if (data.empty()) return;  // empty spans may carry a null data pointer
    total_bytes_ += data.size();
    std::size_t offset = 0;
    if (buffered_ > 0) {
        const std::size_t take = std::min(kSha256BlockSize - buffered_, data.size());
        std::memcpy(buffer_.data() + buffered_, data.data(), take);
        buffered_ += take;
        offset = take;
        if (buffered_ == kSha256BlockSize) {
            sha256_compress(state_, buffer_.data(), 1);
            buffered_ = 0;
        }
    }
    // Zero-copy fast path: with nothing buffered, every whole block is
    // compressed straight out of the caller's span in one multi-block run
    // (state stays in registers between blocks).
    const std::size_t whole = (data.size() - offset) / kSha256BlockSize;
    if (whole > 0) {
        sha256_compress(state_, data.data() + offset, whole);
        offset += whole * kSha256BlockSize;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

Sha256Digest Sha256::finalize() {
    const std::uint64_t bit_len = total_bytes_ * 8;

    // Padding: 0x80, zeros, 64-bit big-endian length.
    std::uint8_t pad[kSha256BlockSize * 2] = {};
    pad[0] = 0x80;
    const std::size_t pad_len =
        (buffered_ < 56) ? (56 - buffered_) : (kSha256BlockSize + 56 - buffered_);
    update(ByteSpan(pad, pad_len));

    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i) len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    // Bypass update()'s length accounting for the final length field.
    total_bytes_ -= pad_len;  // keep total consistent if reused, though reset() follows
    std::memcpy(buffer_.data() + buffered_, len_bytes, 8);
    sha256_compress(state_, buffer_.data(), 1);

    Sha256Digest out{};
    for (int i = 0; i < 8; ++i) {
        out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
        out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
        out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
        out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
    }
    reset();
    return out;
}

Sha256Digest Sha256::digest(ByteSpan data) {
    Sha256 h;
    h.update(data);
    return h.finalize();
}

Bytes sha256(ByteSpan data) {
    const Sha256Digest d = Sha256::digest(data);
    return Bytes(d.begin(), d.end());
}

}  // namespace upkit::crypto
