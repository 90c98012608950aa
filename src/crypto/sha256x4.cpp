#include "crypto/sha256x4.hpp"

#include <cstring>

namespace upkit::crypto {

namespace {

inline std::uint32_t load_be32(const std::uint8_t* p) {
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

/// One independent message stream: length, padded block count, and a block
/// materializer that serves data blocks zero-copy and synthesizes the one
/// or two padding blocks into caller scratch.
struct LaneStream {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    std::size_t blocks = 0;  // total blocks including padding

    void init(ByteSpan in) {
        data = in.data();
        len = in.size();
        blocks = (len + 9 + kSha256BlockSize - 1) / kSha256BlockSize;
    }

    const std::uint8_t* block(std::size_t b, std::uint8_t* scratch) const {
        const std::size_t off = b * kSha256BlockSize;
        if (off + kSha256BlockSize <= len) return data + off;
        std::memset(scratch, 0, kSha256BlockSize);
        if (off < len) std::memcpy(scratch, data + off, len - off);
        if (off <= len) scratch[len - off] = 0x80;
        if (b + 1 == blocks) {
            const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
            for (unsigned i = 0; i < 8; ++i) {
                scratch[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
            }
        }
        return scratch;
    }
};

void store_digest(const std::array<std::uint32_t, 8>& state, Sha256Digest& out) {
    for (unsigned i = 0; i < 8; ++i) {
        out[4 * i + 0] = static_cast<std::uint8_t>(state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
}

#if defined(__GNUC__) || defined(__clang__)
#define UPKIT_SHA4_VEC 1

// Four SWAR lanes: element i of every vector belongs to stream i. The
// SHA-256 round function is pure 32-bit ALU work, so the lane-parallel form
// maps 1:1 onto SSE2 / NEON integer ops (or four scalar ops elsewhere) and
// hides the round's serial dependency chain across streams.
typedef std::uint32_t v4u32 __attribute__((vector_size(16)));

inline v4u32 vrotr(v4u32 x, unsigned n) { return (x >> n) | (x << (32 - n)); }

void compress4(std::uint32_t st[8][4], const std::uint8_t* const p[4]) {
    v4u32 w[16];
    for (unsigned t = 0; t < 16; ++t) {
        w[t] = v4u32{load_be32(p[0] + 4 * t), load_be32(p[1] + 4 * t),
                     load_be32(p[2] + 4 * t), load_be32(p[3] + 4 * t)};
    }
    v4u32 a, b, c, d, e, f, g, h;
    std::memcpy(&a, st[0], 16); std::memcpy(&b, st[1], 16);
    std::memcpy(&c, st[2], 16); std::memcpy(&d, st[3], 16);
    std::memcpy(&e, st[4], 16); std::memcpy(&f, st[5], 16);
    std::memcpy(&g, st[6], 16); std::memcpy(&h, st[7], 16);
    for (unsigned t = 0; t < 64; ++t) {
        v4u32 wt;
        if (t < 16) {
            wt = w[t];
        } else {
            const v4u32 s0 = vrotr(w[(t - 15) & 15], 7) ^ vrotr(w[(t - 15) & 15], 18) ^
                             (w[(t - 15) & 15] >> 3);
            const v4u32 s1 = vrotr(w[(t - 2) & 15], 17) ^ vrotr(w[(t - 2) & 15], 19) ^
                             (w[(t - 2) & 15] >> 10);
            wt = w[t & 15] + s0 + w[(t - 7) & 15] + s1;
            w[t & 15] = wt;
        }
        const v4u32 kv = v4u32{kSha256K[t], kSha256K[t], kSha256K[t], kSha256K[t]};
        const v4u32 t1 = h + (vrotr(e, 6) ^ vrotr(e, 11) ^ vrotr(e, 25)) +
                         ((e & f) ^ (~e & g)) + kv + wt;
        const v4u32 t2 = (vrotr(a, 2) ^ vrotr(a, 13) ^ vrotr(a, 22)) +
                         ((a & b) ^ (a & c) ^ (b & c));
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    v4u32 acc;
    std::memcpy(&acc, st[0], 16); acc += a; std::memcpy(st[0], &acc, 16);
    std::memcpy(&acc, st[1], 16); acc += b; std::memcpy(st[1], &acc, 16);
    std::memcpy(&acc, st[2], 16); acc += c; std::memcpy(st[2], &acc, 16);
    std::memcpy(&acc, st[3], 16); acc += d; std::memcpy(st[3], &acc, 16);
    std::memcpy(&acc, st[4], 16); acc += e; std::memcpy(st[4], &acc, 16);
    std::memcpy(&acc, st[5], 16); acc += f; std::memcpy(st[5], &acc, 16);
    std::memcpy(&acc, st[6], 16); acc += g; std::memcpy(st[6], &acc, 16);
    std::memcpy(&acc, st[7], 16); acc += h; std::memcpy(st[7], &acc, 16);
}
#endif  // UPKIT_SHA4_VEC

}  // namespace

void sha256x4_digest_generic(const ByteSpan* data, Sha256Digest* out, std::size_t count) {
    LaneStream lanes[4];
    std::size_t max_blocks = 0;
    for (std::size_t i = 0; i < count; ++i) {
        lanes[i].init(data[i]);
        if (lanes[i].blocks > max_blocks) max_blocks = lanes[i].blocks;
    }
    // Transposed state: st[word][lane].
    std::uint32_t st[8][4];
    for (unsigned j = 0; j < 8; ++j) {
        for (unsigned i = 0; i < 4; ++i) st[j][i] = kSha256Init[j];
    }
    std::uint8_t scratch[4][kSha256BlockSize];
    for (std::size_t b = 0; b < max_blocks; ++b) {
#if defined(UPKIT_SHA4_VEC)
        if (count == 4 && lanes[0].blocks > b && lanes[1].blocks > b &&
            lanes[2].blocks > b && lanes[3].blocks > b) {
            const std::uint8_t* p[4] = {
                lanes[0].block(b, scratch[0]), lanes[1].block(b, scratch[1]),
                lanes[2].block(b, scratch[2]), lanes[3].block(b, scratch[3])};
            compress4(st, p);
            continue;
        }
#endif
        // Straggler lanes (ragged lengths, or count < 4, or no vector
        // extensions): column-extract the lane's state and run it through
        // the generic single-stream kernel.
        for (std::size_t i = 0; i < count; ++i) {
            if (b >= lanes[i].blocks) continue;
            std::array<std::uint32_t, 8> s;
            for (unsigned j = 0; j < 8; ++j) s[j] = st[j][i];
            sha256_compress_generic(s, lanes[i].block(b, scratch[i]), 1);
            for (unsigned j = 0; j < 8; ++j) st[j][i] = s[j];
        }
    }
    for (std::size_t i = 0; i < count; ++i) {
        std::array<std::uint32_t, 8> s;
        for (unsigned j = 0; j < 8; ++j) s[j] = st[j][i];
        store_digest(s, out[i]);
    }
}

void sha256x4_digest(const ByteSpan* data, Sha256Digest* out, std::size_t count) {
    if (count > 4) {
        sha256_multi(data, out, count);
        return;
    }
    if (sha256_impl() == Sha256Impl::kGeneric) {
        sha256x4_digest_generic(data, out, count);
        return;
    }
    // One hardware stream already saturates the SHA unit: run the lanes in
    // turn rather than interleaving them.
    for (std::size_t i = 0; i < count; ++i) out[i] = Sha256::digest(data[i]);
}

void sha256_multi(const ByteSpan* data, Sha256Digest* out, std::size_t count) {
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) sha256x4_digest(data + i, out + i, 4);
    if (i < count) sha256x4_digest(data + i, out + i, count - i);
}

}  // namespace upkit::crypto
