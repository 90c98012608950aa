#include "crypto/sha256x4.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define UPKIT_SHA4_X86 1
#endif

#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#define UPKIT_SHA4_NEON 1
#endif

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

#if defined(UPKIT_SHA4_X86) || defined(UPKIT_SHA4_NEON)
/// One stream through a multi-block hardware kernel: every whole block
/// straight from the span, then the one or two padding blocks (0x80,
/// zeros, 64-bit bit length) from a stack tail.
void digest_stream(ByteSpan in, Sha256Digest& out,
                   void (*compress)(std::uint32_t*, const std::uint8_t*, std::size_t)) {
    std::array<std::uint32_t, 8> state = kSha256Init;
    const std::size_t full = in.size() / kSha256BlockSize;
    compress(state.data(), in.data(), full);
    const std::size_t rem = in.size() - full * kSha256BlockSize;
    std::uint8_t tail[2 * kSha256BlockSize];
    std::memset(tail, 0, sizeof(tail));
    if (rem > 0) std::memcpy(tail, in.data() + full * kSha256BlockSize, rem);
    tail[rem] = 0x80;
    const std::size_t tail_blocks = rem < 56 ? 1 : 2;
    const std::uint64_t bits = static_cast<std::uint64_t>(in.size()) * 8;
    for (unsigned i = 0; i < 8; ++i) {
        tail[tail_blocks * kSha256BlockSize - 8 + i] =
            static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    }
    compress(state.data(), tail, tail_blocks);
    store_digest(state, out);
}
#endif

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

void digest_generic(const ByteSpan* data, Sha256Digest* out, std::size_t count) {
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
        // the single-stream kernel.
        for (std::size_t i = 0; i < count; ++i) {
            if (b >= lanes[i].blocks) continue;
            std::array<std::uint32_t, 8> s;
            for (unsigned j = 0; j < 8; ++j) s[j] = st[j][i];
            sha256_compress(s, lanes[i].block(b, scratch[i]), 1);
            for (unsigned j = 0; j < 8; ++j) st[j][i] = s[j];
        }
    }
    for (std::size_t i = 0; i < count; ++i) {
        std::array<std::uint32_t, 8> s;
        for (unsigned j = 0; j < 8; ++j) s[j] = st[j][i];
        store_digest(s, out[i]);
    }
}

#if defined(UPKIT_SHA4_X86)

/// SHA-NI block compression. One sha256rnds2 stream already saturates the
/// SHA unit, so the multi-buffer entry runs the four streams sequentially
/// through this kernel rather than interleaving them.
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t state[8],
                                                          const std::uint8_t* data,
                                                          std::size_t blocks) {
    const __m128i kShuf =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    // Repack the linear a..h state into the ABEF / CDGH register layout
    // sha256rnds2 expects.
    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
    __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
    tmp = _mm_shuffle_epi32(tmp, 0xB1);
    state1 = _mm_shuffle_epi32(state1, 0x1B);
    __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);
    state1 = _mm_blend_epi16(state1, tmp, 0xF0);

    while (blocks-- > 0) {
        const __m128i save0 = state0;
        const __m128i save1 = state1;
        __m128i msgs[4];
        for (int g = 0; g < 16; ++g) {
            if (g < 4) {
                msgs[g] = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
                    kShuf);
            } else {
                // W[g] from the ring of the previous four word groups.
                msgs[g & 3] = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(msgs[g & 3], msgs[(g - 3) & 3]),
                                  _mm_alignr_epi8(msgs[(g - 1) & 3], msgs[(g - 2) & 3], 4)),
                    msgs[(g - 1) & 3]);
            }
            __m128i msg = _mm_add_epi32(
                msgs[g & 3],
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * g])));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        }
        state0 = _mm_add_epi32(state0, save0);
        state1 = _mm_add_epi32(state1, save1);
        data += kSha256BlockSize;
    }

    tmp = _mm_shuffle_epi32(state0, 0x1B);
    state1 = _mm_shuffle_epi32(state1, 0xB1);
    state0 = _mm_blend_epi16(tmp, state1, 0xF0);
    state1 = _mm_alignr_epi8(state1, tmp, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

bool cpu_has_sha_ni() {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    if ((ebx & (1u << 29)) == 0) return false;  // CPUID.7.0:EBX.SHA
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ecx & (1u << 19)) != 0;  // SSE4.1 (blend/alignr paths)
}

#endif  // UPKIT_SHA4_X86

#if defined(UPKIT_SHA4_NEON)

__attribute__((target("+crypto"))) void compress_neon(std::uint32_t state[8],
                                                      const std::uint8_t* data,
                                                      std::size_t blocks) {
    uint32x4_t state0 = vld1q_u32(&state[0]);
    uint32x4_t state1 = vld1q_u32(&state[4]);
    while (blocks-- > 0) {
        const uint32x4_t save0 = state0;
        const uint32x4_t save1 = state1;
        uint32x4_t msgs[4];
        for (int g = 0; g < 16; ++g) {
            if (g < 4) {
                msgs[g] = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(data + 16 * g)));
            } else {
                msgs[g & 3] = vsha256su1q_u32(vsha256su0q_u32(msgs[g & 3], msgs[(g - 3) & 3]),
                                              msgs[(g - 2) & 3], msgs[(g - 1) & 3]);
            }
            const uint32x4_t wk = vaddq_u32(msgs[g & 3], vld1q_u32(&kSha256K[4 * g]));
            const uint32x4_t prev0 = state0;
            state0 = vsha256hq_u32(state0, state1, wk);
            state1 = vsha256h2q_u32(state1, prev0, wk);
        }
        state0 = vaddq_u32(state0, save0);
        state1 = vaddq_u32(state1, save1);
        data += kSha256BlockSize;
    }
    vst1q_u32(&state[0], state0);
    vst1q_u32(&state[4], state1);
}

bool cpu_has_neon_sha2() {
#if defined(__linux__)
#ifndef HWCAP_SHA2
    constexpr unsigned long kHwcapSha2 = 1ul << 6;
#else
    constexpr unsigned long kHwcapSha2 = HWCAP_SHA2;
#endif
    return (getauxval(AT_HWCAP) & kHwcapSha2) != 0;
#else
    return false;
#endif
}

#endif  // UPKIT_SHA4_NEON

Sha256x4Impl hardware_impl() {
    static const Sha256x4Impl impl = [] {
#if defined(UPKIT_SHA4_X86)
        if (cpu_has_sha_ni()) return Sha256x4Impl::kShaNi;
#endif
#if defined(UPKIT_SHA4_NEON)
        if (cpu_has_neon_sha2()) return Sha256x4Impl::kNeon;
#endif
        return Sha256x4Impl::kGeneric;
    }();
    return impl;
}

/// UPKIT_FORCE_SCALAR_SHA set to anything but "" / "0" pins the generic
/// lanes. Read on every call so tests can flip it with setenv.
bool force_generic() {
    const char* e = std::getenv("UPKIT_FORCE_SCALAR_SHA");
    return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}

}  // namespace

Sha256x4Impl sha256x4_impl() {
    return force_generic() ? Sha256x4Impl::kGeneric : hardware_impl();
}

const char* sha256x4_impl_name(Sha256x4Impl impl) {
    switch (impl) {
        case Sha256x4Impl::kShaNi: return "sha-ni";
        case Sha256x4Impl::kNeon: return "neon";
        case Sha256x4Impl::kGeneric: break;
    }
    return "generic";
}

void sha256x4_digest(const ByteSpan* data, Sha256Digest* out, std::size_t count) {
    if (count == 0) return;
    if (count > 4) {
        sha256_multi(data, out, count);
        return;
    }
    switch (sha256x4_impl()) {
#if defined(UPKIT_SHA4_X86)
        case Sha256x4Impl::kShaNi:
            for (std::size_t i = 0; i < count; ++i) digest_stream(data[i], out[i], compress_shani);
            return;
#endif
#if defined(UPKIT_SHA4_NEON)
        case Sha256x4Impl::kNeon:
            for (std::size_t i = 0; i < count; ++i) digest_stream(data[i], out[i], compress_neon);
            return;
#endif
        default:
            break;
    }
    digest_generic(data, out, count);
}

void sha256_multi(const ByteSpan* data, Sha256Digest* out, std::size_t count) {
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) sha256x4_digest(data + i, out + i, 4);
    if (i < count) sha256x4_digest(data + i, out + i, count - i);
}

}  // namespace upkit::crypto
