#include "crypto/sha256.hpp"

#include <bit>
#include <cstdlib>
#include <cstring>

#include "crypto/ct.hpp"

// The hardware kernels compile with per-function target attributes, so the
// library builds for any CPU of the architecture and picks one at run time.
// Under MemorySanitizer (UPKIT_CT_MSAN) they are left out altogether.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && !defined(UPKIT_CT_MSAN)
#include <cpuid.h>
#include <immintrin.h>
#define UPKIT_SHA_X86 1
#endif

#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__)) && !defined(UPKIT_CT_MSAN)
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#define UPKIT_SHA_NEON 1
#endif

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

// The generic kernel, fully unrolled. The 8-word working state rotates
// through the round macro's arguments instead of shuffling registers, and
// the message schedule is a 16-word ring updated in place.
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

void sha256_compress_generic(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
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

namespace {

#if defined(UPKIT_SHA_X86)

/// SHA-NI block compression: two sha256rnds2 per group of four rounds, the
/// schedule extended by sha256msg1/msg2 in a ring of four word groups.
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

#endif  // UPKIT_SHA_X86

#if defined(UPKIT_SHA_NEON)

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

#endif  // UPKIT_SHA_NEON

/// UPKIT_FORCE_SCALAR_SHA set to anything but "" / "0" pins the generic
/// kernel.
bool force_generic() {
    const char* e = std::getenv("UPKIT_FORCE_SCALAR_SHA");
    return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}

}  // namespace

Sha256Impl sha256_impl() {
    static const Sha256Impl impl = [] {
        if (force_generic()) return Sha256Impl::kGeneric;
#if defined(UPKIT_SHA_X86)
        if (cpu_has_sha_ni()) return Sha256Impl::kShaNi;
#endif
#if defined(UPKIT_SHA_NEON)
        if (cpu_has_neon_sha2()) return Sha256Impl::kNeon;
#endif
        return Sha256Impl::kGeneric;
    }();
    return impl;
}

const char* sha256_impl_name(Sha256Impl impl) {
    switch (impl) {
        case Sha256Impl::kShaNi: return "sha-ni";
        case Sha256Impl::kNeon: return "neon";
        case Sha256Impl::kGeneric: break;
    }
    return "generic";
}

void sha256_compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                     std::size_t blocks) {
    switch (sha256_impl()) {
#if defined(UPKIT_SHA_X86)
        case Sha256Impl::kShaNi: compress_shani(state.data(), data, blocks); return;
#endif
#if defined(UPKIT_SHA_NEON)
        case Sha256Impl::kNeon: compress_neon(state.data(), data, blocks); return;
#endif
        default: break;
    }
    sha256_compress_generic(state, data, blocks);
}

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

}  // namespace upkit::crypto
