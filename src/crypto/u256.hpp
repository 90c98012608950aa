// Fixed-width 256-bit unsigned integer arithmetic.
//
// Backbone of the P-256 field and scalar arithmetic. Four 64-bit
// little-endian limbs. Every limb addition and subtraction runs on one
// carry pair: adc() adds two words and a carry-in and returns the
// carry-out; sbb() subtracts with a borrow-in and returns the borrow-out.
// On x86-64 the pair is _addcarry_u64/_subborrow_u64, the ADC and SBB
// instructions (baseline x86-64, so no CPU dispatch), and a four-limb
// chain stays on the carry flag. Everywhere else, and under
// MemorySanitizer (UPKIT_CT_MSAN), it is the portable 128-bit body, so the
// ctcheck harness audits plain C++. That body is compiled on every host as
// adc_generic()/sbb_generic(), and a test compares it with the x86-64 one.
// Only 64x64->128 products still use the compiler's 128-bit type.
//
// add/sub and the constant-time masks and select are inline: they sit in
// the inner loops of the Montgomery product and the group law, where an
// out-of-line call costs more than the four-limb chain it runs.
//
// The limb primitives (add/sub/shifts) are constant-time: fixed iteration
// counts, no data-dependent branches. The comparison helpers split in two:
// cmp()/operator< are variable-time conveniences for public values, while
// ct_lt_mask()/ct_is_zero_mask()/ct_select() are the branchless forms the
// hardened secret-scalar kernels are written against.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"
#include "crypto/ct.hpp"

// ct.hpp defines UPKIT_CT_MSAN under MemorySanitizer, so it comes first.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && !defined(UPKIT_CT_MSAN)
#include <immintrin.h>
#define UPKIT_LIMB_X86 1
#endif

namespace upkit::crypto {

struct U256 {
    // w[0] is the least significant limb.
    std::array<std::uint64_t, 4> w{};

    static constexpr U256 zero() { return U256{}; }
    static constexpr U256 one() { return U256{{1, 0, 0, 0}}; }

    static U256 from_be_bytes(ByteSpan bytes32);
    static U256 from_u64(std::uint64_t v) { return U256{{v, 0, 0, 0}}; }
    /// Parses a big-endian hex string of up to 64 digits (no prefix).
    static U256 from_hex(std::string_view hex);

    void to_be_bytes(MutByteSpan out32) const;
    Bytes to_be_bytes() const;

    bool is_zero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
    bool is_odd() const { return (w[0] & 1) != 0; }

    /// Value of bit `i` (0 = LSB).
    bool bit(unsigned i) const { return ((w[i / 64] >> (i % 64)) & 1) != 0; }

    /// Index of the highest set bit, or -1 for zero.
    int bit_length() const;

    friend bool operator==(const U256& a, const U256& b) { return a.w == b.w; }
};

// ---- the carry pair -------------------------------------------------------

/// Carry or borrow between limb operations: 0 or 1.
using Carry = unsigned char;

/// Portable body: out = a + b + carry; returns the carry-out.
inline Carry adc_generic(Carry carry, std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
    const unsigned __int128 sum = static_cast<unsigned __int128>(a) + b + carry;
    out = static_cast<std::uint64_t>(sum);
    return static_cast<Carry>(sum >> 64);
}

/// Portable body: out = a - b - borrow; returns the borrow-out.
inline Carry sbb_generic(Carry borrow, std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
    const unsigned __int128 diff = static_cast<unsigned __int128>(a) - b - borrow;
    out = static_cast<std::uint64_t>(diff);
    return static_cast<Carry>((diff >> 64) & 1);
}

#ifdef UPKIT_LIMB_X86
/// x86-64 body: ADC.
inline Carry adc_x86(Carry carry, std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
    unsigned long long sum;
    const Carry c = _addcarry_u64(carry, a, b, &sum);
    out = sum;
    return c;
}

/// x86-64 body: SBB.
inline Carry sbb_x86(Carry borrow, std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
    unsigned long long diff;
    const Carry c = _subborrow_u64(borrow, a, b, &diff);
    out = diff;
    return c;
}
#endif

/// out = a + b + carry; returns the carry-out. The body is fixed at
/// compile time (see the header comment).
inline Carry adc(Carry carry, std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
#ifdef UPKIT_LIMB_X86
    return adc_x86(carry, a, b, out);
#else
    return adc_generic(carry, a, b, out);
#endif
}

/// out = a - b - borrow; returns the borrow-out.
inline Carry sbb(Carry borrow, std::uint64_t a, std::uint64_t b, std::uint64_t& out) {
#ifdef UPKIT_LIMB_X86
    return sbb_x86(borrow, a, b, out);
#else
    return sbb_generic(borrow, a, b, out);
#endif
}

// ---- 256-bit operations ----------------------------------------------------

/// Three-way compare: -1, 0, +1. Variable-time (limb-wise early exit);
/// for secret operands use ct_lt_mask().
int cmp(const U256& a, const U256& b);
inline bool operator<(const U256& a, const U256& b) { return cmp(a, b) < 0; }
inline bool operator>=(const U256& a, const U256& b) { return cmp(a, b) >= 0; }

/// out = a + b; returns the carry-out (0 or 1). `out` may alias a or b.
inline std::uint64_t add(U256& out, const U256& a, const U256& b) {
    Carry c = adc(0, a.w[0], b.w[0], out.w[0]);
    c = adc(c, a.w[1], b.w[1], out.w[1]);
    c = adc(c, a.w[2], b.w[2], out.w[2]);
    return adc(c, a.w[3], b.w[3], out.w[3]);
}

/// out = a - b; returns the borrow-out (0 or 1). `out` may alias a or b.
inline std::uint64_t sub(U256& out, const U256& a, const U256& b) {
    Carry c = sbb(0, a.w[0], b.w[0], out.w[0]);
    c = sbb(c, a.w[1], b.w[1], out.w[1]);
    c = sbb(c, a.w[2], b.w[2], out.w[2]);
    return sbb(c, a.w[3], b.w[3], out.w[3]);
}

/// Logical shifts.
U256 shl1(const U256& a);
U256 shr1(const U256& a);

// ---- constant-time helpers (secret-operand forms) -----------------------

/// All-ones mask if a == 0 else 0, without branching.
inline std::uint64_t ct_is_zero_mask(const U256& a) {
    return ct::is_zero_mask(a.w[0] | a.w[1] | a.w[2] | a.w[3]);
}

/// All-ones mask if a < b else 0, derived from the subtraction borrow.
inline std::uint64_t ct_lt_mask(const U256& a, const U256& b) {
    U256 difference;
    return ct::mask_from_bit(sub(difference, a, b));
}

/// mask ? a : b, limb-wise. `mask` must be all-ones or all-zeros.
inline U256 ct_select(std::uint64_t mask, const U256& a, const U256& b) {
    return U256{{ct::select(mask, a.w[0], b.w[0]), ct::select(mask, a.w[1], b.w[1]),
                 ct::select(mask, a.w[2], b.w[2]), ct::select(mask, a.w[3], b.w[3])}};
}

}  // namespace upkit::crypto
