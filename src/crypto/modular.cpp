#include "crypto/modular.hpp"

#include <cassert>

#include "crypto/ct.hpp"

namespace upkit::crypto {

using u128 = unsigned __int128;

namespace {

// The P-256 field prime p = 2^256 - 2^224 + 2^192 + 2^96 - 1.
constexpr U256 kP256Prime{{~std::uint64_t{0}, 0x00000000ffffffff, 0, 0xffffffff00000001}};

// -n^-1 mod 2^64 by Newton iteration (n odd).
std::uint64_t neg_inv64(std::uint64_t n) {
    std::uint64_t x = n;  // correct to 3 bits
    for (int i = 0; i < 5; ++i) x *= 2 - n * x;  // doubles correct bits each step
    return ~x + 1;  // -(n^-1)
}

// lo:hi = x * y, the one place a 128-bit value remains.
inline void mul64(std::uint64_t x, std::uint64_t y, std::uint64_t& lo, std::uint64_t& hi) {
    const u128 p = static_cast<u128>(x) * y;
    lo = static_cast<std::uint64_t>(p);
    hi = static_cast<std::uint64_t>(p >> 64);
}

// Branchless final reduction of t = top * 2^256 + low < 2n (top is 0 or 1).
inline U256 final_reduce(const U256& low, std::uint64_t top, const U256& n) {
    U256 reduced;
    const std::uint64_t borrow = ::upkit::crypto::sub(reduced, low, n);
    const std::uint64_t take = ct::mask_from_bit(ct::nonzero_bit(top) | (borrow ^ 1));
    return ct_select(take, reduced, low);
}

// The Montgomery product for n = p, in SOS form: the whole 512-bit a * b,
// then four reduction rounds. p = -1 mod 2^64, so n0 = 1 and round i's m
// is limb i of t. Adding m * p * 2^(64 i) then takes no product for p's
// low limbs: t_i + m * (2^64 - 1) is exactly m * 2^64, and with limb 1's
// m * (2^32 - 1) * 2^64 that is m * 2^96, i.e. m << 32 into limb i + 1 and
// m >> 32 into limb i + 2. Limb 2 of p is 0, and limb 3 takes one 64x64
// product. Round i's m is limb i of a * b plus the multiples of p added so
// far, which is the m of CIOS round i, so this body adds the same multiple
// of p as the generic one and returns the same bits for every input.
inline U256 mul_p256(const U256& a, const U256& b) {
    std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0, t6 = 0, t7 = 0;
    std::uint64_t lo[4], hi[4];
    // r0..r4 += a * y, where r4 is still unwritten. The carry out of r4 is
    // 0: after row i, t = a * (b mod 2^(64 (i + 1))) fits in limbs 0..i+4.
    const auto product_row = [&](std::uint64_t y, std::uint64_t& r0, std::uint64_t& r1,
                                 std::uint64_t& r2, std::uint64_t& r3, std::uint64_t& r4) {
        mul64(a.w[0], y, lo[0], hi[0]);
        mul64(a.w[1], y, lo[1], hi[1]);
        mul64(a.w[2], y, lo[2], hi[2]);
        mul64(a.w[3], y, lo[3], hi[3]);
        Carry c = adc(0, r0, lo[0], r0);
        c = adc(c, r1, lo[1], r1);
        c = adc(c, r2, lo[2], r2);
        c = adc(c, r3, lo[3], r3);
        r4 = c;
        c = adc(0, r1, hi[0], r1);
        c = adc(c, r2, hi[1], r2);
        c = adc(c, r3, hi[2], r3);
        (void)adc(c, r4, hi[3], r4);
    };
    product_row(b.w[0], t0, t1, t2, t3, t4);
    product_row(b.w[1], t1, t2, t3, t4, t5);
    product_row(b.w[2], t2, t3, t4, t5, t6);
    product_row(b.w[3], t3, t4, t5, t6, t7);

    // t += m * p * 2^(64 i) with m = limb i, for i = 0..3. A round's carry
    // out of its top limb rides in the next round's top addition (the last
    // one's is the result's top bit): the high word of m * p's top limb is
    // at most 2^64 - 2^32, so adding 1 to it cannot wrap.
    std::uint64_t carry = 0;
    const auto reduce_round = [&](std::uint64_t m, std::uint64_t& r1, std::uint64_t& r2,
                                  std::uint64_t& r3, std::uint64_t& r4) {
        std::uint64_t m_lo, m_hi;
        mul64(m, kP256Prime.w[3], m_lo, m_hi);
        Carry c = adc(0, r1, m << 32, r1);
        c = adc(c, r2, m >> 32, r2);
        c = adc(c, r3, m_lo, r3);
        carry = adc(c, r4, m_hi + carry, r4);
    };
    reduce_round(t0, t1, t2, t3, t4);
    reduce_round(t1, t2, t3, t4, t5);
    reduce_round(t2, t3, t4, t5, t6);
    reduce_round(t3, t4, t5, t6, t7);
    return final_reduce(U256{{t4, t5, t6, t7}}, carry, kP256Prime);
}

}  // namespace

Montgomery::Montgomery(const U256& modulus) : n_(modulus) {
    assert(modulus.is_odd());
    assert(modulus.bit(255));
    n0_ = neg_inv64(n_.w[0]);
    p256_prime_ = modulus == kP256Prime;

    // R mod n = 2^256 - n (since 2^255 <= n < 2^256), reduced once more if needed.
    U256 zero{};
    ::upkit::crypto::sub(r_mod_n_, zero, n_);  // wraps: 2^256 - n
    if (r_mod_n_ >= n_) ::upkit::crypto::sub(r_mod_n_, r_mod_n_, n_);

    // R^2 mod n via 256 modular doublings of R mod n.
    U256 r2 = r_mod_n_;
    for (int i = 0; i < 256; ++i) r2 = add(r2, r2);
    r2_ = r2;
}

U256 Montgomery::add(const U256& a, const U256& b) const {
    // Branchless final reduction: both the carry-out and the trial
    // subtraction are computed unconditionally, then mask-selected, so the
    // sequence of operations never depends on the (possibly secret) values.
    U256 out;
    const std::uint64_t carry = ::upkit::crypto::add(out, a, b);
    U256 reduced;
    const std::uint64_t borrow = ::upkit::crypto::sub(reduced, out, n_);
    const std::uint64_t take = ct::mask_from_bit(carry | (borrow ^ 1));
    return ct_select(take, reduced, out);
}

U256 Montgomery::sub(const U256& a, const U256& b) const {
    U256 out;
    const std::uint64_t borrow = ::upkit::crypto::sub(out, a, b);
    U256 wrapped;
    ::upkit::crypto::add(wrapped, out, n_);
    return ct_select(ct::mask_from_bit(borrow), wrapped, out);
}

U256 Montgomery::mul(const U256& a, const U256& b) const {
    // Which body runs depends on the modulus alone, which is public.
    if (p256_prime_) return mul_p256(a, b);

    // CIOS: coarsely integrated operand scanning, 4x64-bit limbs. Each row
    // x * y (x = a or n, y one word) is four 64x64->128 products; their low
    // words and their high words (one limb up) are added into t in two
    // carry chains, so every addition runs on the carry pair.
    std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;  // t < 2n between rounds
    std::uint64_t lo[4], hi[4];
    auto row = [&](const U256& x, std::uint64_t y) {
        mul64(x.w[0], y, lo[0], hi[0]);
        mul64(x.w[1], y, lo[1], hi[1]);
        mul64(x.w[2], y, lo[2], hi[2]);
        mul64(x.w[3], y, lo[3], hi[3]);
    };

    for (std::size_t i = 0; i < 4; ++i) {
        // t += a * b[i]; t5 takes the carry out of the top word.
        row(a, b.w[i]);
        Carry c = adc(0, t0, lo[0], t0);
        c = adc(c, t1, lo[1], t1);
        c = adc(c, t2, lo[2], t2);
        c = adc(c, t3, lo[3], t3);
        t4 += c;  // t4 <= 1 before, so no carry out
        c = adc(0, t1, hi[0], t1);
        c = adc(c, t2, hi[1], t2);
        c = adc(c, t3, hi[2], t3);
        c = adc(c, t4, hi[3], t4);
        std::uint64_t t5 = c;

        // m = t0 * n0 mod 2^64; t += m * n, which zeroes t0; t >>= 64.
        row(n_, t0 * n0_);
        c = adc(0, t0, lo[0], t0);
        c = adc(c, t1, lo[1], t1);
        c = adc(c, t2, lo[2], t2);
        c = adc(c, t3, lo[3], t3);
        c = adc(c, t4, 0, t4);
        t5 += c;
        c = adc(0, t1, hi[0], t0);
        c = adc(c, t2, hi[1], t1);
        c = adc(c, t3, hi[2], t2);
        c = adc(c, t4, hi[3], t3);
        t4 = t5 + c;
    }

    return final_reduce(U256{{t0, t1, t2, t3}}, t4, n_);  // t4 is 0 or 1 here
}

U256 Montgomery::pow(const U256& a, const U256& e) const {
    U256 result = r_mod_n_;  // 1 in Montgomery form
    const int bits = e.bit_length();
    for (int i = bits - 1; i >= 0; --i) {
        result = sqr(result);
        if (e.bit(static_cast<unsigned>(i))) result = mul(result, a);
    }
    return result;
}

U256 Montgomery::inv(const U256& a) const {
    // a^(n-2) mod n, valid because both P-256 moduli in use are prime.
    // pow branches on the bits of n - 2 alone, never on a.
    U256 exp;
    U256 two = U256::from_u64(2);
    ::upkit::crypto::sub(exp, n_, two);
    return pow(a, exp);
}

U256 Montgomery::reduce(const U256& a) const {
    // One conditional subtraction suffices (a < 2^256 < 2n), mask-selected
    // so reduction of a secret scalar stays branch-free.
    U256 out;
    const std::uint64_t borrow = ::upkit::crypto::sub(out, a, n_);
    return ct_select(ct::mask_from_bit(borrow ^ 1), out, a);
}

}  // namespace upkit::crypto
