#include "crypto/modular.hpp"

#include <cassert>

#include "crypto/ct.hpp"

namespace upkit::crypto {

using u128 = unsigned __int128;

namespace {

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

}  // namespace

Montgomery::Montgomery(const U256& modulus) : n_(modulus) {
    assert(modulus.is_odd());
    assert(modulus.bit(255));
    n0_ = neg_inv64(n_.w[0]);

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

    const U256 out{{t0, t1, t2, t3}};
    // Branchless final reduction (t4 is 0 or 1 after the last round).
    U256 reduced;
    const std::uint64_t borrow = ::upkit::crypto::sub(reduced, out, n_);
    const std::uint64_t take = ct::mask_from_bit(ct::nonzero_bit(t4) | (borrow ^ 1));
    return ct_select(take, reduced, out);
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
