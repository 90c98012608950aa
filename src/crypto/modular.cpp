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
    // CIOS: coarsely integrated operand scanning, 4x64-bit limbs.
    std::uint64_t t[6] = {};  // t[4] = high word, t[5] = extra carry bit

    for (std::size_t i = 0; i < 4; ++i) {
        // t += a * b[i]
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < 4; ++j) {
            const u128 s = static_cast<u128>(a.w[j]) * b.w[i] + t[j] + carry;
            t[j] = static_cast<std::uint64_t>(s);
            carry = static_cast<std::uint64_t>(s >> 64);
        }
        {
            const u128 s = static_cast<u128>(t[4]) + carry;
            t[4] = static_cast<std::uint64_t>(s);
            t[5] = static_cast<std::uint64_t>(s >> 64);
        }

        // m = t[0] * n0 mod 2^64; t += m * n; t >>= 64
        const std::uint64_t m = t[0] * n0_;
        {
            const u128 s = static_cast<u128>(m) * n_.w[0] + t[0];
            carry = static_cast<std::uint64_t>(s >> 64);
        }
        for (std::size_t j = 1; j < 4; ++j) {
            const u128 s = static_cast<u128>(m) * n_.w[j] + t[j] + carry;
            t[j - 1] = static_cast<std::uint64_t>(s);
            carry = static_cast<std::uint64_t>(s >> 64);
        }
        {
            const u128 s = static_cast<u128>(t[4]) + carry;
            t[3] = static_cast<std::uint64_t>(s);
            t[4] = t[5] + static_cast<std::uint64_t>(s >> 64);
            t[5] = 0;
        }
    }

    U256 out{{t[0], t[1], t[2], t[3]}};
    // Branchless final reduction (t[4] is 0 or 1 after the last round).
    U256 reduced;
    const std::uint64_t borrow = ::upkit::crypto::sub(reduced, out, n_);
    const std::uint64_t take = ct::mask_from_bit(ct::nonzero_bit(t[4]) | (borrow ^ 1));
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
