// Montgomery-form modular arithmetic for a fixed odd 256-bit modulus.
//
// One instance serves the P-256 field prime, another the group order, so
// the same code verifies signatures and runs the scalar arithmetic — the
// kind of code sharing UpKit relies on to stay within constrained-device
// flash budgets.
//
// Every limb addition and subtraction here runs on u256.hpp's carry pair
// (adc/sbb: the carry flag on x86-64, portable 128-bit C++ elsewhere and
// under MemorySanitizer). mul has two bodies, and the constructor picks
// one from the whole modulus. For the P-256 field prime p, which is -1 mod
// 2^64, mul forms the whole 512-bit product and reduces it in four rounds,
// each adding m * p as m << 32, m >> 32 and one 64x64 product by p's top
// limb (the route of Gueron-Krasnov and OpenSSL's ecp_nistz256). Every
// other modulus, the group order among them, takes CIOS with each row's
// 64x64->128 products added in two carry chains. Both add the same
// multiple of the modulus, so they return the same bits. add, sub and
// reduce are the inline U256 add/sub followed by a mask-selected
// correction. Nothing branches on an operand (mul's body depends on the
// public modulus alone), so all of them take secrets.
#pragma once

#include "crypto/u256.hpp"

namespace upkit::crypto {

class Montgomery {
public:
    /// `modulus` must be odd and > 2^255 (true for the P-256 prime and order).
    explicit Montgomery(const U256& modulus);

    const U256& modulus() const { return n_; }

    /// Montgomery representation of 1 (= R mod n).
    const U256& one() const { return r_mod_n_; }

    U256 to_mont(const U256& a) const { return mul(a, r2_); }
    U256 from_mont(const U256& a) const { return mul(a, U256::one()); }

    /// Montgomery product: a * b * R^-1 mod n (CIOS).
    U256 mul(const U256& a, const U256& b) const;
    U256 sqr(const U256& a) const { return mul(a, a); }

    /// Plain modular add/sub (valid in and out of Montgomery form).
    U256 add(const U256& a, const U256& b) const;
    U256 sub(const U256& a, const U256& b) const;

    /// a^e mod n for Montgomery-form a; result in Montgomery form.
    /// Square-and-multiply driven by the bits of `e`: which steps run
    /// depends on `e`, so the exponent must be public. The base only ever
    /// enters the branchless `mul`, so it may be secret. upkit-lint's
    /// `secret-inverse` rule flags every call in src/crypto for that audit.
    U256 pow(const U256& a, const U256& e) const;

    /// Multiplicative inverse a^(n-2) via Fermat (modulus must be prime);
    /// Montgomery form in, Montgomery form out, inv(0) == 0. The exponent
    /// n - 2 is a fixed public constant, so every call runs the same 256
    /// squarings and popcount(n - 2) multiplies whatever `a` is: the one
    /// inversion for secret inputs (the ECDSA nonce, the Jacobian z of a
    /// secret scalar multiple) and public ones alike.
    U256 inv(const U256& a) const;

    /// Reduces an arbitrary 256-bit value into [0, n).
    U256 reduce(const U256& a) const;

private:
    U256 n_;
    U256 r_mod_n_;   // 2^256 mod n
    U256 r2_;        // 2^512 mod n
    std::uint64_t n0_ = 0;  // -n^-1 mod 2^64
    bool p256_prime_ = false;  // n is the P-256 field prime: mul reduces by its shape
};

}  // namespace upkit::crypto
