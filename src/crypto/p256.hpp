// NIST P-256 (secp256r1) elliptic-curve group operations.
//
// The paper fixes ECDSA over secp256r1 with SHA-256 as the signature suite
// all three of its crypto libraries must support (Sect. V); this is the
// from-scratch implementation every backend in this repo shares. Points are
// held in Jacobian coordinates with Montgomery-form field elements.
//
// Two scalar-multiplication accelerations ride on precomputed multiples:
// the fixed-base comb table for k*G (the signing hot path) and width-5 wNAF
// for variable-base k*P (the verification hot path) over a per-key
// Precomputed table that interleaves the walk over five 64-bit limb rows,
// so long-lived verification keys pay for their table exactly once.
// verify2_combination is the one walk over four points. Each group-law job
// has one body: one doubling and one mixed addition shared by the
// variable-time and constant-time walks, one wNAF digit fold, and one
// function that builds the comb, Booth and mul_ct rows. The plain
// double-and-add ladder the differential suite pins every fast path
// against is test code (P256Oracle, tests/support/), not part of this
// class.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "crypto/modular.hpp"
#include "crypto/u256.hpp"

namespace upkit::crypto {

/// Affine point in plain (non-Montgomery) form. (0, 0) is not on the curve
/// and is never produced; infinity is represented separately.
struct AffinePoint {
    U256 x;
    U256 y;
};

class P256 {
private:
    /// Jacobian point, coordinates in Montgomery form. Infinity <=> z == 0.
    struct Jacobian {
        U256 x, y, z;
        bool infinity() const { return z.is_zero(); }
    };

    /// Precomputed-table entry: affine point with coordinates in Montgomery
    /// form (z == 1 implicit), so table additions use the cheaper mixed
    /// formula.
    struct MontAffine {
        U256 x, y;
    };

public:
    /// Singleton: curve parameters are fixed and the Montgomery contexts are
    /// moderately expensive to build.
    static const P256& instance();

    /// Width-5 wNAF: nonzero digits are odd, in {±1, ±3, ..., ±15}, at
    /// least kWnafWidth - 1 zero digits apart.
    static constexpr unsigned kWnafWidth = 5;
    static constexpr unsigned kWnafOddEntries = 1u << (kWnafWidth - 2);
    /// A 256-bit scalar recodes to at most 257 digits (the carry can push
    /// one digit past the top bit).
    static constexpr unsigned kWnafMaxDigits = 257;

    /// Per-key precomputed table for the variable-base half of ECDSA
    /// verification. The wNAF walk is interleaved across one row of odd
    /// multiples per 64-bit limb of the scalar — plus an overflow row for
    /// the digit the wNAF carry can place at position 256 — cutting the
    /// doubling count from 256 to 64. Build once per long-lived key
    /// (vendor / update-server keys live for the device's lifetime) via
    /// P256::precompute().
    class Precomputed {
    public:
        static constexpr unsigned kRows = 5;       // limbs 0..3 + carry row
        static constexpr unsigned kRowShift = 64;  // row r holds 2^(64 r) * P

        Precomputed() = default;
        bool valid() const { return valid_; }

    private:
        friend class P256;
        // [row * kWnafOddEntries + j] = (2j + 1) * 2^(64 row) * P.
        std::array<MontAffine, kRows * kWnafOddEntries> table_{};
        bool valid_ = false;
    };

    const Montgomery& field() const { return fp_; }
    const Montgomery& order() const { return fn_; }

    /// Group order n.
    const U256& n() const { return fn_.modulus(); }

    const AffinePoint& generator() const { return g_; }

    /// True if (x, y) satisfies y^2 = x^3 - 3x + b and is in range.
    bool on_curve(const AffinePoint& p) const;

    /// k * G. Returns nullopt only for k == 0 mod n. Served from the
    /// fixed-base comb table: no doublings, one mixed addition per nonzero
    /// byte of the reduced scalar. Variable-time (the addition count and
    /// table indices are scalar-shaped) — for PUBLIC scalars only; secret
    /// scalars (signing nonces, private keys) go through mul_base_ct.
    std::optional<AffinePoint> mul_base(const U256& k) const;

    /// k * G for a SECRET scalar: signed 6-bit fixed-window (Booth) walk
    /// over a dedicated 43-row table of 32 entries, each digit fetched by
    /// scanning the full row with constant-time selects and folded in with
    /// a masked mixed addition — a fixed operation sequence with no
    /// secret-dependent branch or table index. ~2x the cost of the comb
    /// walk; the price of closing the nonce cache-timing channel on the
    /// signing path.
    std::optional<AffinePoint> mul_base_ct(const U256& k) const;

    /// k * P against a per-key table: the interleaved wNAF walk, 64
    /// doublings instead of 256. This is what the four ECDSA verifies per
    /// update ride on once the key's table exists.
    std::optional<AffinePoint> mul(const U256& k, const Precomputed& p) const;

    /// k * P for a SECRET scalar (the ECDH hot spot: device and ephemeral
    /// private keys). MSB-first 4-bit Booth windows over an on-the-fly row
    /// of {1..8}P with branchless doublings, constant-time row scans, and
    /// masked additions. Costs roughly the generic ladder; ECDH runs once
    /// per encrypted session, so constant-time is the only concern here.
    std::optional<AffinePoint> mul_ct(const U256& k, const AffinePoint& p) const;

    /// Builds the interleaved odd-multiples table for P (must be on curve,
    /// prime order — every public key is). ~45 group ops + one inversion;
    /// amortized to zero across a long-lived key's verifications.
    Precomputed precompute(const AffinePoint& p) const;

    /// u1*G + u2*P in one shot (ECDSA verification workhorse): comb for
    /// the fixed base, interleaved wNAF over P's table for the variable
    /// base.
    std::optional<AffinePoint> mul_add(const U256& u1, const U256& u2,
                                       const Precomputed& p) const;

    /// Batched double-ECDSA combination test with a randomized linear
    /// combination: decides whether, for some signs s1, s2 and some affine
    /// lift R1, R2 of the x-candidates of r1, r2,
    ///
    ///   (u1*G + u2*P1) + gamma * (u3*G + u4*P2) == s1*R1 + gamma*s2*R2.
    ///
    /// For honest signatures this holds exactly when both individually
    /// verify; for a forged pair it can only hold if gamma lands on one of
    /// a handful of adversary-determined residues mod n — probability
    /// <= 8/2^64 for a uniform 64-bit gamma drawn after the signatures are
    /// fixed. The whole test runs in Jacobian coordinates: one batched
    /// x-candidate lift (sqrt in F_p), one shared Strauss walk with
    /// -gamma*R2 folded in, and cross-multiplied x-comparisons against r1,
    /// so no final-inversion to_affine is ever paid. The two fixed-base
    /// terms collapse into one comb walk over u1 + gamma*u3, and both
    /// per-key tables fold their wNAF digits into the same 64 doublings.
    ///
    /// gamma must be in [1, 2^64). Returns nullopt for the one undecidable
    /// corner (both r2 and r2 + n are x-coordinates of curve points, which
    /// needs r2 + n < p — about 2^-130 of signatures); callers fall back
    /// to two sequential verifies there. Variable-time; PUBLIC inputs only.
    std::optional<bool> verify2_combination(const U256& u1, const U256& u2,
                                            const Precomputed& p1, const U256& r1,
                                            const U256& u3, const U256& u4,
                                            const Precomputed& p2, const U256& r2,
                                            std::uint64_t gamma) const;

private:
    // The reference ladder (tests/support/) walks the private Jacobian
    // group law below.
    friend class P256Oracle;

    P256();

    Jacobian to_jacobian(const AffinePoint& p) const;
    std::optional<AffinePoint> to_affine(const Jacobian& p) const;
    /// 2p; infinity (and the order-2 y == 0 case) maps to infinity.
    Jacobian dbl(const Jacobian& p) const;
    Jacobian add(const Jacobian& p, const Jacobian& q) const;
    /// p + q for affine q (madd-2007-bl); handles infinity/double/negate.
    Jacobian add_mixed(const Jacobian& p, const MontAffine& q) const;

    /// The dbl-2001-b formulas (a = -3), branch-free. dbl() and ct_dbl()
    /// are this body plus their trace note (and dbl()'s guard).
    Jacobian dbl_2001b(const Jacobian& p) const;
    /// The madd-2007-bl formulas (q affine), branch-free and with no
    /// special cases: add_mixed() and ct_add_mixed() resolve those on the
    /// result.
    Jacobian madd_2007bl(const Jacobian& p, const MontAffine& q) const;

    /// -q: field negation of y (never zero for on-curve points).
    MontAffine neg(const MontAffine& q) const;

    /// Montgomery's simultaneous-inversion trick: normalizes `count`
    /// non-infinity Jacobian points to Montgomery-affine with one field
    /// inversion total. Shared by build_rows() and precompute().
    void normalize_batch(const Jacobian* jac, MontAffine* out, std::size_t count) const;

    /// out[w * entries + j - 1] = j * 2^(window_bits * w) * p for w in
    /// [0, windows) and j in [1, entries]: the comb table, the Booth table
    /// and mul_ct's row. Every such scalar must be nonzero mod n.
    void build_rows(const AffinePoint& p, unsigned windows, unsigned window_bits,
                    unsigned entries, MontAffine* out) const;

    /// out[j] = (2j + 1) * base for j in [0, kWnafOddEntries): base, then
    /// repeated additions of 2*base.
    void build_odd_row(const Jacobian& base, Jacobian* out) const;

    /// Width-5 wNAF recoding of k (must be < 2^256 - 15 — any reduced
    /// scalar qualifies). Writes up to kWnafMaxDigits signed digits, LSB
    /// first; returns the count. Unwritten digits are untouched, so
    /// zero-initialize when reading fixed positions.
    static int wnaf_recode(U256 k, std::int8_t* digits);

    /// Folds wNAF digit d of `pre`'s row `row` into acc: one mixed
    /// addition of ±|d| * 2^(64 row) * P, nothing for d == 0.
    void fold_wnaf(Jacobian& acc, const Precomputed& pre, unsigned row, int d) const;

    /// Interleaved wNAF walk over a per-key table (64 doublings).
    Jacobian wnaf_mul(const U256& k, const Precomputed& pre) const;

    /// -q in Jacobian coordinates (field negation of y).
    Jacobian jneg(const Jacobian& q) const;

    /// Square root in F_p, Montgomery form: a^((p+1)/4) via a 253S + 7M
    /// addition chain (p ≡ 3 mod 4). nullopt when a is a non-residue.
    std::optional<U256> sqrt_mont(const U256& a) const;

    /// Sum of comb-table entries for the byte digits of k (k in [1, n)).
    Jacobian comb_mul_base(const U256& k) const;

    // ---- constant-time (secret-scalar) machinery ------------------------

    /// Signed (Booth) window widths, one per caller. mul_base_ct reads a
    /// table built once, so it takes 6-bit windows: 42 windows cover bits
    /// 0..251 and a 43rd absorbs bits 252..255 and the recoding carry,
    /// magnitudes in [0, 32] (the last one in [0, 16]). mul_ct builds its
    /// row on every call, so it keeps 4-bit windows: 64 plus the carry at
    /// position 256, magnitudes in [0, 8].
    static constexpr unsigned kCtBaseWindowBits = 6;
    static constexpr unsigned kCtBaseWindows = 256 / kCtBaseWindowBits + 1;  // 43
    static constexpr unsigned kCtBaseRowEntries = 1u << (kCtBaseWindowBits - 1);  // 32
    static constexpr unsigned kCtMulWindowBits = 4;
    static constexpr unsigned kCtMulWindows = 256 / kCtMulWindowBits + 1;  // 65
    static constexpr unsigned kCtMulRowEntries = 1u << (kCtMulWindowBits - 1);  // 8

    /// Branchless doubling: dbl_2001b() with no guard. The formulas are
    /// complete for infinity (z = 0 gives z3 = (y + z)^2 - y^2 - z^2 =
    /// 2yz = 0, and the all-zero encoding maps to itself); y == 0 would be
    /// an order-2 point, which P-256 lacks.
    Jacobian ct_dbl(const Jacobian& p) const;

    /// Masked mixed addition: madd-2007-bl computed unconditionally, with
    /// the p-is-infinity and q-is-zero cases resolved by constant-time
    /// selects instead of branches. The exceptional same-x cases (double /
    /// inverse) are unreachable for mul_base_ct's partial sums and need a
    /// ~2^-250 coincidence in mul_ct's (see the analyses in the .cpp).
    Jacobian ct_add_mixed(const Jacobian& p, const MontAffine& q,
                          std::uint64_t q_zero_mask) const;

    /// Scans all `count` entries of `row`, accumulating the one whose
    /// 1-based index equals `magnitude` ((0, 0) when magnitude == 0), then
    /// conditionally negates y under `neg_mask`.
    MontAffine ct_select_entry(const MontAffine* row, unsigned count,
                               std::uint64_t magnitude, std::uint64_t neg_mask) const;

    /// Fixed-sequence Booth walk over the dedicated base-point table:
    /// 43 full-row scans and 43 masked additions, zero doublings, no
    /// secret-dependent control flow. k must be reduced and nonzero.
    Jacobian ct_booth_mul_base(const U256& k) const;

    // One 255-entry row per byte of the scalar: row w holds
    // {1..255} * 2^(8w) * G, so k*G is a sum of at most 32 mixed additions
    // with no doublings. All rows are batch-normalized to affine with a
    // single field inversion at construction.
    static constexpr unsigned kCombWindowBits = 8;
    static constexpr unsigned kCombWindows = 256 / kCombWindowBits;
    static constexpr unsigned kCombRowEntries = (1u << kCombWindowBits) - 1;

    Montgomery fp_;
    Montgomery fn_;
    AffinePoint g_;
    U256 b_mont_;  // curve coefficient b, Montgomery form
    std::vector<MontAffine> comb_;  // [window * kCombRowEntries + digit - 1]
    // Booth table for the constant-time fixed-base walk (88 KB):
    // [window * kCtBaseRowEntries + j - 1] = j * 2^(6 window) * G, j in [1, 32].
    std::vector<MontAffine> ct_base_;
};

}  // namespace upkit::crypto
