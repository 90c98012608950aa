#include "crypto/p256.hpp"

#include "crypto/ct.hpp"

namespace upkit::crypto {

namespace {

const char* kPrimeHex = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
const char* kOrderHex = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";
const char* kBHex = "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";
const char* kGxHex = "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296";
const char* kGyHex = "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5";

/// One Booth (signed fixed-window) digit: value is
/// neg_mask ? -magnitude : magnitude, magnitude in [0, 2^(bits-1)].
struct BoothDigit {
    std::uint64_t magnitude;
    std::uint64_t neg_mask;  // all-ones when negative
};

/// Digit w of the width-`bits` Booth recoding of k: the (bits+1)-bit window
/// of (k << 1) at bit bits*w (i.e. bits bits*w-1 .. bits*w+bits-1 of k,
/// with b_{-1} = 0 and bits above 255 read as 0), folded to a signed digit
/// of weight 2^(bits*w). The last window, 256/bits, absorbs the final
/// recoding carry. Branch-free in k; `window` and `bits` are public.
BoothDigit booth(const U256& k, unsigned window, unsigned bits) {
    const std::uint64_t mask = (std::uint64_t{1} << (bits + 1)) - 1;
    std::uint64_t v;
    if (window == 0) {
        v = (k.w[0] << 1) & mask;
    } else {
        const unsigned bitpos = bits * window - 1;
        const unsigned limb = bitpos / 64;
        const unsigned off = bitpos % 64;
        std::uint64_t chunk = k.w[limb] >> off;
        if (off + bits + 1 > 64 && limb + 1 < 4) chunk |= k.w[limb + 1] << (64 - off);
        v = chunk & mask;
    }
    const std::uint64_t s = ct::mask_from_bit(v >> bits);
    const std::uint64_t d = ct::select(s, mask - v, v);
    return BoothDigit{(d >> 1) + (d & 1), s};
}

}  // namespace

const P256& P256::instance() {
    static const P256 curve;
    return curve;
}

P256::P256()
    : fp_(U256::from_hex(kPrimeHex)),
      fn_(U256::from_hex(kOrderHex)),
      g_{U256::from_hex(kGxHex), U256::from_hex(kGyHex)},
      comb_(kCombWindows * kCombRowEntries),
      ct_base_(kCtBaseWindows * kCtBaseRowEntries) {
    b_mont_ = fp_.to_mont(U256::from_hex(kBHex));
    // No entry of either table is infinity: a comb scalar d * 2^(8w) is in
    // [1, n-1] (255 * 2^248 < n), and a Booth scalar j * 2^(6w) with
    // j <= 32 is never divisible by the prime n.
    build_rows(g_, kCombWindows, kCombWindowBits, kCombRowEntries, comb_.data());
    build_rows(g_, kCtBaseWindows, kCtBaseWindowBits, kCtBaseRowEntries, ct_base_.data());
}

bool P256::on_curve(const AffinePoint& p) const {
    if (p.x >= fp_.modulus() || p.y >= fp_.modulus()) return false;
    const U256 x = fp_.to_mont(p.x);
    const U256 y = fp_.to_mont(p.y);
    // y^2 == x^3 - 3x + b
    const U256 y2 = fp_.sqr(y);
    U256 rhs = fp_.mul(fp_.sqr(x), x);
    const U256 three_x = fp_.add(fp_.add(x, x), x);
    rhs = fp_.sub(rhs, three_x);
    rhs = fp_.add(rhs, b_mont_);
    return y2 == rhs;
}

P256::Jacobian P256::to_jacobian(const AffinePoint& p) const {
    return Jacobian{fp_.to_mont(p.x), fp_.to_mont(p.y), fp_.one()};
}

std::optional<AffinePoint> P256::to_affine(const Jacobian& p) const {
    // Whether a scalar multiple is the identity is public by protocol
    // (callers reject k == 0 before, or treat nullopt as a public error).
    if (ct::declassify_value(p.infinity())) return std::nullopt;
    const U256 zinv = fp_.inv(p.z);
    const U256 zinv2 = fp_.sqr(zinv);
    const U256 zinv3 = fp_.mul(zinv2, zinv);
    return AffinePoint{fp_.from_mont(fp_.mul(p.x, zinv2)), fp_.from_mont(fp_.mul(p.y, zinv3))};
}

P256::Jacobian P256::dbl_2001b(const Jacobian& p) const {
    // dbl-2001-b formulas specialized for a = -3.
    const U256 delta = fp_.sqr(p.z);
    const U256 gamma = fp_.sqr(p.y);
    const U256 beta = fp_.mul(p.x, gamma);
    const U256 x_minus_delta = fp_.sub(p.x, delta);
    const U256 alpha = fp_.mul(fp_.add(fp_.add(x_minus_delta, x_minus_delta), x_minus_delta),
                               fp_.add(p.x, delta));
    const U256 two_beta = fp_.add(beta, beta);
    const U256 four_beta = fp_.add(two_beta, two_beta);
    const U256 x3 = fp_.sub(fp_.sub(fp_.sqr(alpha), four_beta), four_beta);
    const U256 z3 = fp_.sub(fp_.sub(fp_.sqr(fp_.add(p.y, p.z)), gamma), delta);
    const U256 gamma2 = fp_.sqr(gamma);
    const U256 two_gamma2 = fp_.add(gamma2, gamma2);
    const U256 four_gamma2 = fp_.add(two_gamma2, two_gamma2);
    const U256 eight_gamma2 = fp_.add(four_gamma2, four_gamma2);
    const U256 y3 = fp_.sub(fp_.mul(alpha, fp_.sub(four_beta, x3)), eight_gamma2);
    return Jacobian{x3, y3, z3};
}

P256::Jacobian P256::dbl(const Jacobian& p) const {
    ct::trace_note(ct::kTraceDbl);
    if (p.infinity() || p.y.is_zero()) return Jacobian{};  // 2*inf = inf; y=0 is order-2 (absent on P-256)
    return dbl_2001b(p);
}

P256::Jacobian P256::add(const Jacobian& p, const Jacobian& q) const {
    ct::trace_note(ct::kTraceAdd);
    if (p.infinity()) return q;
    if (q.infinity()) return p;
    // add-2007-bl.
    const U256 z1z1 = fp_.sqr(p.z);
    const U256 z2z2 = fp_.sqr(q.z);
    const U256 u1 = fp_.mul(p.x, z2z2);
    const U256 u2 = fp_.mul(q.x, z1z1);
    const U256 s1 = fp_.mul(fp_.mul(p.y, q.z), z2z2);
    const U256 s2 = fp_.mul(fp_.mul(q.y, p.z), z1z1);
    const U256 h = fp_.sub(u2, u1);
    const U256 s2_minus_s1 = fp_.sub(s2, s1);
    const U256 r = fp_.add(s2_minus_s1, s2_minus_s1);
    if (h.is_zero()) {
        if (r.is_zero()) return dbl(p);  // same point
        return Jacobian{};               // P + (-P) = infinity
    }
    const U256 i = fp_.sqr(fp_.add(h, h));
    const U256 j = fp_.mul(h, i);
    const U256 v = fp_.mul(u1, i);
    U256 x3 = fp_.sub(fp_.sub(fp_.sqr(r), j), fp_.add(v, v));
    const U256 s1j = fp_.mul(s1, j);
    const U256 y3 = fp_.sub(fp_.mul(r, fp_.sub(v, x3)), fp_.add(s1j, s1j));
    const U256 z3 =
        fp_.mul(fp_.sub(fp_.sub(fp_.sqr(fp_.add(p.z, q.z)), z1z1), z2z2), h);
    return Jacobian{x3, y3, z3};
}

P256::Jacobian P256::madd_2007bl(const Jacobian& p, const MontAffine& q) const {
    // madd-2007-bl (q affine, z2 = 1).
    const U256 z1z1 = fp_.sqr(p.z);
    const U256 u2 = fp_.mul(q.x, z1z1);
    const U256 s2 = fp_.mul(fp_.mul(q.y, p.z), z1z1);
    const U256 h = fp_.sub(u2, p.x);
    const U256 s2_minus_y1 = fp_.sub(s2, p.y);
    const U256 r = fp_.add(s2_minus_y1, s2_minus_y1);
    const U256 hh = fp_.sqr(h);
    const U256 two_hh = fp_.add(hh, hh);
    const U256 i = fp_.add(two_hh, two_hh);
    const U256 j = fp_.mul(h, i);
    const U256 v = fp_.mul(p.x, i);
    const U256 x3 = fp_.sub(fp_.sub(fp_.sqr(r), j), fp_.add(v, v));
    const U256 yj = fp_.mul(p.y, j);
    const U256 y3 = fp_.sub(fp_.mul(r, fp_.sub(v, x3)), fp_.add(yj, yj));
    const U256 z3 = fp_.sub(fp_.sub(fp_.sqr(fp_.add(p.z, h)), z1z1), hh);
    return Jacobian{x3, y3, z3};
}

P256::Jacobian P256::add_mixed(const Jacobian& p, const MontAffine& q) const {
    ct::trace_note(ct::kTraceMadd);
    if (p.infinity()) return Jacobian{q.x, q.y, fp_.one()};
    // z3 = 2*z1*h with z1 != 0, so z3 == 0 exactly when h == 0 (p == ±q);
    // then x3 = r^2, which is 0 exactly when p == q (double) and not when
    // p == -q (infinity).
    const Jacobian sum = madd_2007bl(p, q);
    if (sum.z.is_zero()) return sum.x.is_zero() ? dbl(p) : Jacobian{};
    return sum;
}

void P256::normalize_batch(const Jacobian* jac, MontAffine* out, std::size_t count) const {
    // Montgomery's simultaneous-inversion trick: prefix products of the
    // z coordinates, one inv of the total, then peel z_i^-1 back out.
    // Callers guarantee no input is infinity (z == 0 would poison the run).
    std::vector<U256> prefix(count);
    U256 run = fp_.one();
    for (std::size_t i = 0; i < count; ++i) {
        run = fp_.mul(run, jac[i].z);
        prefix[i] = run;
    }
    // (z_0 ... z_{count-1})^-1; normalizes public precomputed tables.
    U256 inv_tail = fp_.inv(prefix[count - 1]);
    for (std::size_t i = count; i-- > 0;) {
        const U256 zinv = i == 0 ? inv_tail : fp_.mul(inv_tail, prefix[i - 1]);
        inv_tail = fp_.mul(inv_tail, jac[i].z);
        const U256 zinv2 = fp_.sqr(zinv);
        out[i].x = fp_.mul(jac[i].x, zinv2);
        out[i].y = fp_.mul(jac[i].y, fp_.mul(zinv2, zinv));
    }
}

void P256::build_rows(const AffinePoint& p, unsigned windows, unsigned window_bits,
                      unsigned entries, MontAffine* out) const {
    // Row w holds {1..entries} * B_w where B_w = 2^(window_bits * w) * P,
    // built by repeated addition in Jacobian coordinates, then normalized
    // with one inversion (which is why no entry may be infinity).
    std::vector<Jacobian> jac(windows * entries);
    Jacobian base = to_jacobian(p);
    for (unsigned w = 0; w < windows; ++w) {
        Jacobian* row = jac.data() + w * entries;
        row[0] = base;
        for (unsigned j = 1; j < entries; ++j) row[j] = add(row[j - 1], base);
        if (w + 1 < windows) {
            for (unsigned b = 0; b < window_bits; ++b) base = dbl(base);
        }
    }
    normalize_batch(jac.data(), out, jac.size());
}

P256::Jacobian P256::comb_mul_base(const U256& k) const {
    // k = sum of byte digits b_w * 256^w: add the precomputed multiple for
    // each nonzero digit. Partial sums equal k mod 2^(8(w+1)), which for
    // reduced nonzero k is never 0 mod n — no intermediate infinity.
    Jacobian acc{};
    for (unsigned w = 0; w < kCombWindows; ++w) {
        const unsigned digit =
            static_cast<unsigned>(k.w[w / 8] >> (8 * (w % 8))) & 0xff;
        if (digit != 0) {
            acc = add_mixed(acc, comb_[w * kCombRowEntries + digit - 1]);
        }
    }
    return acc;
}

P256::MontAffine P256::neg(const MontAffine& q) const {
    // On-curve points never have y == 0 on P-256 (no order-2 point), so the
    // Montgomery-form y is nonzero and sub() lands in [1, p-1].
    return MontAffine{q.x, fp_.sub(U256::zero(), q.y)};
}

void P256::build_odd_row(const Jacobian& base, Jacobian* out) const {
    // out[j] = (2j + 1) * base. base has prime order n and every table
    // scalar is in [1, 2^(kWnafWidth-1) - 1], so no entry is infinity.
    const Jacobian twice = dbl(base);
    out[0] = base;
    for (unsigned j = 1; j < kWnafOddEntries; ++j) out[j] = add(out[j - 1], twice);
}

P256::Jacobian P256::ct_dbl(const Jacobian& p) const {
    ct::trace_note(ct::kTraceCtDbl);
    return dbl_2001b(p);
}

P256::Jacobian P256::ct_add_mixed(const Jacobian& p, const MontAffine& q,
                                  std::uint64_t q_zero_mask) const {
    ct::trace_note(ct::kTraceCtMadd);
    // madd-2007-bl computed unconditionally; the special cases are resolved
    // by mask-selects afterwards, so the operation sequence is fixed.
    const Jacobian sum = madd_2007bl(p, q);
    // p == infinity: the sum is q lifted to Jacobian (z = 1).
    const std::uint64_t p_inf = ct_is_zero_mask(p.z);
    Jacobian out{ct_select(p_inf, q.x, sum.x), ct_select(p_inf, q.y, sum.y),
                 ct_select(p_inf, fp_.one(), sum.z)};
    // q == 0 (a zero Booth digit): keep p. Applied last, so an all-zero q
    // against an infinite p still yields infinity.
    out.x = ct_select(q_zero_mask, p.x, out.x);
    out.y = ct_select(q_zero_mask, p.y, out.y);
    out.z = ct_select(q_zero_mask, p.z, out.z);
    // The remaining exceptional case (h == 0 with q live: p == ±q) is not
    // masked; see the caller-side analysis in ct_booth_mul_base / mul_ct.
    return out;
}

P256::MontAffine P256::ct_select_entry(const MontAffine* row, unsigned count,
                                       std::uint64_t magnitude,
                                       std::uint64_t neg_mask) const {
    ct::trace_note(ct::kTraceCtSelect);
    // Touch every entry; accumulate the match with mask-selects so neither
    // the branch pattern nor the cache footprint depends on the digit.
    MontAffine out{U256::zero(), U256::zero()};
    for (unsigned j = 1; j <= count; ++j) {
        const std::uint64_t m = ct::eq_mask(j, magnitude);
        out.x = ct_select(m, row[j - 1].x, out.x);
        out.y = ct_select(m, row[j - 1].y, out.y);
    }
    // Negative digit: y -> p - y (a no-op on the magnitude-0 zero entry).
    out.y = ct_select(neg_mask, fp_.sub(U256::zero(), out.y), out.y);
    return out;
}

P256::Jacobian P256::ct_booth_mul_base(const U256& k) const {
    // LSB-first walk: one full-row scan plus one masked mixed addition per
    // window, 43 of each, no doublings — a fixed operation sequence for
    // every scalar.
    //
    // Masked-add exceptional case: madd breaks silently when the partial
    // sum equals ±q (h == 0 with q live). Before window m the partial sum
    // is the Booth prefix P = (k mod 2^(6m)) - b_(6m-1) * 2^(6m), an
    // integer with |P| <= 2^(6m-1); P == 0 is the masked infinity case.
    // Window m's entry is ±j * 2^(6m) with 1 <= j <= 32, so as integers
    // P != ±entry, and a collision needs P ∓ j * 2^(6m) to be a nonzero
    // multiple of n. Its size is below 2^(6m-1) + 2^(6m+5) < 2^(6m+6),
    // under n > 2^255 for every m <= 41. At the last window, m = 42, bits
    // 256 and 257 are 0, so the digit d is in [0, 16] and P = k - d*2^252.
    // P == -d*2^252 (mod n) would mean k == 0 mod n, which is excluded;
    // P == +d*2^252 means k == d*2^253 (mod n), and none of those 16
    // residues has d as its own last digit (p256_diff_test runs each). No
    // reduced nonzero scalar reaches an exceptional addition.
    Jacobian acc{};
    for (unsigned w = 0; w < kCtBaseWindows; ++w) {
        const BoothDigit d = booth(k, w, kCtBaseWindowBits);
        const MontAffine entry =
            ct_select_entry(ct_base_.data() + w * kCtBaseRowEntries, kCtBaseRowEntries,
                            d.magnitude, d.neg_mask);
        acc = ct_add_mixed(acc, entry, ct::is_zero_mask(d.magnitude));
    }
    return acc;
}

int P256::wnaf_recode(U256 k, std::int8_t* digits) {
    constexpr unsigned kWindow = 1u << kWnafWidth;  // 32
    int len = 0;
    while (!k.is_zero()) {
        int d = 0;
        if (k.is_odd()) {
            // Centered remainder mod 32: odd d in [-15, 15]; subtracting it
            // leaves k ≡ 0 mod 32, forcing ≥ 4 zero digits after each
            // nonzero one (the 1/(w+1) density that makes wNAF fast).
            const unsigned m = static_cast<unsigned>(k.w[0]) & (kWindow - 1);
            d = m > kWindow / 2 ? static_cast<int>(m) - static_cast<int>(kWindow)
                                : static_cast<int>(m);
            const U256 mag = U256::from_u64(static_cast<std::uint64_t>(d < 0 ? -d : d));
            // Free-function limb arithmetic (the member add() is the group
            // law); k < 2^256 - 15 for reduced inputs, so no carry out.
            if (d > 0) {
                crypto::sub(k, k, mag);
            } else {
                crypto::add(k, k, mag);
            }
        }
        digits[len++] = static_cast<std::int8_t>(d);
        k = shr1(k);
    }
    return len;
}

void P256::fold_wnaf(Jacobian& acc, const Precomputed& pre, unsigned row, int d) const {
    const MontAffine* entries = pre.table_.data() + row * kWnafOddEntries;
    if (d > 0) {
        acc = add_mixed(acc, entries[static_cast<unsigned>(d >> 1)]);
    } else if (d < 0) {
        acc = add_mixed(acc, neg(entries[static_cast<unsigned>((-d) >> 1)]));
    }
}

P256::Jacobian P256::wnaf_mul(const U256& k, const Precomputed& pre) const {
    // Interleaved walk: digit position 64*row + b is served by the row
    // holding 2^(64 row) * P, so one pass of 64 doublings covers all four
    // limbs at once. Position 256 — the one digit wNAF's carry can place
    // beyond the top bit — is the overflow row, folded in at b == 0.
    std::int8_t digits[kWnafMaxDigits] = {};
    (void)wnaf_recode(k, digits);
    Jacobian acc{};
    for (int b = Precomputed::kRowShift - 1; b >= 0; --b) {
        acc = dbl(acc);
        for (unsigned row = 0; row < 4; ++row) {
            const unsigned pos = Precomputed::kRowShift * row + static_cast<unsigned>(b);
            fold_wnaf(acc, pre, row, digits[pos]);
        }
        if (b == 0) fold_wnaf(acc, pre, 4, digits[256]);
    }
    return acc;
}

P256::Precomputed P256::precompute(const AffinePoint& p) const {
    std::array<Jacobian, Precomputed::kRows * kWnafOddEntries> jac;
    Jacobian base = to_jacobian(p);
    for (unsigned row = 0; row < Precomputed::kRows; ++row) {
        build_odd_row(base, jac.data() + row * kWnafOddEntries);
        if (row + 1 < Precomputed::kRows) {
            for (unsigned i = 0; i < Precomputed::kRowShift; ++i) base = dbl(base);
        }
    }
    Precomputed out;
    normalize_batch(jac.data(), out.table_.data(), jac.size());
    out.valid_ = true;
    return out;
}

std::optional<AffinePoint> P256::mul_base(const U256& k) const {
    const U256 k_reduced = fn_.reduce(k);
    if (k_reduced.is_zero()) return std::nullopt;
    return to_affine(comb_mul_base(k_reduced));
}

std::optional<AffinePoint> P256::mul_base_ct(const U256& k) const {
    // reduce() is branchless; whether k == 0 mod n is public by protocol
    // (nonce / key generation rejects zero before any use).
    const U256 k_reduced = fn_.reduce(k);
    if (ct::declassify_value(k_reduced.is_zero())) return std::nullopt;
    return to_affine(ct_booth_mul_base(k_reduced));
}

std::optional<AffinePoint> P256::mul(const U256& k, const Precomputed& p) const {
    const U256 k_reduced = fn_.reduce(k);
    if (k_reduced.is_zero()) return std::nullopt;
    return to_affine(wnaf_mul(k_reduced, p));
}

std::optional<AffinePoint> P256::mul_ct(const U256& k, const AffinePoint& p) const {
    const U256 k_reduced = fn_.reduce(k);
    if (ct::declassify_value(k_reduced.is_zero())) return std::nullopt;
    // Row of {1..8} * P. P is public (the peer's key, prime order), so the
    // variable-time construction is fine and no entry is infinity.
    std::array<MontAffine, kCtMulRowEntries> row;
    build_rows(p, 1, 0, kCtMulRowEntries, row.data());
    // MSB-first Booth walk: four branchless doublings then one full-row
    // scan and masked addition per window — 256 ct_dbl + 65 ct_madd, a
    // fixed sequence for every scalar. Exceptional madd cases (partial sum
    // == ±jP) require the running scalar to hit one of 17 residues mod n —
    // probability ~2^-250 per addition for any honest key.
    Jacobian acc{};
    for (int w = static_cast<int>(kCtMulWindows) - 1; w >= 0; --w) {
        if (w + 1 < static_cast<int>(kCtMulWindows)) {
            for (unsigned b = 0; b < kCtMulWindowBits; ++b) acc = ct_dbl(acc);
        }
        const BoothDigit d = booth(k_reduced, static_cast<unsigned>(w), kCtMulWindowBits);
        const MontAffine entry =
            ct_select_entry(row.data(), kCtMulRowEntries, d.magnitude, d.neg_mask);
        acc = ct_add_mixed(acc, entry, ct::is_zero_mask(d.magnitude));
    }
    return to_affine(acc);
}

std::optional<AffinePoint> P256::mul_add(const U256& u1, const U256& u2,
                                         const Precomputed& p) const {
    const U256 u1r = fn_.reduce(u1);
    const U256 u2r = fn_.reduce(u2);
    Jacobian acc = u1r.is_zero() ? Jacobian{} : comb_mul_base(u1r);
    if (!u2r.is_zero()) acc = add(acc, wnaf_mul(u2r, p));
    return to_affine(acc);
}

P256::Jacobian P256::jneg(const Jacobian& q) const {
    return Jacobian{q.x, fp_.sub(U256::zero(), q.y), q.z};
}

std::optional<U256> P256::sqrt_mont(const U256& a) const {
    // p ≡ 3 mod 4, so a^((p+1)/4) is a root when one exists. The exponent
    // factors as (((2^32-1)·2^32 + 1)·2^96 + 1)·2^94 = 2^254 - 2^222 +
    // 2^190 + 2^94, giving a 253-squaring, 7-multiply chain instead of the
    // ~255S + 128M of a naive square-and-multiply.
    const auto sqr_n = [&](U256 x, unsigned count) {
        for (unsigned i = 0; i < count; ++i) x = fp_.sqr(x);
        return x;
    };
    U256 t = fp_.mul(fp_.sqr(a), a);   // a^(2^2 - 1)
    t = fp_.mul(sqr_n(t, 2), t);       // a^(2^4 - 1)
    t = fp_.mul(sqr_n(t, 4), t);       // a^(2^8 - 1)
    t = fp_.mul(sqr_n(t, 8), t);       // a^(2^16 - 1)
    t = fp_.mul(sqr_n(t, 16), t);      // a^(2^32 - 1)
    U256 r = fp_.mul(sqr_n(t, 32), a); // a^(2^64 - 2^32 + 1)
    r = fp_.mul(sqr_n(r, 96), a);      // a^(2^160 - 2^128 + 2^96 + 1)
    r = sqr_n(r, 94);
    if (!(fp_.sqr(r) == a)) return std::nullopt;  // non-residue
    return r;
}

std::optional<bool> P256::verify2_combination(const U256& u1, const U256& u2,
                                              const Precomputed& p1, const U256& r1,
                                              const U256& u3, const U256& u4,
                                              const Precomputed& p2, const U256& r2,
                                              std::uint64_t gamma) const {
    // Decides  u1*G + u2*P1 == ±R1  AND  u3*G + u4*P2 == ±R2  in one shared
    // walk: lift R2 from its x-candidate, fold -gamma*R2 into the Strauss
    // chain of (u1 + gamma*u3)*G + u2*P1 + (gamma*u4)*P2, and x-compare the
    // result T- (and, if that misses, T+ = T- + 2*gamma*R2, covering the
    // opposite sign of R2) against r1's candidates in Jacobian form. The
    // x-comparison absorbs R1's sign, so R1 is never lifted and no field
    // inversion is paid anywhere in the accept path.
    const U256 u1r = fn_.reduce(u1);
    const U256 u2r = fn_.reduce(u2);
    const U256 u3r = fn_.reduce(u3);
    const U256 u4r = fn_.reduce(u4);
    const U256 g = U256::from_u64(gamma);
    const U256 gm = fn_.to_mont(g);
    // a = u1 + gamma*u3, c = gamma*u4 (mod n): mont * plain = plain product.
    const U256 a = fn_.add(u1r, fn_.mul(gm, u3r));
    const U256 c = fn_.mul(gm, u4r);

    // Lift R2 from r2's x-candidates {r2, r2 + n} (both < p only for
    // r2 < p - n, about 2^-130 of the range). Zero liftable candidates means
    // signature 2 cannot verify for any lift — exactly the sequential
    // verdict. Two liftable candidates is the undecidable corner.
    const auto lift = [&](const U256& x_plain, Jacobian& out) {
        const U256 xm = fp_.to_mont(x_plain);
        U256 rhs = fp_.mul(fp_.sqr(xm), xm);
        const U256 three_x = fp_.add(fp_.add(xm, xm), xm);
        rhs = fp_.add(fp_.sub(rhs, three_x), b_mont_);
        const auto y = sqrt_mont(rhs);
        if (!y) return false;
        out = Jacobian{xm, *y, fp_.one()};
        return true;
    };
    Jacobian r2_point{};
    bool lifted = lift(r2, r2_point);
    U256 x2b;
    if (crypto::add(x2b, r2, fn_.modulus()) == 0 && x2b < fp_.modulus()) {
        Jacobian second{};
        if (lift(x2b, second)) {
            if (lifted) return std::nullopt;  // both candidates live: fall back
            r2_point = second;
            lifted = true;
        }
    }
    if (!lifted) return false;

    // One odd-multiples row of R2 serves both the -gamma fold in the main
    // walk and the +2*gamma correction walk. Entries stay Jacobian (full
    // add()); gamma < 2^64 so only row 0 digits (+ the carry at position
    // 64) occur, and the position-64 digit is pre-seeded into the
    // accumulator, where the walk's 64 doublings give it weight 2^64.
    std::array<Jacobian, kWnafOddEntries> r2_row;
    build_odd_row(r2_point, r2_row.data());
    std::int8_t da[kWnafMaxDigits] = {};
    std::int8_t db[kWnafMaxDigits] = {};
    std::int8_t dg[kWnafMaxDigits] = {};
    (void)wnaf_recode(u2r, da);
    (void)wnaf_recode(c, db);
    (void)wnaf_recode(g, dg);
    // Folds -d * R2 (note the sign flip: the walk subtracts gamma*R2).
    const auto fold_r2_neg = [&](Jacobian& acc, int d) {
        if (d > 0) {
            acc = add(acc, jneg(r2_row[static_cast<unsigned>(d >> 1)]));
        } else if (d < 0) {
            acc = add(acc, r2_row[static_cast<unsigned>((-d) >> 1)]);
        }
    };
    Jacobian acc{};
    fold_r2_neg(acc, dg[64]);  // pre-seed: gains 2^64 over the walk below
    for (int b = Precomputed::kRowShift - 1; b >= 0; --b) {
        acc = dbl(acc);
        for (unsigned row = 0; row < 4; ++row) {
            const unsigned pos = Precomputed::kRowShift * row + static_cast<unsigned>(b);
            fold_wnaf(acc, p1, row, da[pos]);
            fold_wnaf(acc, p2, row, db[pos]);
        }
        fold_r2_neg(acc, dg[static_cast<unsigned>(b)]);
        if (b == 0) {
            fold_wnaf(acc, p1, 4, da[256]);
            fold_wnaf(acc, p2, 4, db[256]);
        }
    }
    if (!a.is_zero()) acc = add(acc, comb_mul_base(a));

    // x-compare in Jacobian form: x1 == X/Z^2  <=>  to_mont(x1)*Z^2 == X.
    // The all-zero infinity encoding would match x1*0 == 0, so guard it.
    const auto x_matches = [&](const Jacobian& t) {
        if (t.infinity()) return false;
        const U256 zz = fp_.sqr(t.z);
        if (fp_.mul(fp_.to_mont(r1), zz) == t.x) return true;
        U256 x1b;
        if (crypto::add(x1b, r1, fn_.modulus()) == 0 && x1b < fp_.modulus()) {
            if (fp_.mul(fp_.to_mont(x1b), zz) == t.x) return true;
        }
        return false;
    };
    if (x_matches(acc)) return true;
    // Opposite sign of R2 (expected half the time on honest input): add
    // 2*gamma*R2 back, reusing the row — the digits of 2*gamma are gamma's
    // shifted up one position.
    U256 g2;
    (void)crypto::add(g2, g, g);
    std::int8_t dg2[kWnafMaxDigits];
    const int len2 = wnaf_recode(g2, dg2);
    Jacobian w{};
    for (int i = len2 - 1; i >= 0; --i) {
        w = dbl(w);
        fold_r2_neg(w, -dg2[i]);  // adds +d * R2
    }
    return x_matches(add(acc, w));
}

}  // namespace upkit::crypto
