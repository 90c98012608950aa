#include "support/oracles.hpp"

namespace upkit::crypto {

namespace {

// The curve written out for the affine law, apart from P256's constants.
const char* kPrimeHex = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
const char* kBHex = "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";

const U256& prime() {
    static const U256 p = U256::from_hex(kPrimeHex);
    return p;
}

const FieldReference& reference_field() {
    static const FieldReference f(to_field_words(prime()));
    return f;
}

/// a^e by square-and-multiply on FieldReference.
FieldWords power(const FieldWords& a, const U256& e) {
    const FieldReference& f = reference_field();
    FieldWords r{1};
    for (int i = e.bit_length(); i-- > 0;) {
        r = f.mul(r, r);
        if (e.bit(static_cast<unsigned>(i))) r = f.mul(r, a);
    }
    return r;
}

/// a^(p-2): Fermat's inverse.
FieldWords inverse(const FieldWords& a) {
    U256 e;
    sub(e, prime(), U256::from_u64(2));
    return power(a, e);
}

/// x^3 - 3x + b.
FieldWords curve_rhs(const FieldWords& x) {
    const FieldReference& f = reference_field();
    const FieldWords three_x = f.add(f.add(x, x), x);
    return f.add(f.sub(f.mul(f.mul(x, x), x), three_x),
                 to_field_words(U256::from_hex(kBHex)));
}

}  // namespace

P256::Jacobian P256Oracle::scalar_mul(const U256& k, const P256::Jacobian& p) {
    const P256& curve = P256::instance();
    P256::Jacobian acc{};  // infinity
    const int bits = k.bit_length();
    for (int i = bits - 1; i >= 0; --i) {
        acc = curve.dbl(acc);
        if (k.bit(static_cast<unsigned>(i))) acc = curve.add(acc, p);
    }
    return acc;
}

std::optional<AffinePoint> P256Oracle::mul_base_generic(const U256& k) {
    return mul_generic(k, P256::instance().generator());
}

std::optional<AffinePoint> P256Oracle::mul_generic(const U256& k, const AffinePoint& p) {
    const P256& curve = P256::instance();
    const U256 k_reduced = curve.order().reduce(k);
    if (k_reduced.is_zero()) return std::nullopt;
    return curve.to_affine(scalar_mul(k_reduced, curve.to_jacobian(p)));
}

std::optional<AffinePoint> P256Oracle::mul_add_generic(const U256& u1, const U256& u2,
                                                       const AffinePoint& p) {
    const P256& curve = P256::instance();
    const U256 u1r = curve.order().reduce(u1);
    const U256 u2r = curve.order().reduce(u2);
    P256::Jacobian acc =
        u1r.is_zero() ? P256::Jacobian{} : scalar_mul(u1r, curve.to_jacobian(curve.generator()));
    if (!u2r.is_zero()) acc = curve.add(acc, scalar_mul(u2r, curve.to_jacobian(p)));
    return curve.to_affine(acc);
}

P256::Jacobian P256Oracle::lift(const std::optional<AffinePoint>& p) {
    return p ? P256::instance().to_jacobian(*p) : P256::Jacobian{};
}

P256::Jacobian P256Oracle::lift_scaled(const AffinePoint& p, const U256& z) {
    const Montgomery& fp = P256::instance().field();
    const U256 zm = fp.to_mont(z);
    const U256 zz = fp.sqr(zm);
    return P256::Jacobian{fp.mul(fp.to_mont(p.x), zz), fp.mul(fp.to_mont(p.y), fp.mul(zz, zm)),
                          zm};
}

P256::MontAffine P256Oracle::lift_affine(const AffinePoint& q) {
    const Montgomery& fp = P256::instance().field();
    return P256::MontAffine{fp.to_mont(q.x), fp.to_mont(q.y)};
}

std::optional<AffinePoint> P256Oracle::add_mixed(const std::optional<AffinePoint>& p,
                                                 const AffinePoint& q) {
    const P256& curve = P256::instance();
    return curve.to_affine(curve.add_mixed(lift(p), lift_affine(q)));
}

std::optional<AffinePoint> P256Oracle::ct_add_mixed(const std::optional<AffinePoint>& p,
                                                    const AffinePoint& q, bool q_zero) {
    const P256& curve = P256::instance();
    const std::uint64_t mask = q_zero ? ~std::uint64_t{0} : 0;
    return curve.to_affine(curve.ct_add_mixed(lift(p), lift_affine(q), mask));
}

std::optional<AffinePoint> P256Oracle::dbl(const std::optional<AffinePoint>& p) {
    const P256& curve = P256::instance();
    return curve.to_affine(curve.dbl(lift(p)));
}

std::optional<AffinePoint> P256Oracle::ct_dbl(const std::optional<AffinePoint>& p) {
    const P256& curve = P256::instance();
    return curve.to_affine(curve.ct_dbl(lift(p)));
}

std::optional<AffinePoint> P256Oracle::dbl_2001b(const AffinePoint& p, const U256& z) {
    const P256& curve = P256::instance();
    return curve.to_affine(curve.dbl_2001b(lift_scaled(p, z)));
}

std::optional<AffinePoint> P256Oracle::madd_2007bl(const AffinePoint& p, const U256& z,
                                                   const AffinePoint& q) {
    const P256& curve = P256::instance();
    return curve.to_affine(curve.madd_2007bl(lift_scaled(p, z), lift_affine(q)));
}

std::optional<AffinePoint> P256Oracle::add(const AffinePoint& p, const U256& pz,
                                           const AffinePoint& q, const U256& qz) {
    const P256& curve = P256::instance();
    return curve.to_affine(curve.add(lift_scaled(p, pz), lift_scaled(q, qz)));
}

std::optional<AffinePoint> P256Oracle::affine_add(const std::optional<AffinePoint>& p,
                                                  const std::optional<AffinePoint>& q) {
    if (!p) return q;
    if (!q) return p;
    const FieldReference& f = reference_field();
    const FieldWords x1 = to_field_words(p->x), y1 = to_field_words(p->y);
    const FieldWords x2 = to_field_words(q->x), y2 = to_field_words(q->y);
    FieldWords slope;
    if (x1 == x2) {
        // q == -p (P-256 has no point with y == 0, so this is never p == q).
        if (f.add(y1, y2) == FieldWords{}) return std::nullopt;
        // Tangent: (3 x^2 - 3) / 2y.
        const FieldWords xx = f.mul(x1, x1);
        const FieldWords num = f.sub(f.add(f.add(xx, xx), xx), FieldWords{3});
        slope = f.mul(num, inverse(f.add(y1, y1)));
    } else {
        // Chord: (y2 - y1) / (x2 - x1).
        slope = f.mul(f.sub(y2, y1), inverse(f.sub(x2, x1)));
    }
    const FieldWords x3 = f.sub(f.sub(f.mul(slope, slope), x1), x2);
    const FieldWords y3 = f.sub(f.mul(slope, f.sub(x1, x3)), y1);
    return AffinePoint{from_field_words(x3), from_field_words(y3)};
}

std::optional<AffinePoint> P256Oracle::lift_x(const U256& x) {
    // p = 3 mod 4, so a square's root is its ((p + 1) / 4)-th power.
    const FieldWords rhs = curve_rhs(to_field_words(x));
    U256 e;
    crypto::add(e, prime(), U256::one());
    const FieldWords y = power(rhs, shr1(shr1(e)));
    if (reference_field().mul(y, y) != rhs) return std::nullopt;
    return AffinePoint{x, from_field_words(y)};
}

bool ecdsa_verify_generic(const PublicKey& key, const Sha256Digest& digest,
                          ByteSpan signature) {
    const P256& curve = P256::instance();
    if (!curve.on_curve(key.point())) return false;
    if (signature.size() != kSignatureSize) return false;
    const Montgomery& fn = curve.order();

    const U256 r = U256::from_be_bytes(signature.subspan(0, 32));
    const U256 s = U256::from_be_bytes(signature.subspan(32, 32));
    if (r.is_zero() || s.is_zero()) return false;
    if (!(r < curve.n()) || !(s < curve.n())) return false;

    const U256 z = fn.reduce(U256::from_be_bytes(ByteSpan(digest.data(), digest.size())));
    const U256 w_m = fn.inv(fn.to_mont(s));
    const U256 u1 = fn.from_mont(fn.mul(fn.to_mont(z), w_m));
    const U256 u2 = fn.from_mont(fn.mul(fn.to_mont(r), w_m));

    const auto point = P256Oracle::mul_add_generic(u1, u2, key.point());
    if (!point) return false;
    return fn.reduce(point->x) == r;
}

}  // namespace upkit::crypto
