#include "support/oracles.hpp"

namespace upkit::crypto {

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
