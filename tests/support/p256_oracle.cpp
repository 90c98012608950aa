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

std::optional<AffinePoint> P256Oracle::mul_add4_generic(const U256& u1, const U256& u2,
                                                        const AffinePoint& p1, const U256& u3,
                                                        const U256& u4, const AffinePoint& p2) {
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    const P256::Jacobian g = curve.to_jacobian(curve.generator());
    const U256 u1r = fn.reduce(u1);
    const U256 u2r = fn.reduce(u2);
    const U256 u3r = fn.reduce(u3);
    const U256 u4r = fn.reduce(u4);
    P256::Jacobian acc = u1r.is_zero() ? P256::Jacobian{} : scalar_mul(u1r, g);
    if (!u2r.is_zero()) acc = curve.add(acc, scalar_mul(u2r, curve.to_jacobian(p1)));
    if (!u3r.is_zero()) acc = curve.add(acc, scalar_mul(u3r, g));
    if (!u4r.is_zero()) acc = curve.add(acc, scalar_mul(u4r, curve.to_jacobian(p2)));
    return curve.to_affine(acc);
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
