#include "crypto/ecdsa.hpp"

#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"
#include "crypto/hmac_drbg.hpp"

namespace upkit::crypto {

namespace {

/// bits2int for SHA-256 digests: hash length equals the order length
/// (256 bits), so this is a straight big-endian load, reduced mod n where
/// arithmetic requires it.
U256 digest_to_scalar(const Sha256Digest& digest) {
    return U256::from_be_bytes(ByteSpan(digest.data(), digest.size()));
}

}  // namespace

PreparedPublicKey::PreparedPublicKey(const PublicKey& key) : key_(key) {
    // PublicKey{} is (0, 0), off the curve; its degenerate table would make
    // u2*P vanish and let r = x(k*G), s = z/k verify for any digest.
    const P256& curve = P256::instance();
    if (curve.on_curve(key.point())) {
        table_ = std::make_shared<const P256::Precomputed>(curve.precompute(key.point()));
    }
}

Expected<PublicKey> PublicKey::from_point(const AffinePoint& p) {
    if (!P256::instance().on_curve(p)) return Status::kBadKey;
    PublicKey key;
    key.point_ = p;
    return key;
}

Expected<PublicKey> PublicKey::from_bytes(ByteSpan raw64) {
    if (raw64.size() != kPublicKeySize) return Status::kBadKey;
    AffinePoint p;
    p.x = U256::from_be_bytes(raw64.subspan(0, 32));
    p.y = U256::from_be_bytes(raw64.subspan(32, 32));
    return from_point(p);
}

std::array<std::uint8_t, kPublicKeySize> PublicKey::to_bytes() const {
    std::array<std::uint8_t, kPublicKeySize> out{};
    point_.x.to_be_bytes(MutByteSpan(out.data(), 32));
    point_.y.to_be_bytes(MutByteSpan(out.data() + 32, 32));
    return out;
}

PrivateKey PrivateKey::generate(ByteSpan seed) {
    const P256& curve = P256::instance();
    HmacDrbg drbg(seed, ::upkit::to_bytes("upkit-p256-keygen"));
    for (;;) {
        std::array<std::uint8_t, 32> candidate{};
        drbg.generate(MutByteSpan(candidate));
        const U256 d = U256::from_be_bytes(candidate);
        // Branchless range check; the accept/reject bit is declassified —
        // a rejection only reveals that a uniformly random 256-bit string
        // fell outside [1, n), which leaks nothing about the accepted key.
        const std::uint64_t ok = ~ct_is_zero_mask(d) & ct_lt_mask(d, curve.n());
        if (ct::declassify_value(ok != 0)) return PrivateKey(d);
    }
}

Expected<PrivateKey> PrivateKey::from_bytes(ByteSpan raw32) {
    if (raw32.size() != kPrivateKeySize) return Status::kBadKey;
    const U256 d = U256::from_be_bytes(raw32);
    // Branchless range check on the candidate secret; only the public
    // accept/reject verdict is branched on.
    const std::uint64_t ok =
        ~ct_is_zero_mask(d) & ct_lt_mask(d, P256::instance().n());
    if (!ct::declassify_value(ok != 0)) return Status::kBadKey;
    return PrivateKey(d);
}

PublicKey PrivateKey::public_key() const {
    // Constant-time walk: d is the long-lived secret, and key derivation
    // can run on-device (e.g. when provisioning an ECDH ephemeral).
    const auto point = P256::instance().mul_base_ct(d_);
    // d is in [1, n-1], so d*G can never be the point at infinity; the
    // resulting point is, by definition, the public key.
    const AffinePoint p = ct::declassify_value(*point);
    auto key = PublicKey::from_point(p);
    return *key;
}

U256 rfc6979_nonce(const U256& d, const Sha256Digest& digest) {
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();

    // bits2octets(h1) = int2octets(bits2int(h1) mod n).
    const U256 z = fn.reduce(digest_to_scalar(digest));
    const Bytes x_octets = d.to_be_bytes();
    const Bytes h_octets = z.to_be_bytes();

    std::array<std::uint8_t, 32> v{};
    std::array<std::uint8_t, 32> k{};
    v.fill(0x01);
    k.fill(0x00);

    const auto step = [&](std::uint8_t tag) {
        HmacSha256 mac(k);
        mac.update(v);
        mac.update(ByteSpan(&tag, 1));
        mac.update(x_octets);
        mac.update(h_octets);
        k = mac.finalize();
        v = HmacSha256::mac(k, v);
    };
    step(0x00);
    step(0x01);

    for (;;) {
        v = HmacSha256::mac(k, v);
        const U256 candidate = U256::from_be_bytes(v);
        // Branchless range check, declassified accept bit: RFC 6979
        // rejection only reveals that an HMAC output exceeded n, which is
        // independent of the nonce actually used.
        const std::uint64_t ok =
            ~ct_is_zero_mask(candidate) & ct_lt_mask(candidate, curve.n());
        if (ct::declassify_value(ok != 0)) return candidate;
        HmacSha256 mac(k);
        mac.update(v);
        const std::uint8_t zero = 0x00;
        mac.update(ByteSpan(&zero, 1));
        k = mac.finalize();
        v = HmacSha256::mac(k, v);
    }
}

Signature ecdsa_sign(const PrivateKey& key, const Sha256Digest& digest) {
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    const U256 z = fn.reduce(digest_to_scalar(digest));

    U256 k = rfc6979_nonce(key.scalar(), digest);
    for (;;) {
        // The nonce is the most timing-sensitive secret in ECDSA (a few
        // leaked bits across signatures break the key via lattice attacks),
        // so k*G takes the constant-time Booth walk, not the comb table.
        const auto point = curve.mul_base_ct(k);
        // Branching on "k*G is infinity" reveals one-in-2^256 information;
        // the declassify records that this k-dependent bit is deliberately
        // public (it only fires on the astronomically-unlikely retry).
        if (ct::declassify_value(point.has_value())) {
            // r is the published signature half: declassified the moment
            // it exists.
            const U256 r = ct::declassify_value(fn.reduce(point->x));
            if (!r.is_zero()) {
                // s = k^-1 (z + r d) mod n, computed in the order's
                // Montgomery domain. The nonce inverse is Fermat's
                // k^(n-2): its square-and-multiply schedule follows the
                // public exponent, and every step is the branchless mul.
                const U256 km = fn.to_mont(k);
                const U256 rm = fn.to_mont(r);
                const U256 dm = fn.to_mont(key.scalar());
                const U256 zm = fn.to_mont(z);
                const U256 s_m = fn.mul(fn.inv(km), fn.add(zm, fn.mul(rm, dm)));
                const U256 s = ct::declassify_value(fn.from_mont(s_m));
                if (!s.is_zero()) {
                    Signature sig{};
                    r.to_be_bytes(MutByteSpan(sig.data(), 32));
                    s.to_be_bytes(MutByteSpan(sig.data() + 32, 32));
                    return sig;
                }
            }
        }
        // Vanishingly unlikely retry path: perturb the nonce derivation by
        // re-deriving over the digest of the previous nonce.
        const Bytes kb = k.to_be_bytes();
        k = rfc6979_nonce(key.scalar(), Sha256::digest(kb));
    }
}

namespace {

/// Parses r || s and range-checks both into [1, n). Returns false on any
/// malformed component.
bool parse_signature(ByteSpan signature, U256& r, U256& s) {
    if (signature.size() != kSignatureSize) return false;
    r = U256::from_be_bytes(signature.subspan(0, 32));
    s = U256::from_be_bytes(signature.subspan(32, 32));
    if (r.is_zero() || s.is_zero()) return false;
    const U256& n = P256::instance().n();
    return r < n && s < n;
}

/// Batch weight for verify2: the first 64 bits of SHA-256 over a domain tag
/// and both (key, digest, signature) triples. A forged pair can cancel only
/// at the gamma it was built for, and this gamma is fixed only once the
/// pair is, so a forger must grind ~2^61 pairs. A pure function of the
/// inputs: campaigns replay exactly, and no state is shared between calls.
std::uint64_t batch_gamma(const PreparedPublicKey& key1, const Sha256Digest& digest1,
                          ByteSpan signature1, const PreparedPublicKey& key2,
                          const Sha256Digest& digest2, ByteSpan signature2) {
    Sha256 h;
    h.update(::upkit::to_bytes("upkit-verify2-gamma"));
    h.update(key1.key().to_bytes());
    h.update(digest1);
    h.update(signature1);
    h.update(key2.key().to_bytes());
    h.update(digest2);
    h.update(signature2);
    const Sha256Digest d = h.finalize();
    std::uint64_t g = 0;
    for (unsigned i = 0; i < 8; ++i) g = (g << 8) | d[i];
    if (g == 0) g = 1;  // verify2_combination requires gamma >= 1
    return g;
}

}  // namespace

bool ecdsa_verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                  ByteSpan signature) {
    if (!key.valid()) return false;
    U256 r, s;
    if (!parse_signature(signature, r, s)) return false;
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();

    const U256 z = fn.reduce(digest_to_scalar(digest));
    const U256 w_m = fn.inv(fn.to_mont(s));
    const U256 u1 = fn.from_mont(fn.mul(fn.to_mont(z), w_m));
    const U256 u2 = fn.from_mont(fn.mul(fn.to_mont(r), w_m));

    // u1, u2 derive from the signature and digest, both public.
    const auto point = curve.mul_add(u1, u2, key.table());  // lint: public-scalar
    if (!point) return false;
    return fn.reduce(point->x) == r;
}

bool ecdsa_verify2(const PreparedPublicKey& key1, const Sha256Digest& digest1,
                   ByteSpan signature1, const PreparedPublicKey& key2,
                   const Sha256Digest& digest2, ByteSpan signature2) {
    if (!key1.valid() || !key2.valid()) return false;
    U256 r1, s1, r2, s2;
    if (!parse_signature(signature1, r1, s1)) return false;
    if (!parse_signature(signature2, r2, s2)) return false;

    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    const U256 z1 = fn.reduce(digest_to_scalar(digest1));
    const U256 z2 = fn.reduce(digest_to_scalar(digest2));

    // Montgomery's batched-inversion trick: one Fermat pow yields both
    // w1 = s1^-1 and w2 = s2^-1 — the inversion is the single most
    // expensive scalar op in a prepared verify, and this halves it.
    const U256 s1m = fn.to_mont(s1);
    const U256 s2m = fn.to_mont(s2);
    const U256 pair_inv = fn.inv(fn.mul(s1m, s2m));
    const U256 w1m = fn.mul(pair_inv, s2m);
    const U256 w2m = fn.mul(pair_inv, s1m);
    const U256 u1 = fn.from_mont(fn.mul(fn.to_mont(z1), w1m));
    const U256 u2 = fn.from_mont(fn.mul(fn.to_mont(r1), w1m));
    const U256 u3 = fn.from_mont(fn.mul(fn.to_mont(z2), w2m));
    const U256 u4 = fn.from_mont(fn.mul(fn.to_mont(r2), w2m));

    const std::uint64_t gamma =
        batch_gamma(key1, digest1, signature1, key2, digest2, signature2);
    const auto verdict = curve.verify2_combination(  // lint: public-scalar (sig components)
        u1, u2, key1.table(), r1, u3, u4, key2.table(), r2, gamma);
    if (verdict) return *verdict;
    // Undecidable lift corner (under 2^-130 of signatures): sequential verifies.
    return ecdsa_verify(key1, digest1, signature1) &&
           ecdsa_verify(key2, digest2, signature2);
}

}  // namespace upkit::crypto
