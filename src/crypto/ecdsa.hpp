// ECDSA over P-256 with SHA-256 digests and RFC 6979 deterministic nonces.
//
// Signatures are 64 raw bytes (big-endian r || s) — the compact fixed-size
// encoding constrained-device manifests use (DER adds 6-8 variable bytes and
// parsing code for nothing). Key generation is deterministic from a caller-
// provided seed via HMAC-DRBG so experiments replay exactly.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"

namespace upkit::crypto {

inline constexpr std::size_t kSignatureSize = 64;   // r || s
inline constexpr std::size_t kPublicKeySize = 64;   // X || Y
inline constexpr std::size_t kPrivateKeySize = 32;

using Signature = std::array<std::uint8_t, kSignatureSize>;

class PublicKey {
public:
    PublicKey() = default;

    /// From an on-curve affine point.
    static Expected<PublicKey> from_point(const AffinePoint& p);

    /// From the 64-byte X||Y encoding (validates curve membership).
    static Expected<PublicKey> from_bytes(ByteSpan raw64);

    std::array<std::uint8_t, kPublicKeySize> to_bytes() const;

    const AffinePoint& point() const { return point_; }

    friend bool operator==(const PublicKey& a, const PublicKey& b) {
        return a.point_.x == b.point_.x && a.point_.y == b.point_.y;
    }

private:
    AffinePoint point_{};
};

class PrivateKey {
public:
    PrivateKey() = default;

    /// Deterministic key from seed material (HMAC-DRBG candidate loop).
    static PrivateKey generate(ByteSpan seed);

    /// From a 32-byte big-endian scalar in [1, n-1].
    static Expected<PrivateKey> from_bytes(ByteSpan raw32);

    Bytes to_bytes() const { return d_.to_be_bytes(); }

    PublicKey public_key() const;

    const U256& scalar() const { return d_; }

private:
    explicit PrivateKey(const U256& d) : d_(d) {}
    U256 d_;
};

/// A public key bundled with its P256::Precomputed wNAF table, built once:
/// the one key form that verifies, and the form a trust anchor travels in.
/// UpKit's vendor and update-server keys are provisioned for the device's
/// lifetime, so each server prepares its key once when it is minted (and a
/// tool once when it loads one), and every device, HSM slot and verifier
/// holds a copy of that handle: all four ECDSA verifies per update (agent
/// manifest + firmware, bootloader manifest + firmware) reuse one table.
///
/// It is also the one place a key is validated: a point off the curve —
/// notably the unset PublicKey{}, (0, 0) — gets no table, so valid() is
/// false and every verification against it fails closed.
///
/// Copies share the one immutable table through a shared_ptr, so a fleet
/// built from one DeviceConfig holds two tables in total, read from any
/// thread without a lock.
class PreparedPublicKey {
public:
    /// Empty handle; valid() is false and verification always fails.
    PreparedPublicKey() = default;

    /// Builds the precomputed table (~45 group ops and an inversion, a few
    /// hundred microseconds) when `key` is on the curve; otherwise the
    /// handle stays invalid. Explicit, so no conversion hides that cost.
    explicit PreparedPublicKey(const PublicKey& key);

    const PublicKey& key() const { return key_; }
    const P256::Precomputed& table() const { return *table_; }
    bool valid() const { return table_ != nullptr; }

private:
    PublicKey key_{};
    std::shared_ptr<const P256::Precomputed> table_;
};

/// Signs a 32-byte message digest. RFC 6979: no RNG required at sign time.
Signature ecdsa_sign(const PrivateKey& key, const Sha256Digest& digest);

/// Verifies a 64-byte signature over a 32-byte digest against a prepared
/// key (comb for u1*G, interleaved wNAF for u2*P, zero table construction).
/// False for an invalid key. Never throws.
bool ecdsa_verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                  ByteSpan signature);

/// Batch verification of BOTH manifest signatures in one pass: true iff
/// each signature individually verifies (up to a <= 2^-61 false-accept
/// slice; see below). One Fermat inversion covers both s^-1 values
/// (Montgomery's trick), and the two verification equations are merged
/// with a random 64-bit weight gamma into a single 4-point Strauss walk
/// (P256::verify2_combination) — a forged pair would have to cancel at the
/// drawn gamma exactly, so batch-accept implies individual validity except
/// with probability <= 8/2^64 per call. gamma is SHA-256 over a domain tag
/// and both (key, digest, signature) triples, so it is fixed only once the
/// pair is — the way BIP-340 seeds its batch randomizers — and needs no
/// shared state (the verdict itself is gamma-independent w.h.p.). Rejects
/// are exact: a false return always means at least one signature fails
/// sequential verification. Falls back to two sequential verifies in the
/// rare undecidable lift corner.
bool ecdsa_verify2(const PreparedPublicKey& key1, const Sha256Digest& digest1,
                   ByteSpan signature1, const PreparedPublicKey& key2,
                   const Sha256Digest& digest2, ByteSpan signature2);

/// RFC 6979 nonce derivation, exposed for known-answer tests.
U256 rfc6979_nonce(const U256& d, const Sha256Digest& digest);

}  // namespace upkit::crypto
