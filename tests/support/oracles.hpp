// Reference oracles: slow, obviously-correct twins of the production
// kernels. They live in the upkit_oracles library, which only tests and
// benches link, so the product carries one path per primitive while every
// fast path stays pinned against an independent answer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"

namespace upkit::crypto {

/// The plain double-and-add ladder over P256's own group law (P256 names
/// this class a friend): the reference the comb, Booth and wNAF walks are
/// pinned against, and the pre-optimisation baseline bench/device_verify
/// times the prepared verify against. Variable-time; public scalars only.
class P256Oracle {
public:
    /// k * G. nullopt for k == 0 mod n.
    static std::optional<AffinePoint> mul_base_generic(const U256& k);

    /// k * P for an on-curve P. nullopt for k == 0 mod n.
    static std::optional<AffinePoint> mul_generic(const U256& k, const AffinePoint& p);

    /// u1*G + u2*P with the ladder on both halves.
    static std::optional<AffinePoint> mul_add_generic(const U256& u1, const U256& u2,
                                                      const AffinePoint& p);

    // Pass-throughs to P256's private group law, so tests can drive the
    // special cases the walks seldom or never reach. Points lift to
    // Jacobian with z = 1 (nullopt is infinity) and the result is
    // normalized back.

    /// p + q through add_mixed.
    static std::optional<AffinePoint> add_mixed(const std::optional<AffinePoint>& p,
                                                const AffinePoint& q);
    /// p + q through ct_add_mixed; q_zero sets the zero-digit mask.
    static std::optional<AffinePoint> ct_add_mixed(const std::optional<AffinePoint>& p,
                                                   const AffinePoint& q, bool q_zero);
    /// 2p through dbl.
    static std::optional<AffinePoint> dbl(const std::optional<AffinePoint>& p);
    /// 2p through ct_dbl.
    static std::optional<AffinePoint> ct_dbl(const std::optional<AffinePoint>& p);

private:
    static P256::Jacobian scalar_mul(const U256& k, const P256::Jacobian& p);
    static P256::Jacobian lift(const std::optional<AffinePoint>& p);
    static P256::MontAffine lift_affine(const AffinePoint& q);
};

/// ECDSA verification with its own key check and signature parsing and the
/// ladder on both scalar-mul halves: the reference ecdsa_verify is pinned
/// against.
bool ecdsa_verify_generic(const PublicKey& key, const Sha256Digest& digest,
                          ByteSpan signature);

/// One-shot SHA-256 via a rolled compression loop and its own padding: the
/// reference the unrolled and multi-buffer kernels are pinned against, and
/// the baseline of bench/device_verify's SHA-256 speedup reading.
Sha256Digest sha256_reference(ByteSpan data);

}  // namespace upkit::crypto

namespace upkit::diff {

/// Prefix-doubling suffix array, O(n log^2 n): the oracle SA-IS
/// (build_suffix_array) is cross-checked against.
std::vector<std::uint32_t> build_suffix_array_doubling(ByteSpan data);

/// Whole-buffer patch applier over the interleaved bsdiff stream: the
/// reference the streaming PatchApplier is cross-checked against.
Expected<Bytes> bspatch_all(ByteSpan old_image, ByteSpan patch);

}  // namespace upkit::diff
