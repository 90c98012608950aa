// Reference oracles: slow, obviously-correct twins of the production
// kernels. They live in the upkit_oracles library, which only tests and
// benches link, so the product carries one path per primitive while every
// fast path stays pinned against an independent answer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"
#include "flash/flash_device.hpp"

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

/// A 256-bit value as eight 32-bit little-endian words: FieldReference's
/// own representation, so that it shares no code with U256.
using FieldWords = std::array<std::uint32_t, 8>;

/// Arithmetic modulo one odd 256-bit modulus on 32-bit limbs in 64-bit
/// accumulators, reduced one bit at a time: the reference the U256 limb
/// layer and Montgomery are pinned against. It shares no code with either,
/// so a carry bug in the limb layer cannot hide on both sides of a check.
class FieldReference {
public:
    /// `modulus` must be odd and at least 2^255.
    explicit FieldReference(const FieldWords& modulus) : m_(modulus) {}

    /// a mod m, for any 256-bit a.
    FieldWords reduce(const FieldWords& a) const;
    /// a * b mod m.
    FieldWords mul(const FieldWords& a, const FieldWords& b) const;
    /// a + b mod m.
    FieldWords add(const FieldWords& a, const FieldWords& b) const;
    /// a - b mod m.
    FieldWords sub(const FieldWords& a, const FieldWords& b) const;
    /// a * 2^256 mod m: into the Montgomery domain.
    FieldWords to_mont(const FieldWords& a) const;
    /// a * 2^-256 mod m: out of the Montgomery domain.
    FieldWords from_mont(const FieldWords& a) const;
    /// a * b * 2^-256 mod m: the Montgomery product.
    FieldWords mont_mul(const FieldWords& a, const FieldWords& b) const {
        return from_mont(mul(a, b));
    }

private:
    /// x mod m for a little-endian value of `words` 32-bit words.
    FieldWords mod(const std::uint32_t* x, std::size_t words) const;

    FieldWords m_;
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

/// CRC-32 one bit at a time over the reflected polynomial 0xEDB88320, with
/// crc32's seed convention: the reference the slice-by-8 crc32 is pinned
/// against.
std::uint32_t crc32_reference(ByteSpan data, std::uint32_t seed = 0);

}  // namespace upkit::crypto

namespace upkit::diff {

/// Prefix-doubling suffix array, O(n log^2 n): the oracle SA-IS
/// (build_suffix_array) is cross-checked against.
std::vector<std::uint32_t> build_suffix_array_doubling(ByteSpan data);

/// Whole-buffer patch applier over the interleaved bsdiff stream: the
/// reference the streaming PatchApplier is cross-checked against.
Expected<Bytes> bspatch_all(ByteSpan old_image, ByteSpan patch);

}  // namespace upkit::diff

namespace upkit::flash {

/// SimFlash's storage and fault model over one dense buffer of the whole
/// geometry, programmed a byte at a time: the reference the sparse,
/// sector-shared SimFlash is pinned against. Same bit rules, torn writes and
/// erases (drawing the same fault_rng_ stream), power-loss plans, wear and
/// write counters; no clock or energy charging.
class DenseSimFlash final : public FlashDevice {
public:
    explicit DenseSimFlash(const FlashGeometry& geometry);

    const FlashGeometry& geometry() const override { return geometry_; }
    Status read(std::uint64_t offset, MutByteSpan out) override;
    Status write(std::uint64_t offset, ByteSpan data) override;
    Status erase_sector(std::uint64_t sector_index) override;

    void schedule_power_loss_range(std::vector<std::uint64_t> plan);
    void disarm_power_loss();
    void revive();
    bool dead() const { return dead_; }
    std::uint64_t power_cuts() const { return power_cuts_; }

    std::uint64_t erase_count(std::uint64_t sector_index) const;
    std::uint64_t total_erases() const { return total_erases_; }
    std::uint64_t total_writes() const { return total_writes_; }
    std::uint64_t bytes_written() const { return bytes_written_; }

private:
    bool consume_op_budget();

    FlashGeometry geometry_;
    Bytes storage_;
    std::vector<std::uint64_t> wear_;

    std::vector<std::uint64_t> plan_;
    std::size_t plan_next_ = 0;
    std::optional<std::uint64_t> plan_countdown_;
    bool dead_ = false;
    std::uint64_t power_cuts_ = 0;
    Rng fault_rng_{0xFA017};

    std::uint64_t total_erases_ = 0;
    std::uint64_t total_writes_ = 0;
    std::uint64_t bytes_written_ = 0;
};

}  // namespace upkit::flash
