// The security interface (paper Fig. 3, "Security interface").
//
// UpKit abstracts the crypto primitives it needs — SHA-256 digests and
// ECDSA/secp256r1 signature verification — behind a single interface so
// that the same verifier module can run on TinyDTLS, tinycrypt, or a
// CryptoAuthLib-driven ATECC508 HSM, and so the update agent can share one
// crypto implementation with the main application. Each backend also
// carries the execution-cost profile the device simulator charges when the
// primitive runs on the modelled MCU (the math itself runs natively here).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"

namespace upkit::crypto {

/// Modelled on-device execution cost of each primitive. Times are for the
/// nRF52840-class Cortex-M4 @ 64 MHz the paper evaluates on; the device
/// simulator scales them by the platform's relative CPU speed.
struct BackendCosts {
    double sign_seconds = 0.0;
    double verify_seconds = 0.0;
    /// Modelled cost of one batched double verification (both manifest
    /// signatures in one Strauss pass). 0 means "not calibrated": charge
    /// sites then fall back to 2 * verify_seconds, so paper-anchored
    /// profiles price the pair exactly as two sequential verifies.
    double verify2_seconds = 0.0;
    double sha256_seconds_per_kb = 0.0;
    /// Average extra current draw while the primitive runs, in mA at 3 V
    /// (0 for pure-software backends where the CPU-active draw applies).
    double active_current_ma = 0.0;
};

class CryptoBackend {
public:
    virtual ~CryptoBackend() = default;

    virtual std::string_view name() const = 0;
    virtual BackendCosts costs() const = 0;

    /// SHA-256 of `data` (all backends use the shared software digest; the
    /// ATECC508 also has a SHA engine, modelled via costs()).
    virtual Sha256Digest digest(ByteSpan data) const { return Sha256::digest(data); }

    /// ECDSA/secp256r1 verification of a 64-byte r||s signature against a
    /// long-lived key whose wNAF table is already built (UpKit's vendor and
    /// server keys are fixed at provisioning). Software backends run the
    /// zero-table-construction hot path; the HSM backend resolves key.key()
    /// to one of its own slots.
    virtual bool verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                        ByteSpan signature) const = 0;

    /// UpKit's double signature as one call: verifies the vendor claim
    /// (key1/digest1/signature1) AND the server claim (key2/digest2/
    /// signature2). Semantically identical to two verify() calls; software
    /// backends override with the batched Strauss 4-point kernel
    /// (ecdsa_verify2), which shares one doubling walk and one modular
    /// inversion across the pair. Hardware backends keep this sequential
    /// fallback — the ATECC508 executes one verify command per signature.
    virtual bool verify2(const PreparedPublicKey& key1, const Sha256Digest& digest1,
                         ByteSpan signature1, const PreparedPublicKey& key2,
                         const Sha256Digest& digest2, ByteSpan signature2) const {
        return verify(key1, digest1, signature1) && verify(key2, digest2, signature2);
    }

    /// ECDSA signing. Device-side backends may not support it (the
    /// ATECC508 is used verify-only in UpKit's deployment).
    virtual Expected<Signature> sign(const PrivateKey& key,
                                     const Sha256Digest& digest) const = 0;
};

/// Cost of one double verification under `costs`: the calibrated batch
/// price when set, else exactly two sequential verifies. Charge sites use
/// this helper so uncalibrated (paper-anchored) profiles are bit-identical
/// to the pre-batch model and hardware backends stay sequentially priced.
inline double double_verify_seconds(const BackendCosts& costs) {
    return costs.verify2_seconds > 0.0 ? costs.verify2_seconds : 2.0 * costs.verify_seconds;
}

/// Process-wide memo of software-backend verify() results, keyed by the
/// full (public key, digest, signature) triple. Fleet campaigns re-verify
/// the same manifests at boot that they verified at receive time (and every
/// device checks the one vendor signature per version), so at million-device
/// scale the memo removes the dominant repeated cost without changing a
/// single verdict — the answer is a pure function of the key. OFF by
/// default: the small suites want the real kernels exercised.
/// bench/fleet_scale and the perfbench fleet_rollout workload opt in.
/// verify2() with one half memoized verifies only the other half. Every
/// lookup counts once: a miss when its insert is the first for that
/// triple, else a hit, so misses equal the distinct triples and neither
/// counter depends on how threads interleave. Tests use them to prove
/// both the reuse and the equivalence of results with the memo on and
/// off.
struct VerifyMemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};
void set_verify_memo_enabled(bool enabled);
bool verify_memo_enabled();
/// Drops all memoized entries and zeroes the counters (benches call this
/// between sweep cells so one cell's warm cache can't flatter the next).
void verify_memo_reset();
VerifyMemoStats verify_memo_stats();

/// TinyDTLS's crypto core: software ECDSA, the smallest-flash option in the
/// paper's Table I comparison.
std::unique_ptr<CryptoBackend> make_tinydtls_backend();

/// tinycrypt: software ECDSA tuned for speed, slightly larger flash.
std::unique_ptr<CryptoBackend> make_tinycrypt_backend();

/// Same software backends with an explicit cost profile (e.g. the
/// calibrated one from calibrate_software_costs()).
std::unique_ptr<CryptoBackend> make_tinydtls_backend(const BackendCosts& costs);
std::unique_ptr<CryptoBackend> make_tinycrypt_backend(const BackendCosts& costs);

/// Scales a paper-anchored software cost profile by committed speedups of
/// this repo's verification kernels over their pre-optimisation references
/// (prepared-key wNAF verify, batched verify2, unrolled SHA-256): the
/// modelled Cortex-M4 is assumed to gain what a host gained from the same
/// algorithmic changes. A pure function of `baseline`; bench/device_verify
/// prints the live host readings of the same three ratios.
BackendCosts calibrate_software_costs(const BackendCosts& baseline);

}  // namespace upkit::crypto
