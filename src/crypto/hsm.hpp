// ATECC508 hardware-security-module model + CryptoAuthLib backend.
//
// The paper (Sect. V) pairs the TI CC2650 with Atmel's ATECC508
// CryptoAuthentication chip to (i) store public keys in tamper-protected
// slots and (ii) verify ECDSA signatures in hardware, shaving ~10% flash
// off the bootloader. This model reproduces the behavioural contract:
// write-once-after-lock key slots, fixed-function P-256 verification with
// the chip's characteristic latency, and an I2C-style wake/command cost.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "crypto/backend.hpp"

namespace upkit::crypto {

class Atecc508 {
public:
    static constexpr unsigned kKeySlots = 8;

    /// Stores a public key in `slot`, as the prepared handle it was minted
    /// with: the slot shares that table, so its verifies build none. Fails
    /// once the configuration is locked.
    Status provision(unsigned slot, const PreparedPublicKey& key);

    /// Locks the data zone: provisioned keys become immutable (the property
    /// UpKit relies on to keep verification keys out of attackers' reach).
    void lock() { locked_ = true; }
    bool locked() const { return locked_; }

    std::optional<PublicKey> key_in_slot(unsigned slot) const;

    /// Hardware ECDSA verify against the key stored in `slot`, through the
    /// slot's handle.
    Expected<bool> verify(unsigned slot, const Sha256Digest& digest, ByteSpan signature) const;

    /// Cumulative number of hardware verify commands issued (telemetry for
    /// the energy model and the ablation benches).
    std::uint64_t verify_count() const { return verify_count_; }

private:
    std::array<std::optional<PreparedPublicKey>, kKeySlots> slots_{};
    bool locked_ = false;
    mutable std::uint64_t verify_count_ = 0;
};

/// CryptoAuthLib-style backend: verification is delegated to the HSM and
/// only succeeds for keys that are provisioned there. Signing is not
/// supported on-device (servers sign in software).
class CryptoAuthLibBackend : public CryptoBackend {
public:
    explicit CryptoAuthLibBackend(std::shared_ptr<Atecc508> hsm) : hsm_(std::move(hsm)) {}

    std::string_view name() const override { return "cryptoauthlib"; }

    BackendCosts costs() const override {
        // ATECC508 datasheet: ECDSA verify ~58 ms typ; SHA runs on the host
        // MCU here; ~16 mA draw while the chip executes a command.
        return BackendCosts{.sign_seconds = 0.0,
                            .verify_seconds = 0.058,
                            .sha256_seconds_per_kb = 0.0013,
                            .active_current_ma = 16.0};
    }

    bool verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                ByteSpan signature) const override;

    Expected<Signature> sign(const PrivateKey&, const Sha256Digest&) const override {
        return Status::kUnimplemented;
    }

    const Atecc508& hsm() const { return *hsm_; }

private:
    std::shared_ptr<Atecc508> hsm_;
};

std::unique_ptr<CryptoBackend> make_cryptoauthlib_backend(std::shared_ptr<Atecc508> hsm);

}  // namespace upkit::crypto
