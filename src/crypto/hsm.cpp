#include "crypto/hsm.hpp"

namespace upkit::crypto {

Status Atecc508::provision(unsigned slot, const PreparedPublicKey& key) {
    if (slot >= kKeySlots) return Status::kOutOfRange;
    if (locked_) return Status::kHsmError;
    slots_[slot] = key;
    return Status::kOk;
}

std::optional<PublicKey> Atecc508::key_in_slot(unsigned slot) const {
    if (slot >= kKeySlots || !slots_[slot]) return std::nullopt;
    return slots_[slot]->key();
}

Expected<bool> Atecc508::verify(unsigned slot, const Sha256Digest& digest,
                                ByteSpan signature) const {
    if (slot >= kKeySlots) return Status::kOutOfRange;
    if (!slots_[slot]) return Status::kHsmError;
    ++verify_count_;
    // The slot holds the handle it was provisioned with: no table is built.
    return ecdsa_verify(*slots_[slot], digest, signature);
}

bool CryptoAuthLibBackend::verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                                  ByteSpan signature) const {
    // The library resolves the caller's key to a provisioned slot; a key the
    // HSM does not hold cannot be used — that is the anti-tampering point.
    for (unsigned slot = 0; slot < Atecc508::kKeySlots; ++slot) {
        const auto stored = hsm_->key_in_slot(slot);
        if (stored && *stored == key.key()) {
            const auto result = hsm_->verify(slot, digest, signature);
            return result.has_value() && *result;
        }
    }
    return false;
}

std::unique_ptr<CryptoBackend> make_cryptoauthlib_backend(std::shared_ptr<Atecc508> hsm) {
    return std::make_unique<CryptoAuthLibBackend>(std::move(hsm));
}

}  // namespace upkit::crypto
