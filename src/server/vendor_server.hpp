// Vendor server (paper Fig. 2, step 1): receives the raw firmware binary,
// builds the manifest core, and signs it with the vendor's private key.
// Runs off-device; no execution costs are modelled for it.
#pragma once

#include "crypto/ecdsa.hpp"
#include "manifest/manifest.hpp"
#include "slots/slot.hpp"

namespace upkit::server {

/// A vendor-signed firmware release, not yet bound to any device/request.
struct Release {
    manifest::Manifest manifest;  // token + transport fields still zero
    Bytes firmware;
    /// Vendor signature over the SUIT-encoded to-be-signed bytes, created
    /// alongside the native one so the update server can serve either wire
    /// format without holding the vendor key.
    crypto::Signature suit_vendor_signature{};
};

class VendorServer {
public:
    /// The signing key is derived deterministically from `key_seed`; its
    /// public half is prepared here, once, as the trust anchor devices
    /// verify releases against.
    explicit VendorServer(ByteSpan key_seed)
        : key_(crypto::PrivateKey::generate(key_seed)), public_key_(key_.public_key()) {}

    const crypto::PrivateKey& private_key() const { return key_; }
    /// The prepared trust anchor: copies share one verification table.
    const crypto::PreparedPublicKey& public_key() const { return public_key_; }

    struct ReleaseSpec {
        std::uint16_t version = 1;
        std::uint32_t app_id = 0;
        std::uint32_t link_offset = slots::kAnyLinkOffset;
        /// Attach a content-defined chunk table (diff/cdc.hpp) so the
        /// update server can serve have/want devices only the chunks they
        /// miss.
        bool chunked = false;
    };

    /// Creates a vendor-signed release for `firmware`.
    Release create_release(Bytes firmware, const ReleaseSpec& spec) const;

private:
    crypto::PrivateKey key_;
    crypto::PreparedPublicKey public_key_;
};

}  // namespace upkit::server
