// The verifier module (paper Sect. IV-D).
//
// One implementation shared — verbatim — by the update agent and the
// bootloader; UpKit's double verification is this module invoked twice,
// over either wire encoding (the native manifest or a SUIT envelope). It
// reads an image header from a slot, checks the two digital signatures and
// every manifest field against the device's identity, the issued device
// token, and the target slot, and digests stored firmware. The update
// agent runs verify_manifest *before* the firmware is downloaded (early
// rejection, no reboot); after reboot the bootloader runs the token-free
// steps on the stored image: check_compatibility, verify_signatures,
// digest_slot, verify_firmware_digest.
#pragma once

#include <optional>

#include "crypto/backend.hpp"
#include "manifest/manifest.hpp"
#include "slots/slot.hpp"
#include "suit/suit.hpp"

namespace upkit::verify {

/// Immutable facts about the device an update must be compatible with.
struct DeviceIdentity {
    std::uint32_t device_id = 0;
    std::uint32_t app_id = 0;
    std::uint16_t installed_version = 0;
    bool supports_differential = false;
};

/// An image header in either wire encoding: the manifest, where the
/// firmware starts (the native manifest's wire size, or the padded SUIT
/// envelope region), and the parsed envelope when the image is
/// SUIT-encoded (its signatures cover the envelope's CBOR bytes).
struct ImageHeader {
    manifest::Manifest manifest;
    std::uint64_t firmware_offset = manifest::kManifestSize;
    std::optional<suit::Envelope> envelope;

    ImageHeader() = default;
    /// A native header: the firmware follows the manifest's wire bytes.
    ImageHeader(manifest::Manifest m)  // NOLINT(google-explicit-constructor)
        : manifest(std::move(m)), firmware_offset(manifest::wire_size(manifest)) {}

    /// A SUIT header: the envelope's manifest, with the firmware after the
    /// kSuitHeaderRegion bytes the envelope is padded into.
    static Expected<ImageHeader> from_envelope(suit::Envelope envelope);
};

/// Reads the header at the start of `slot`: probes kSuitHeaderRegion bytes,
/// re-reads a chunked native header that outgrows the probe (only when it
/// still fits the slot), then parses native first, SUIT second. A failed
/// read returns the flash's status; an unparseable header kBadManifest.
Expected<ImageHeader> read_image_header(const slots::SlotConfig& slot);

/// SHA-256 over `size` bytes starting `offset` bytes into `slot`, streamed
/// in sector-sized reads through `scratch` (grown, never shrunk, so one
/// buffer serves every image a boot scans).
Expected<crypto::Sha256Digest> digest_slot(const slots::SlotConfig& slot,
                                           std::uint64_t offset, std::uint64_t size,
                                           Bytes& scratch);

class Verifier {
public:
    /// Building the Verifier prepares both trust-anchor keys: their wNAF
    /// tables are constructed (or fetched from the process-wide intern
    /// cache) once here, so all four verifies per update — two in the
    /// agent, two in the bootloader — do zero table construction.
    Verifier(const crypto::CryptoBackend& backend, const crypto::PublicKey& vendor_key,
             const crypto::PublicKey& server_key)
        : backend_(&backend), vendor_key_(vendor_key), server_key_(server_key) {}

    /// Signature checks only: vendor signature (integrity/authenticity) and
    /// update-server signature (freshness binding), over the to-be-signed
    /// bytes of the header's encoding.
    Status verify_signatures(const ImageHeader& header) const;

    /// Agent-side verification of an offered header against the token
    /// issued for this request and the slot the image would be stored into:
    /// fields, then compatibility, then signatures. Returns the first
    /// failed property (paper's early-rejection point, step 9).
    Status verify_manifest(const ImageHeader& header, const manifest::DeviceToken& token,
                           const DeviceIdentity& identity,
                           const slots::SlotConfig& target_slot) const;

    /// The token-free checks both halves run: app ID, link offset, and
    /// header plus firmware fitting the slot.
    Status check_compatibility(const ImageHeader& header, const DeviceIdentity& identity,
                               const slots::SlotConfig& slot) const;

    /// Compares the digest computed over the received or stored firmware
    /// with the manifest's (agent step 13; also used by the bootloader).
    Status verify_firmware_digest(const manifest::Manifest& m,
                                  const crypto::Sha256Digest& actual) const;

    const crypto::CryptoBackend& backend() const { return *backend_; }

private:
    const crypto::CryptoBackend* backend_;
    crypto::PreparedPublicKey vendor_key_;
    crypto::PreparedPublicKey server_key_;
};

}  // namespace upkit::verify
