#include "verify/verifier.hpp"

#include <algorithm>

namespace upkit::verify {

using manifest::Manifest;

Expected<ImageHeader> ImageHeader::from_envelope(suit::Envelope envelope) {
    auto converted = suit::to_manifest(envelope);
    if (!converted) return converted.status();
    ImageHeader header;
    header.manifest = std::move(*converted);
    header.firmware_offset = suit::kSuitHeaderRegion;
    header.envelope = std::move(envelope);
    return header;
}

std::size_t header_size(ByteSpan prefix) {
    return manifest::has_magic(prefix) ? manifest::wire_size_partial(prefix)
                                       : suit::kSuitHeaderRegion;
}

Expected<ImageHeader> parse_image_header(ByteSpan raw) {
    if (auto native = manifest::parse_manifest(raw)) return ImageHeader(std::move(*native));
    auto envelope = suit::parse_envelope(raw);
    if (!envelope) return envelope.status();
    return ImageHeader::from_envelope(std::move(*envelope));
}

Expected<ImageHeader> read_image_header(const slots::SlotConfig& slot) {
    Bytes raw(suit::kSuitHeaderRegion);
    UPKIT_RETURN_IF_ERROR(slot.device->read(slot.offset, MutByteSpan(raw)));

    // A chunked native header can outgrow the probe: re-read it whole, but
    // never past the slot, whatever entry count the (not yet authenticated)
    // header claims.
    const std::size_t size = header_size(raw);
    if (size > slot.size) return Status::kBadManifest;
    if (size > raw.size()) {
        raw.resize(size);
        UPKIT_RETURN_IF_ERROR(slot.device->read(slot.offset, MutByteSpan(raw)));
    }
    raw.resize(size);
    return parse_image_header(raw);
}

Expected<crypto::Sha256Digest> digest_slot(const slots::SlotConfig& slot,
                                           std::uint64_t offset, std::uint64_t size,
                                           Bytes& scratch) {
    const std::uint32_t chunk = slot.device->geometry().sector_bytes;
    if (scratch.size() < chunk) scratch.resize(chunk);
    crypto::Sha256 hasher;
    std::uint64_t at = slot.offset + offset;
    while (size > 0) {
        const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(chunk, size));
        UPKIT_RETURN_IF_ERROR(slot.device->read(at, MutByteSpan(scratch.data(), take)));
        hasher.update(ByteSpan(scratch.data(), take));
        at += take;
        size -= take;
    }
    return hasher.finalize();
}

Status Verifier::verify_signatures(const ImageHeader& header) const {
    // The to-be-signed bytes depend on the wire encoding: the native
    // manifest's own fields, or the SUIT envelope's CBOR.
    const Manifest& m = header.manifest;
    const std::optional<suit::Envelope>& envelope = header.envelope;
    const crypto::Sha256Digest vendor_tbs =
        crypto::Sha256::digest(envelope ? suit::vendor_tbs(m) : m.vendor_signed_bytes());
    const crypto::Sha256Digest server_tbs = crypto::Sha256::digest(
        envelope ? suit::server_tbs(envelope->manifest_bstr, envelope->vendor_signature)
                 : m.server_signed_bytes());
    // Both signatures go through the backend's batch entry point (one
    // Strauss walk + one inversion on software backends, two sequential
    // verifies on hardware). The batch only answers "both valid?"; the
    // common path — a well-formed manifest — needs nothing more. On
    // rejection the halves are re-verified individually so the caller
    // still learns *which* signature failed, exactly as the sequential
    // code reported it.
    if (backend_->verify2(vendor_key_, vendor_tbs, m.vendor_signature, server_key_,
                          server_tbs, m.server_signature)) {
        return Status::kOk;
    }
    if (!backend_->verify(vendor_key_, vendor_tbs, m.vendor_signature)) {
        return Status::kBadVendorSignature;
    }
    if (!backend_->verify(server_key_, server_tbs, m.server_signature)) {
        return Status::kBadServerSignature;
    }
    // The batch kernel and the individual kernels disagree only if one of
    // them is broken; fail closed on the batch verdict.
    return Status::kBadVendorSignature;
}

Status Verifier::check_compatibility(const ImageHeader& header, const DeviceIdentity& identity,
                                     const slots::SlotConfig& slot) const {
    const Manifest& m = header.manifest;
    if (m.app_id != identity.app_id) return Status::kBadAppId;
    if (m.link_offset != slots::kAnyLinkOffset && m.link_offset != slot.link_offset) {
        return Status::kBadLinkOffset;
    }
    if (header.firmware_offset + static_cast<std::uint64_t>(m.firmware_size) > slot.size) {
        return Status::kSlotTooSmall;
    }
    return Status::kOk;
}

Status Verifier::verify_manifest(const ImageHeader& header, const manifest::DeviceToken& token,
                                 const DeviceIdentity& identity,
                                 const slots::SlotConfig& target_slot) const {
    const Manifest& m = header.manifest;
    // Freshness properties first (paper: ID and nonce must echo the token).
    if (m.device_id != identity.device_id || m.device_id != token.device_id) {
        return Status::kBadDeviceId;
    }
    if (m.nonce != token.nonce) return Status::kBadNonce;
    if (m.version <= identity.installed_version) return Status::kStaleVersion;

    if (m.differential) {
        if (!identity.supports_differential) return Status::kBadOldVersion;
        if (m.old_version != identity.installed_version) return Status::kBadOldVersion;
    } else if (m.old_version != 0) {
        return Status::kBadManifest;  // full images carry no base version
    }
    if (m.chunked) {
        // A chunked transfer is a whole-image delivery where part of the
        // image is sourced locally: never differential or encrypted, the
        // air payload is at most the image (and legitimately zero when the
        // device already holds every chunk), and the table must tile the
        // image exactly.
        if (m.differential || m.encrypted) return Status::kBadManifest;
        if (m.payload_size > m.firmware_size) return Status::kBadManifest;
        UPKIT_RETURN_IF_ERROR(manifest::validate_chunk_table(m));
    } else {
        if (m.payload_size == 0) return Status::kBadManifest;
        const std::uint32_t overhead =
            m.encrypted ? static_cast<std::uint32_t>(manifest::kEncryptionOverhead) : 0;
        if (!m.differential && m.payload_size != m.firmware_size + overhead) {
            return Status::kBadManifest;
        }
        if (m.encrypted && m.payload_size <= overhead) return Status::kBadManifest;
    }

    UPKIT_RETURN_IF_ERROR(check_compatibility(header, identity, target_slot));
    return verify_signatures(header);
}

Status Verifier::verify_firmware_digest(const Manifest& m,
                                        const crypto::Sha256Digest& actual) const {
    if (!ct_equal(ByteSpan(m.digest.data(), m.digest.size()),
                  ByteSpan(actual.data(), actual.size()))) {
        return Status::kBadDigest;
    }
    return Status::kOk;
}

}  // namespace upkit::verify
