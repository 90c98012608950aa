#include "suit/suit.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace upkit::suit {

namespace {

CborValue common_map(const manifest::Manifest& m) {
    CborMap common;
    common.emplace(kCommonComponentId,
                   CborArray{CborValue(static_cast<std::uint64_t>(m.app_id))});
    common.emplace(kCommonDigest, Bytes(m.digest.begin(), m.digest.end()));
    common.emplace(kCommonImageSize, static_cast<std::uint64_t>(m.firmware_size));
    common.emplace(kCommonLinkOffset, static_cast<std::uint64_t>(m.link_offset));
    return CborValue(std::move(common));
}

CborValue params_map(const manifest::Manifest& m) {
    CborMap params;
    params.emplace(kParamDeviceId, static_cast<std::uint64_t>(m.device_id));
    params.emplace(kParamNonce, static_cast<std::uint64_t>(m.nonce));
    params.emplace(kParamOldVersion, static_cast<std::uint64_t>(m.old_version));
    params.emplace(kParamPayloadSize, static_cast<std::uint64_t>(m.payload_size));
    params.emplace(kParamDifferential, m.differential);
    params.emplace(kParamEncrypted, m.encrypted);
    return CborValue(std::move(params));
}

Expected<std::uint64_t> require_uint(const CborValue* v) {
    if (v == nullptr || !v->is_unsigned()) return Status::kBadManifest;
    return v->as_unsigned();
}

}  // namespace

CborValue manifest_map(const manifest::Manifest& m) {
    CborMap map;
    map.emplace(kKeyManifestVersion, std::uint64_t{1});
    map.emplace(kKeySequenceNumber, static_cast<std::uint64_t>(m.version));
    map.emplace(kKeyCommon, common_map(m));
    map.emplace(kKeyUpkitParams, params_map(m));
    return CborValue(std::move(map));
}

Bytes vendor_tbs(const manifest::Manifest& m) {
    // The vendor's view of the manifest: everything except the per-request
    // upkit-parameters block.
    CborMap map;
    map.emplace(kKeyManifestVersion, std::uint64_t{1});
    map.emplace(kKeySequenceNumber, static_cast<std::uint64_t>(m.version));
    map.emplace(kKeyCommon, common_map(m));
    return cbor_encode(CborValue(std::move(map)));
}

Bytes server_tbs(const Bytes& manifest_bstr, const crypto::Signature& vendor_sig) {
    Bytes tbs = manifest_bstr;
    append(tbs, ByteSpan(vendor_sig.data(), vendor_sig.size()));
    return tbs;
}

Bytes Envelope::encode() const {
    CborMap envelope;
    envelope.emplace(
        kKeyAuthWrapper,
        CborArray{CborValue(Bytes(vendor_signature.begin(), vendor_signature.end())),
                  CborValue(Bytes(server_signature.begin(), server_signature.end()))});
    envelope.emplace(kKeyManifest, manifest_bstr);
    return cbor_encode(CborValue(std::move(envelope)));
}

Envelope from_manifest(const manifest::Manifest& m, const crypto::PrivateKey& vendor_key,
                       const crypto::PrivateKey& server_key) {
    Envelope envelope;
    envelope.manifest_bstr = cbor_encode(manifest_map(m));
    envelope.vendor_signature =
        crypto::ecdsa_sign(vendor_key, crypto::Sha256::digest(vendor_tbs(m)));
    envelope.server_signature = crypto::ecdsa_sign(
        server_key, crypto::Sha256::digest(
                        server_tbs(envelope.manifest_bstr, envelope.vendor_signature)));
    return envelope;
}

Expected<Envelope> parse_envelope(ByteSpan data) {
    const auto decoded = cbor_decode_prefix(data);
    if (!decoded || !decoded->is_map()) return Status::kBadManifest;
    // Only the zero padding of a slot's header region may follow.
    if (std::any_of(data.begin(), data.end(), [](std::uint8_t b) { return b != 0; })) {
        return Status::kBadManifest;
    }

    const CborValue* auth = decoded->find(kKeyAuthWrapper);
    const CborValue* manifest_field = decoded->find(kKeyManifest);
    if (auth == nullptr || !auth->is_array() || auth->as_array().size() != 2 ||
        manifest_field == nullptr || !manifest_field->is_bytes()) {
        return Status::kBadManifest;
    }
    const CborValue& vendor_sig = auth->as_array()[0];
    const CborValue& server_sig = auth->as_array()[1];
    if (!vendor_sig.is_bytes() || vendor_sig.as_bytes().size() != crypto::kSignatureSize ||
        !server_sig.is_bytes() || server_sig.as_bytes().size() != crypto::kSignatureSize) {
        return Status::kBadManifest;
    }

    Envelope envelope;
    std::copy(vendor_sig.as_bytes().begin(), vendor_sig.as_bytes().end(),
              envelope.vendor_signature.begin());
    std::copy(server_sig.as_bytes().begin(), server_sig.as_bytes().end(),
              envelope.server_signature.begin());
    envelope.manifest_bstr = manifest_field->as_bytes();
    return envelope;
}

Expected<manifest::Manifest> to_manifest(const Envelope& envelope) {
    auto decoded = cbor_decode(envelope.manifest_bstr);
    if (!decoded || !decoded->is_map()) return Status::kBadManifest;

    auto version_field = require_uint(decoded->find(kKeyManifestVersion));
    if (!version_field || *version_field != 1) return Status::kBadManifest;
    auto sequence = require_uint(decoded->find(kKeySequenceNumber));
    if (!sequence || *sequence > 0xFFFF) return Status::kBadManifest;

    const CborValue* common = decoded->find(kKeyCommon);
    const CborValue* params = decoded->find(kKeyUpkitParams);
    if (common == nullptr || !common->is_map() || params == nullptr || !params->is_map()) {
        return Status::kBadManifest;
    }

    manifest::Manifest m;
    m.version = static_cast<std::uint16_t>(*sequence);

    const CborValue* component = common->find(kCommonComponentId);
    if (component == nullptr || !component->is_array() || component->as_array().size() != 1 ||
        !component->as_array()[0].is_unsigned()) {
        return Status::kBadManifest;
    }
    m.app_id = static_cast<std::uint32_t>(component->as_array()[0].as_unsigned());

    const CborValue* digest = common->find(kCommonDigest);
    if (digest == nullptr || !digest->is_bytes() ||
        digest->as_bytes().size() != m.digest.size()) {
        return Status::kBadManifest;
    }
    std::copy(digest->as_bytes().begin(), digest->as_bytes().end(), m.digest.begin());

    auto image_size = require_uint(common->find(kCommonImageSize));
    auto link_offset = require_uint(common->find(kCommonLinkOffset));
    if (!image_size || !link_offset || *image_size > 0xFFFFFFFF ||
        *link_offset > 0xFFFFFFFF) {
        return Status::kBadManifest;
    }
    m.firmware_size = static_cast<std::uint32_t>(*image_size);
    m.link_offset = static_cast<std::uint32_t>(*link_offset);

    auto device_id = require_uint(params->find(kParamDeviceId));
    auto nonce = require_uint(params->find(kParamNonce));
    auto old_version = require_uint(params->find(kParamOldVersion));
    auto payload_size = require_uint(params->find(kParamPayloadSize));
    const CborValue* differential = params->find(kParamDifferential);
    const CborValue* encrypted = params->find(kParamEncrypted);
    if (!device_id || !nonce || !old_version || !payload_size || differential == nullptr ||
        !differential->is_bool() || encrypted == nullptr || !encrypted->is_bool() ||
        *device_id > 0xFFFFFFFF || *nonce > 0xFFFFFFFF || *old_version > 0xFFFF ||
        *payload_size > 0xFFFFFFFF) {
        return Status::kBadManifest;
    }
    m.device_id = static_cast<std::uint32_t>(*device_id);
    m.nonce = static_cast<std::uint32_t>(*nonce);
    m.old_version = static_cast<std::uint16_t>(*old_version);
    m.payload_size = static_cast<std::uint32_t>(*payload_size);
    m.differential = differential->as_bool();
    m.encrypted = encrypted->as_bool();

    m.vendor_signature = envelope.vendor_signature;
    m.server_signature = envelope.server_signature;
    return m;
}

}  // namespace upkit::suit
