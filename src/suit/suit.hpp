// IETF-SUIT-style manifest envelope — the paper's first future-work item.
//
// Encodes UpKit's update metadata as a CBOR envelope shaped after
// draft-ietf-suit-manifest (the information model the paper cites as [10]):
//
//   envelope (map)
//     1: authentication wrapper = [ vendor-signature, server-signature ]
//     3: manifest               = bstr( manifest map )
//   manifest (map)
//     1: manifest-version   (= 1)
//     2: sequence-number    (= firmware version; SUIT's anti-rollback)
//     3: common (map)
//         1: component-id   (= [ app-id ])
//         2: image-digest   (SHA-256, bstr)
//         3: image-size
//         4: link-offset
//     8: upkit-parameters (map)   -- UpKit's freshness/differential fields
//         1: device-id   2: nonce   3: old-version
//         4: payload-size           5: differential
//
// Signature coverage mirrors UpKit's double signature:
//   vendor signs  SHA-256( bstr(manifest map) with upkit-parameters REMOVED )
//     — only fields known at generation time;
//   server signs  SHA-256( bstr(full manifest map) || vendor-signature )
//     — binding token fields and the vendor signature per request.
//
// The envelope is an alternative *wire encoding*: suit::to_manifest /
// suit::from_manifest convert losslessly to the native fixed-size format,
// and verification semantics are identical (tested side by side).
#pragma once

#include "crypto/ecdsa.hpp"
#include "manifest/manifest.hpp"
#include "suit/cbor.hpp"

namespace upkit::suit {

/// SUIT envelope and manifest map keys (subset).
inline constexpr std::int64_t kKeyAuthWrapper = 1;
inline constexpr std::int64_t kKeyManifest = 3;
inline constexpr std::int64_t kKeyManifestVersion = 1;
inline constexpr std::int64_t kKeySequenceNumber = 2;
inline constexpr std::int64_t kKeyCommon = 3;
inline constexpr std::int64_t kKeyUpkitParams = 8;
inline constexpr std::int64_t kCommonComponentId = 1;
inline constexpr std::int64_t kCommonDigest = 2;
inline constexpr std::int64_t kCommonImageSize = 3;
inline constexpr std::int64_t kCommonLinkOffset = 4;
inline constexpr std::int64_t kParamDeviceId = 1;
inline constexpr std::int64_t kParamNonce = 2;
inline constexpr std::int64_t kParamOldVersion = 3;
inline constexpr std::int64_t kParamPayloadSize = 4;
inline constexpr std::int64_t kParamDifferential = 5;
inline constexpr std::int64_t kParamEncrypted = 6;

struct Envelope {
    crypto::Signature vendor_signature{};
    crypto::Signature server_signature{};
    Bytes manifest_bstr;  // encoded manifest map (the signed artefact)

    Bytes encode() const;
};

/// When a SUIT-delivered image is stored in a slot, the (variable-length)
/// envelope occupies a fixed zero-padded header region and the firmware
/// follows at this offset — the SUIT analogue of the native layout's
/// 200-byte manifest prefix.
inline constexpr std::size_t kSuitHeaderRegion = 512;

/// Builds the (unsigned-fields-complete) manifest map for `m`.
CborValue manifest_map(const manifest::Manifest& m);

/// Canonical to-be-signed bytes.
Bytes vendor_tbs(const manifest::Manifest& m);
Bytes server_tbs(const Bytes& manifest_bstr, const crypto::Signature& vendor_sig);

/// Encodes a fully-populated native manifest as a signed SUIT envelope,
/// re-signing with the given keys (signature coverage differs from the
/// fixed-size wire format, so signatures cannot be transplanted).
Envelope from_manifest(const manifest::Manifest& m, const crypto::PrivateKey& vendor_key,
                       const crypto::PrivateKey& server_key);

/// Parses an envelope followed by nothing but zero bytes (the padding of
/// its header region in a slot), with no signature check — that is the
/// verifier's job: verify::Verifier::verify_signatures over the header it
/// converts to.
Expected<Envelope> parse_envelope(ByteSpan data);

/// Converts a parsed envelope into the native manifest structure (signature
/// fields carry the SUIT signatures; field checks work unchanged).
Expected<manifest::Manifest> to_manifest(const Envelope& envelope);

}  // namespace upkit::suit
