// Update-image manifest and device token (paper Sect. III-B, IV-D).
//
// The manifest carries the metadata the verifier checks, and two ECDSA
// signatures:
//  - the *vendor* signature, created at generation time over the fields the
//    vendor controls (version, size, digest, link offset, app ID) — grants
//    integrity and authenticity;
//  - the *update server* signature, created per device request over the
//    whole manifest including the device token fields (ID, nonce, old
//    version) — grants freshness, with no reliance on transport security,
//    wall clocks, or NTP.
// Compared to mcuboot/mcumgr manifests, the ID / nonce / old-version fields
// and the second signature are exactly what UpKit adds.
//
// Wire layout (little-endian, 200 bytes total):
//   0   magic "UPMF"                    4
//   4   format version (=1)             2
//   6   flags (bit0 = differential)     2
//   8   device ID                       4    |
//   12  nonce                           4    | token-bound, server-signed
//   16  old version                     2    |
//   18  version                         2
//   20  firmware size                   4
//   24  firmware SHA-256 digest         32
//   56  link offset                     4
//   60  app ID                          4
//   64  payload size (on-air bytes)     4
//   68  reserved (=0)                   4
//   72  vendor signature (r||s)         64
//   136 server signature (r||s)         64
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"

namespace upkit::manifest {

inline constexpr std::size_t kManifestSize = 200;
/// Wire offsets of the token-bound fields the update server fills in per
/// request, and of the server signature it writes last.
inline constexpr std::size_t kDeviceIdOffset = 8;
inline constexpr std::size_t kNonceOffset = 12;
inline constexpr std::size_t kServerSignatureOffset = 136;
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::uint16_t kFlagDifferential = 0x0001;
/// Payload is ChaCha20-Poly1305 sealed: prefixed with a 64-byte ephemeral
/// public key and suffixed with a 16-byte authentication tag
/// (confidentiality extension; see crypto/content_key.hpp).
inline constexpr std::uint16_t kFlagEncrypted = 0x0002;
/// Extra payload bytes when kFlagEncrypted is set.
inline constexpr std::size_t kEncryptionHeaderSize = 64;
inline constexpr std::size_t kEncryptionTagSize = 16;
inline constexpr std::size_t kEncryptionOverhead = kEncryptionHeaderSize + kEncryptionTagSize;
/// Manifest carries a chunk table (content-defined chunking, diff/cdc.hpp)
/// appended after the 200-byte core: count (u32) followed by `count`
/// fixed-size entries. The payload is then the concatenation of the chunks
/// the device reported missing, each independently verifiable on arrival.
inline constexpr std::uint16_t kFlagChunked = 0x0004;
/// Wire size of one chunk-table entry: offset u32 + length u32 + SHA-256.
inline constexpr std::size_t kChunkEntrySize = 40;
/// Structural bound on table size (a 4096-entry table is a ~160 KB wire
/// manifest — far beyond any image this framework targets).
inline constexpr std::size_t kMaxChunkEntries = 4096;

/// One contiguous chunk of an image: where it lives in the *new* image and
/// the digest that names it in the content-addressed store.
struct ChunkRef {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    crypto::Sha256Digest digest{};

    friend bool operator==(const ChunkRef& a, const ChunkRef& b) {
        return a.offset == b.offset && a.length == b.length && a.digest == b.digest;
    }
};

/// First 8 digest bytes as a little-endian integer — the compact chunk
/// identity used in device have-lists. A prefix collision at worst makes
/// the device copy a wrong local chunk, which the full per-chunk digest
/// check catches before any byte reaches flash.
std::uint64_t digest_prefix(const crypto::Sha256Digest& digest);

/// Requested by the proxy/agent before each update (paper Sect. III-B).
struct DeviceToken {
    std::uint32_t device_id = 0;
    /// Fresh per request; echoed back in the manifest.
    std::uint32_t nonce = 0;
    /// Installed firmware version if the device supports differential
    /// updates, 0 otherwise (the paper's in-band capability signal).
    std::uint16_t current_version = 0;

    /// Have-list: digest prefixes of the chunks of the installed image,
    /// strictly increasing (canonical wire order). Non-empty iff the device
    /// chunked its installed image and wants a chunked (have/want) update;
    /// empty keeps the legacy 10-byte token byte-identical.
    std::vector<std::uint64_t> have = {};

    bool supports_differential() const { return current_version != 0; }
    bool supports_chunked() const { return !have.empty(); }
};

/// Legacy token wire size; a token with a have-list is
/// kDeviceTokenSize + 2 + 8 * have.size().
inline constexpr std::size_t kDeviceTokenSize = 10;
inline constexpr std::size_t kMaxHaveEntries = kMaxChunkEntries;

Bytes serialize(const DeviceToken& token);
Expected<DeviceToken> parse_device_token(ByteSpan data);

struct Manifest {
    // Token-bound fields (set by the update server per request).
    std::uint32_t device_id = 0;
    std::uint32_t nonce = 0;
    std::uint16_t old_version = 0;

    // Vendor-controlled fields.
    std::uint16_t version = 0;
    std::uint32_t firmware_size = 0;
    crypto::Sha256Digest digest{};
    std::uint32_t link_offset = 0;
    std::uint32_t app_id = 0;

    // Transport fields (set by the update server).
    bool differential = false;
    bool encrypted = false;
    std::uint32_t payload_size = 0;  // bytes on the air: firmware or compressed patch

    /// Chunked distribution (kFlagChunked): the signed chunk table of the
    /// *new* image. May legitimately be empty while chunked is true (an
    /// empty image chunks to zero entries). Legacy manifests keep
    /// chunked == false and an empty table, and serialize byte-identically
    /// to the original 200-byte format.
    bool chunked = false;
    std::vector<ChunkRef> chunk_table;

    crypto::Signature vendor_signature{};
    crypto::Signature server_signature{};

    /// Canonical bytes covered by the vendor signature: the fields known at
    /// generation time, before any device token exists. Deliberately
    /// excludes the chunk table: the table is distribution metadata the
    /// server may strip for legacy devices, authenticated per request by
    /// the server signature, while the vendor-signed image digest keeps the
    /// end-to-end authenticity of whatever the chunks assemble into.
    Bytes vendor_signed_bytes() const;

    /// Bytes covered by the update-server signature: the full serialized
    /// manifest minus the server signature field itself, i.e. token fields,
    /// transport fields, the vendor signature, and any chunk table.
    Bytes server_signed_bytes() const;
};

/// Serializes to the wire format: exactly 200 bytes for legacy manifests,
/// 200 + 4 + kChunkEntrySize * n for chunked ones.
Bytes serialize(const Manifest& m);

/// Wire size `m` serializes to.
std::size_t wire_size(const Manifest& m);

/// SHA-256 of the server-signed bytes of a serialized manifest (at least
/// kManifestSize bytes): every wire byte but the server signature field.
/// Equals SHA-256 of server_signed_bytes() of the manifest `wire` encodes,
/// without parsing it.
crypto::Sha256Digest server_signed_digest(ByteSpan wire);

/// Incremental framing helper for receivers assembling a manifest from a
/// byte stream, and for slot readers sizing a header read: given the bytes
/// so far, returns the total wire size once it is determined, or 0 while
/// more bytes are needed to tell. A prefix that
/// cannot be a chunked manifest (bad magic/format, chunked flag clear)
/// resolves to the legacy size, so malformed input is still rejected by a
/// full parse after exactly 200 bytes — the pre-chunk behaviour.
std::size_t wire_size_partial(ByteSpan prefix);

/// Parses and structurally validates (magic, format, reserved field,
/// chunk-table framing).
Expected<Manifest> parse_manifest(ByteSpan data);

/// Structural validity of the chunk table against the manifest core: a
/// chunked manifest's entries must tile [0, firmware_size) contiguously
/// with nonzero lengths; a legacy manifest must carry no table.
Status validate_chunk_table(const Manifest& m);

}  // namespace upkit::manifest
