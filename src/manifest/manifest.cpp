#include "manifest/manifest.hpp"

#include <cstring>

#include "common/endian.hpp"

namespace upkit::manifest {

namespace {

constexpr char kMagic[4] = {'U', 'P', 'M', 'F'};

// Wire bytes [0, kServerSignatureOffset): everything up to the server
// signature field. Shared by serialize() and server_signed_bytes() so the
// signature input and the wire can never drift apart.
void append_core(Bytes& out, const Manifest& m) {
    out.insert(out.end(), kMagic, kMagic + 4);
    put_le16(out, kFormatVersion);
    put_le16(out, static_cast<std::uint16_t>((m.differential ? kFlagDifferential : 0) |
                                             (m.encrypted ? kFlagEncrypted : 0) |
                                             (m.chunked ? kFlagChunked : 0)));
    put_le32(out, m.device_id);
    put_le32(out, m.nonce);
    put_le16(out, m.old_version);
    put_le16(out, m.version);
    put_le32(out, m.firmware_size);
    append(out, ByteSpan(m.digest.data(), m.digest.size()));
    put_le32(out, m.link_offset);
    put_le32(out, m.app_id);
    put_le32(out, m.payload_size);
    put_le32(out, 0);  // reserved
    append(out, ByteSpan(m.vendor_signature.data(), m.vendor_signature.size()));
}

// Wire bytes [kManifestSize, end): chunk count + entries (chunked
// manifests only).
void append_chunk_table(Bytes& out, const Manifest& m) {
    put_le32(out, static_cast<std::uint32_t>(m.chunk_table.size()));
    for (const ChunkRef& ref : m.chunk_table) {
        put_le32(out, ref.offset);
        put_le32(out, ref.length);
        append(out, ByteSpan(ref.digest.data(), ref.digest.size()));
    }
}

}  // namespace

std::uint64_t digest_prefix(const crypto::Sha256Digest& digest) {
    return load_le64(ByteSpan(digest.data(), 8));
}

Bytes serialize(const DeviceToken& token) {
    Bytes out;
    out.reserve(kDeviceTokenSize + (token.have.empty() ? 0 : 2 + 8 * token.have.size()));
    put_le32(out, token.device_id);
    put_le32(out, token.nonce);
    put_le16(out, token.current_version);
    if (!token.have.empty()) {
        put_le16(out, static_cast<std::uint16_t>(token.have.size()));
        for (std::uint64_t prefix : token.have) put_le64(out, prefix);
    }
    return out;
}

Expected<DeviceToken> parse_device_token(ByteSpan data) {
    if (data.size() < kDeviceTokenSize) return Status::kInvalidArgument;
    DeviceToken token;
    token.device_id = load_le32(data.subspan(0, 4));
    token.nonce = load_le32(data.subspan(4, 4));
    token.current_version = load_le16(data.subspan(8, 2));
    if (data.size() == kDeviceTokenSize) return token;  // legacy 10-byte token

    if (data.size() < kDeviceTokenSize + 2) return Status::kInvalidArgument;
    const std::size_t count = load_le16(data.subspan(kDeviceTokenSize, 2));
    if (count == 0 || count > kMaxHaveEntries) return Status::kInvalidArgument;
    if (data.size() != kDeviceTokenSize + 2 + 8 * count) return Status::kInvalidArgument;
    token.have.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t prefix = load_le64(data.subspan(kDeviceTokenSize + 2 + 8 * i, 8));
        // Canonical wire order: strictly increasing, so a have-list has
        // exactly one encoding and hashes identically on both sides.
        if (!token.have.empty() && prefix <= token.have.back()) return Status::kInvalidArgument;
        token.have.push_back(prefix);
    }
    return token;
}

std::size_t wire_size(const Manifest& m) {
    return m.chunked ? kManifestSize + 4 + kChunkEntrySize * m.chunk_table.size()
                     : kManifestSize;
}

std::size_t wire_size_partial(ByteSpan prefix) {
    if (prefix.size() < 8) return 0;
    if (std::memcmp(prefix.data(), kMagic, 4) != 0 ||  // lint: public-data (manifest magic)
        load_le16(prefix.subspan(4, 2)) != kFormatVersion ||
        (load_le16(prefix.subspan(6, 2)) & kFlagChunked) == 0) {
        return kManifestSize;
    }
    if (prefix.size() < kManifestSize + 4) return 0;
    const std::size_t count = load_le32(prefix.subspan(kManifestSize, 4));
    // An impossible count frames at the count field itself: the receiver
    // stops there and the full parse rejects the manifest.
    if (count > kMaxChunkEntries) return kManifestSize + 4;
    return kManifestSize + 4 + kChunkEntrySize * count;
}

crypto::Sha256Digest server_signed_digest(ByteSpan wire) {
    crypto::Sha256 hasher;
    hasher.update(wire.first(kServerSignatureOffset));
    hasher.update(wire.subspan(kManifestSize));
    return hasher.finalize();
}

Bytes serialize(const Manifest& m) {
    Bytes out;
    out.reserve(kManifestSize);
    append_core(out, m);
    append(out, ByteSpan(m.server_signature.data(), m.server_signature.size()));
    if (m.chunked) append_chunk_table(out, m);
    return out;
}

Expected<Manifest> parse_manifest(ByteSpan data) {
    if (data.size() < kManifestSize) return Status::kBadManifest;
    if (std::memcmp(data.data(), kMagic, 4) != 0) return Status::kBadManifest;  // lint: public-data (manifest magic)
    if (load_le16(data.subspan(4, 2)) != kFormatVersion) return Status::kBadManifest;
    const std::uint16_t flags = load_le16(data.subspan(6, 2));
    if ((flags & ~(kFlagDifferential | kFlagEncrypted | kFlagChunked)) != 0)
        return Status::kBadManifest;
    if (load_le32(data.subspan(68, 4)) != 0) return Status::kBadManifest;  // reserved

    Manifest m;
    m.differential = (flags & kFlagDifferential) != 0;
    m.encrypted = (flags & kFlagEncrypted) != 0;
    m.chunked = (flags & kFlagChunked) != 0;
    m.device_id = load_le32(data.subspan(kDeviceIdOffset, 4));
    m.nonce = load_le32(data.subspan(kNonceOffset, 4));
    m.old_version = load_le16(data.subspan(16, 2));
    m.version = load_le16(data.subspan(18, 2));
    m.firmware_size = load_le32(data.subspan(20, 4));
    std::memcpy(m.digest.data(), data.data() + 24, m.digest.size());
    m.link_offset = load_le32(data.subspan(56, 4));
    m.app_id = load_le32(data.subspan(60, 4));
    m.payload_size = load_le32(data.subspan(64, 4));
    std::memcpy(m.vendor_signature.data(), data.data() + 72, m.vendor_signature.size());
    std::memcpy(m.server_signature.data(), data.data() + kServerSignatureOffset,
                m.server_signature.size());
    if (m.chunked) {
        if (data.size() < kManifestSize + 4) return Status::kBadManifest;
        const std::size_t count = load_le32(data.subspan(kManifestSize, 4));
        if (count > kMaxChunkEntries) return Status::kBadManifest;
        if (data.size() < kManifestSize + 4 + kChunkEntrySize * count)
            return Status::kBadManifest;
        m.chunk_table.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t base = kManifestSize + 4 + kChunkEntrySize * i;
            ChunkRef ref;
            ref.offset = load_le32(data.subspan(base, 4));
            ref.length = load_le32(data.subspan(base + 4, 4));
            std::memcpy(ref.digest.data(), data.data() + base + 8, ref.digest.size());
            m.chunk_table.push_back(ref);
        }
    }
    return m;
}

Status validate_chunk_table(const Manifest& m) {
    if (!m.chunked) return m.chunk_table.empty() ? Status::kOk : Status::kBadManifest;
    std::uint64_t next = 0;
    for (const ChunkRef& ref : m.chunk_table) {
        if (ref.length == 0) return Status::kBadManifest;
        if (ref.offset != next) return Status::kBadManifest;
        next += ref.length;
    }
    if (next != m.firmware_size) return Status::kBadManifest;
    return Status::kOk;
}

Bytes Manifest::vendor_signed_bytes() const {
    // Only fields the vendor controls; token and transport fields are added
    // later by the update server and covered by its signature instead.
    Bytes out;
    out.reserve(2 + 2 + 4 + digest.size() + 4 + 4);
    put_le16(out, kFormatVersion);
    put_le16(out, version);
    put_le32(out, firmware_size);
    append(out, ByteSpan(digest.data(), digest.size()));
    put_le32(out, link_offset);
    put_le32(out, app_id);
    return out;
}

Bytes Manifest::server_signed_bytes() const {
    // Everything before the server signature field, plus the chunk table
    // after it when present — the only wire bytes excluded are the server
    // signature itself.
    Bytes out;
    out.reserve(kServerSignatureOffset);
    append_core(out, *this);
    if (chunked) append_chunk_table(out, *this);
    return out;
}

}  // namespace upkit::manifest
