// Manifest / device-token wire-format tests: roundtrips, structural
// validation, signature-coverage boundaries.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/endian.hpp"
#include "common/rng.hpp"
#include "manifest/manifest.hpp"

namespace upkit::manifest {
namespace {

Manifest sample_manifest() {
    Manifest m;
    m.device_id = 0xDEADBEEF;
    m.nonce = 0x12345678;
    m.old_version = 3;
    m.version = 4;
    m.firmware_size = 100 * 1024;
    for (std::size_t i = 0; i < m.digest.size(); ++i) m.digest[i] = static_cast<std::uint8_t>(i);
    m.link_offset = 0x8000;
    m.app_id = 0xA11CE;
    m.differential = true;
    m.payload_size = 31337;
    for (std::size_t i = 0; i < m.vendor_signature.size(); ++i) {
        m.vendor_signature[i] = static_cast<std::uint8_t>(0x40 + i);
        m.server_signature[i] = static_cast<std::uint8_t>(0x80 + i);
    }
    return m;
}

TEST(DeviceTokenTest, RoundTrip) {
    const DeviceToken token{.device_id = 0xCAFEBABE, .nonce = 7, .current_version = 12};
    const Bytes wire = serialize(token);
    EXPECT_EQ(wire.size(), kDeviceTokenSize);
    auto parsed = parse_device_token(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->device_id, token.device_id);
    EXPECT_EQ(parsed->nonce, token.nonce);
    EXPECT_EQ(parsed->current_version, token.current_version);
}

TEST(DeviceTokenTest, WrongSizeRejected) {
    EXPECT_FALSE(parse_device_token(Bytes(9, 0)).has_value());
    EXPECT_FALSE(parse_device_token(Bytes(11, 0)).has_value());
}

TEST(DeviceTokenTest, DifferentialCapabilitySignal) {
    EXPECT_FALSE((DeviceToken{.device_id = 1, .nonce = 2, .current_version = 0})
                     .supports_differential());
    EXPECT_TRUE((DeviceToken{.device_id = 1, .nonce = 2, .current_version = 5})
                    .supports_differential());
}

TEST(ManifestTest, SerializeIsFixedSize) {
    EXPECT_EQ(serialize(sample_manifest()).size(), kManifestSize);
    EXPECT_EQ(serialize(Manifest{}).size(), kManifestSize);
}

TEST(ManifestTest, RoundTripPreservesAllFields) {
    const Manifest m = sample_manifest();
    auto parsed = parse_manifest(serialize(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->device_id, m.device_id);
    EXPECT_EQ(parsed->nonce, m.nonce);
    EXPECT_EQ(parsed->old_version, m.old_version);
    EXPECT_EQ(parsed->version, m.version);
    EXPECT_EQ(parsed->firmware_size, m.firmware_size);
    EXPECT_EQ(parsed->digest, m.digest);
    EXPECT_EQ(parsed->link_offset, m.link_offset);
    EXPECT_EQ(parsed->app_id, m.app_id);
    EXPECT_EQ(parsed->differential, m.differential);
    EXPECT_EQ(parsed->payload_size, m.payload_size);
    EXPECT_EQ(parsed->vendor_signature, m.vendor_signature);
    EXPECT_EQ(parsed->server_signature, m.server_signature);
}

TEST(ManifestTest, RejectsBadMagic) {
    Bytes wire = serialize(sample_manifest());
    wire[0] = 'X';
    EXPECT_EQ(parse_manifest(wire).status(), Status::kBadManifest);
}

TEST(ManifestTest, RejectsUnknownFormatVersion) {
    Bytes wire = serialize(sample_manifest());
    wire[4] = 99;
    EXPECT_EQ(parse_manifest(wire).status(), Status::kBadManifest);
}

TEST(ManifestTest, RejectsUnknownFlags) {
    Bytes wire = serialize(sample_manifest());
    wire[7] = 0x80;  // undefined high flag bit
    EXPECT_EQ(parse_manifest(wire).status(), Status::kBadManifest);
}

TEST(ManifestTest, RejectsNonZeroReserved) {
    Bytes wire = serialize(sample_manifest());
    wire[70] = 1;
    EXPECT_EQ(parse_manifest(wire).status(), Status::kBadManifest);
}

TEST(ManifestTest, RejectsShortInput) {
    const Bytes wire = serialize(sample_manifest());
    EXPECT_EQ(parse_manifest(ByteSpan(wire).subspan(0, kManifestSize - 1)).status(),
              Status::kBadManifest);
    EXPECT_EQ(parse_manifest({}).status(), Status::kBadManifest);
}

TEST(ManifestTest, VendorBytesExcludeTokenAndTransportFields) {
    Manifest a = sample_manifest();
    Manifest b = a;
    // Fields the update server sets per request must NOT affect the vendor
    // signature's coverage...
    b.device_id ^= 1;
    b.nonce ^= 1;
    b.old_version ^= 1;
    b.payload_size ^= 1;
    b.differential = !b.differential;
    b.server_signature[0] ^= 1;
    EXPECT_EQ(a.vendor_signed_bytes(), b.vendor_signed_bytes());

    // ...while every vendor-controlled field must.
    for (int field = 0; field < 5; ++field) {
        Manifest c = a;
        switch (field) {
            case 0: c.version ^= 1; break;
            case 1: c.firmware_size ^= 1; break;
            case 2: c.digest[0] ^= 1; break;
            case 3: c.link_offset ^= 1; break;
            case 4: c.app_id ^= 1; break;
        }
        EXPECT_NE(a.vendor_signed_bytes(), c.vendor_signed_bytes()) << "field " << field;
    }
}

TEST(ManifestTest, ServerBytesCoverEverythingButServerSignature) {
    Manifest a = sample_manifest();

    {
        // The server signature itself is excluded (it cannot sign itself).
        Manifest b = a;
        b.server_signature[5] ^= 0xFF;
        EXPECT_EQ(a.server_signed_bytes(), b.server_signed_bytes());
    }

    // Token fields, transport fields, and the vendor signature are covered.
    for (int field = 0; field < 6; ++field) {
        Manifest c = a;
        switch (field) {
            case 0: c.device_id ^= 1; break;
            case 1: c.nonce ^= 1; break;
            case 2: c.old_version ^= 1; break;
            case 3: c.payload_size ^= 1; break;
            case 4: c.differential = !c.differential; break;
            case 5: c.vendor_signature[0] ^= 1; break;
        }
        EXPECT_NE(a.server_signed_bytes(), c.server_signed_bytes()) << "field " << field;
    }
}

TEST(ManifestTest, ServerBytesAreWirePrefix) {
    const Manifest m = sample_manifest();
    const Bytes wire = serialize(m);
    const Bytes tbs = m.server_signed_bytes();
    ASSERT_EQ(tbs.size(), 136u);
    EXPECT_TRUE(std::equal(tbs.begin(), tbs.end(), wire.begin()));
}

// ------------------------------------------------------------ chunk table

/// A chunked manifest whose table tiles firmware_size in `chunks` pieces.
Manifest chunked_manifest(std::uint32_t chunks, std::uint32_t chunk_len = 2048) {
    Manifest m = sample_manifest();
    m.differential = false;
    m.chunked = true;
    m.firmware_size = chunks * chunk_len;
    std::uint32_t offset = 0;
    for (std::uint32_t i = 0; i < chunks; ++i) {
        ChunkRef ref;
        ref.offset = offset;
        ref.length = chunk_len;
        for (std::size_t j = 0; j < ref.digest.size(); ++j) {
            ref.digest[j] = static_cast<std::uint8_t>(i * 31 + j);
        }
        m.chunk_table.push_back(ref);
        offset += chunk_len;
    }
    return m;
}

TEST(ManifestTest, LegacyWireIsByteIdenticalWithChunkingCompiledIn) {
    // The compatibility contract: a manifest without the chunked flag
    // serializes to exactly the historical 200 bytes — deployed parsers
    // never see a new field. (The full-campaign fingerprint check lives in
    // bench/chunk_dedup.cpp; this is the wire-level pin.)
    const Bytes wire = serialize(sample_manifest());
    EXPECT_EQ(wire.size(), kManifestSize);
    EXPECT_EQ(load_le16(ByteSpan(wire).subspan(6, 2)) & kFlagChunked, 0);
}

TEST(ManifestTest, ChunkedManifestRoundTripsWithTable) {
    const Manifest m = chunked_manifest(3);
    const Bytes wire = serialize(m);
    EXPECT_EQ(wire.size(), kManifestSize + 4 + 3 * kChunkEntrySize);
    EXPECT_EQ(wire_size(m), wire.size());

    auto parsed = parse_manifest(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->chunked);
    ASSERT_EQ(parsed->chunk_table.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(parsed->chunk_table[i], m.chunk_table[i]);
    }
    EXPECT_EQ(validate_chunk_table(*parsed), Status::kOk);
    EXPECT_EQ(serialize(*parsed), wire);  // stable re-encoding
}

TEST(ManifestTest, WireOffsetsAndSignedDigestMatchTheSerializer) {
    // The update server patches token fields and the server signature into
    // cached wire bytes and signs server_signed_digest(wire) without
    // re-serializing: both must agree with serialize() and
    // server_signed_bytes(), with and without a chunk table.
    for (const Manifest& m : {sample_manifest(), chunked_manifest(3)}) {
        SCOPED_TRACE(m.chunked ? "chunked" : "native");
        const Bytes wire = serialize(m);
        const ByteSpan view(wire);
        EXPECT_EQ(load_le32(view.subspan(kDeviceIdOffset, 4)), m.device_id);
        EXPECT_EQ(load_le32(view.subspan(kNonceOffset, 4)), m.nonce);
        EXPECT_TRUE(std::equal(m.server_signature.begin(), m.server_signature.end(),
                               wire.begin() + kServerSignatureOffset));
        EXPECT_EQ(server_signed_digest(wire),
                  crypto::Sha256::digest(m.server_signed_bytes()));
    }
}

TEST(ManifestTest, SingleAndEmptyChunkTablesRoundTrip) {
    const Manifest single = chunked_manifest(1);
    auto parsed = parse_manifest(serialize(single));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->chunk_table.size(), 1u);
    EXPECT_EQ(validate_chunk_table(*parsed), Status::kOk);

    // Empty image: chunked flag with zero entries is valid iff
    // firmware_size is zero (the table must tile the whole image).
    Manifest empty = chunked_manifest(0);
    EXPECT_EQ(empty.firmware_size, 0u);
    const Bytes wire = serialize(empty);
    EXPECT_EQ(wire.size(), kManifestSize + 4);
    auto reparsed = parse_manifest(wire);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_TRUE(reparsed->chunk_table.empty());
    EXPECT_EQ(validate_chunk_table(*reparsed), Status::kOk);
}

TEST(ManifestTest, RejectsStructurallyBadChunkTables) {
    {
        Manifest gap = chunked_manifest(3);
        gap.chunk_table[1].offset += 4;  // hole between chunks 0 and 1
        EXPECT_EQ(validate_chunk_table(gap), Status::kBadManifest);
    }
    {
        Manifest zero = chunked_manifest(3);
        zero.chunk_table[1].length = 0;
        EXPECT_EQ(validate_chunk_table(zero), Status::kBadManifest);
    }
    {
        Manifest short_table = chunked_manifest(3);
        short_table.firmware_size += 1;  // table no longer covers the image
        EXPECT_EQ(validate_chunk_table(short_table), Status::kBadManifest);
    }
    {
        // A legacy manifest must not smuggle a table.
        Manifest legacy = chunked_manifest(2);
        legacy.chunked = false;
        EXPECT_EQ(validate_chunk_table(legacy), Status::kBadManifest);
    }
    {
        // Truncated wire: count promises more entries than bytes present.
        Bytes wire = serialize(chunked_manifest(3));
        wire.resize(wire.size() - 1);
        EXPECT_EQ(parse_manifest(wire).status(), Status::kBadManifest);
    }
}

TEST(ManifestTest, ChunkTableIsServerSignedNotVendorSigned) {
    // The design that lets the server strip the table for legacy devices
    // without invalidating the vendor's signature: the table (and the
    // chunked flag) are transport metadata under the SERVER signature only;
    // end-to-end authenticity rides on the vendor-signed image digest.
    const Manifest with_table = chunked_manifest(2);
    Manifest stripped = with_table;
    stripped.chunked = false;
    stripped.chunk_table.clear();
    EXPECT_EQ(with_table.vendor_signed_bytes(), stripped.vendor_signed_bytes());
    EXPECT_NE(with_table.server_signed_bytes(), stripped.server_signed_bytes());

    Manifest tampered = with_table;
    tampered.chunk_table[1].digest[0] ^= 1;
    EXPECT_EQ(with_table.vendor_signed_bytes(), tampered.vendor_signed_bytes());
    EXPECT_NE(with_table.server_signed_bytes(), tampered.server_signed_bytes());
}

TEST(ManifestTest, WireSizeHelpersFrameChunkedHeaders) {
    const Bytes legacy = serialize(sample_manifest());
    const Bytes chunked = serialize(chunked_manifest(5));

    // wire_size_partial frames incremental receivers and slot readers.
    // 0 = keep reading; garbage frames at the legacy size so the full
    // parse rejects it at 200 bytes.
    EXPECT_EQ(wire_size_partial(ByteSpan(chunked).subspan(0, 7)), 0u);
    EXPECT_EQ(wire_size_partial(ByteSpan(chunked).subspan(0, 100)), 0u);
    EXPECT_EQ(wire_size_partial(ByteSpan(chunked).subspan(0, kManifestSize + 4)),
              chunked.size());
    EXPECT_EQ(wire_size_partial(chunked), chunked.size());
    EXPECT_EQ(wire_size_partial(legacy), kManifestSize);
    Bytes garbage(64, 0xAB);
    EXPECT_EQ(wire_size_partial(garbage), kManifestSize);

    // An impossible chunk count frames at the count field: the receiver
    // stops accumulating there and the parse rejects.
    Bytes bogus = chunked;
    store_le32(MutByteSpan(bogus.data() + kManifestSize, 4),
               static_cast<std::uint32_t>(kMaxChunkEntries + 1));
    EXPECT_EQ(wire_size_partial(bogus), kManifestSize + 4);
    EXPECT_FALSE(parse_manifest(ByteSpan(bogus).subspan(0, kManifestSize + 4)).has_value());
}

// -------------------------------------------------------- have-list token

TEST(DeviceTokenTest, HaveListRoundTripAndLegacyWire) {
    // Legacy token: have empty, exactly the historical 10 bytes.
    const DeviceToken legacy{.device_id = 1, .nonce = 2, .current_version = 3};
    EXPECT_EQ(serialize(legacy).size(), kDeviceTokenSize);
    EXPECT_FALSE(legacy.supports_chunked());

    DeviceToken token{.device_id = 0xCAFE, .nonce = 9, .current_version = 4};
    token.have = {5, 100, 0xFFFFFFFFFFFFFFFEull};
    const Bytes wire = serialize(token);
    EXPECT_EQ(wire.size(), kDeviceTokenSize + 2 + 8 * token.have.size());
    auto parsed = parse_device_token(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->have, token.have);
    EXPECT_TRUE(parsed->supports_chunked());
}

TEST(DeviceTokenTest, RejectsNonCanonicalHaveLists) {
    DeviceToken token{.device_id = 1, .nonce = 2, .current_version = 3};
    token.have = {10, 20, 30};
    Bytes wire = serialize(token);

    {
        // Out of order: exactly one wire encoding per have-set, or the
        // server's have-list response-cache hash would split identical sets.
        Bytes bad = wire;
        std::swap_ranges(bad.begin() + 12, bad.begin() + 20, bad.begin() + 20);
        EXPECT_FALSE(parse_device_token(bad).has_value());
    }
    {
        Bytes dup = wire;
        std::copy(dup.begin() + 12, dup.begin() + 20, dup.begin() + 20);
        EXPECT_FALSE(parse_device_token(dup).has_value());
    }
    {
        Bytes truncated = wire;
        truncated.resize(truncated.size() - 8);  // count says 3, wire holds 2
        EXPECT_FALSE(parse_device_token(truncated).has_value());
    }
    {
        Bytes zero_count = wire;
        store_le16(MutByteSpan(zero_count.data() + kDeviceTokenSize, 2), 0);
        zero_count.resize(kDeviceTokenSize + 2);
        EXPECT_FALSE(parse_device_token(zero_count).has_value());
    }
}

}  // namespace
}  // namespace upkit::manifest
