// CBOR codec tests (RFC 8949 appendix-A vectors + structural properties)
// and SUIT envelope tests (roundtrip, signature coverage, tamper sweeps).
// Envelope signatures are checked through verify::Verifier, the one
// signature path the agent and the bootloader share for both encodings.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/backend.hpp"
#include "suit/cbor.hpp"
#include "suit/suit.hpp"
#include "verify/verifier.hpp"

namespace upkit::suit {
namespace {

Bytes hexb(std::string_view hex) {
    auto out = hex_decode(hex);
    EXPECT_TRUE(out.has_value());
    return out.has_value() ? *out : Bytes{};
}

// ---------------------------------------------------------------- CBOR

TEST(CborEncodeTest, Rfc8949IntegerVectors) {
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{0})), hexb("00"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{1})), hexb("01"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{10})), hexb("0a"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{23})), hexb("17"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{24})), hexb("1818"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{25})), hexb("1819"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{100})), hexb("1864"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{1000})), hexb("1903e8"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{1000000})), hexb("1a000f4240"));
    EXPECT_EQ(cbor_encode(CborValue(std::uint64_t{1000000000000ULL})),
              hexb("1b000000e8d4a51000"));
    EXPECT_EQ(cbor_encode(CborValue(std::int64_t{-1})), hexb("20"));
    EXPECT_EQ(cbor_encode(CborValue(std::int64_t{-10})), hexb("29"));
    EXPECT_EQ(cbor_encode(CborValue(std::int64_t{-100})), hexb("3863"));
    EXPECT_EQ(cbor_encode(CborValue(std::int64_t{-1000})), hexb("3903e7"));
}

TEST(CborEncodeTest, Rfc8949SimpleAndStringVectors) {
    EXPECT_EQ(cbor_encode(CborValue(false)), hexb("f4"));
    EXPECT_EQ(cbor_encode(CborValue(true)), hexb("f5"));
    EXPECT_EQ(cbor_encode(CborValue()), hexb("f6"));
    EXPECT_EQ(cbor_encode(CborValue(Bytes{})), hexb("40"));
    EXPECT_EQ(cbor_encode(CborValue(Bytes{0x01, 0x02, 0x03, 0x04})), hexb("4401020304"));
    EXPECT_EQ(cbor_encode(CborValue(std::string(""))), hexb("60"));
    EXPECT_EQ(cbor_encode(CborValue(std::string("IETF"))), hexb("6449455446"));
}

TEST(CborEncodeTest, Rfc8949CompositeVectors) {
    // [] and [1, 2, 3]
    EXPECT_EQ(cbor_encode(CborValue(CborArray{})), hexb("80"));
    EXPECT_EQ(cbor_encode(CborValue(CborArray{CborValue(std::uint64_t{1}),
                                              CborValue(std::uint64_t{2}),
                                              CborValue(std::uint64_t{3})})),
              hexb("83010203"));
    // {1: 2, 3: 4}
    CborMap map;
    map.emplace(1, std::uint64_t{2});
    map.emplace(3, std::uint64_t{4});
    EXPECT_EQ(cbor_encode(CborValue(std::move(map))), hexb("a201020304"));
    // Tagged: 32("...") style — use tag 1 with integer content: 1(1363896240)
    EXPECT_EQ(cbor_encode(CborValue::tagged(1, CborValue(std::uint64_t{1363896240}))),
              hexb("c11a514b67b0"));
}

TEST(CborDecodeTest, RoundTripsStructuredValues) {
    CborMap inner;
    inner.emplace(1, Bytes{0xAA, 0xBB});
    inner.emplace(-2, std::string("text"));
    CborMap outer;
    outer.emplace(0, CborValue(std::move(inner)));
    outer.emplace(7, CborArray{CborValue(true), CborValue(), CborValue(std::int64_t{-42})});
    const CborValue original(std::move(outer));

    auto decoded = cbor_decode(cbor_encode(original));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(*decoded == original);
}

TEST(CborDecodeTest, RejectsMalformedInput) {
    EXPECT_FALSE(cbor_decode({}).has_value());
    EXPECT_FALSE(cbor_decode(hexb("18")).has_value());        // truncated argument
    EXPECT_FALSE(cbor_decode(hexb("44010203")).has_value());  // truncated bytes
    EXPECT_FALSE(cbor_decode(hexb("8301")).has_value());      // truncated array
    EXPECT_FALSE(cbor_decode(hexb("0001")).has_value());      // trailing garbage
    EXPECT_FALSE(cbor_decode(hexb("a20102")).has_value());    // map missing value
    EXPECT_FALSE(cbor_decode(hexb("a30102010301")).has_value());  // duplicate key
    EXPECT_FALSE(cbor_decode(hexb("5f")).has_value());        // indefinite length
    EXPECT_FALSE(cbor_decode(hexb("f7")).has_value());        // undefined simple
}

TEST(CborDecodeTest, NestingBombGuard) {
    // 40 nested single-element arrays exceed the depth limit.
    Bytes bomb(40, 0x81);
    bomb.push_back(0x00);
    EXPECT_FALSE(cbor_decode(bomb).has_value());
}

TEST(CborDecodeTest, PrefixDecodingAdvances) {
    Bytes two_items = hexb("0102");
    ByteSpan view = two_items;
    auto first = cbor_decode_prefix(view);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->as_unsigned(), 1u);
    auto second = cbor_decode_prefix(view);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->as_unsigned(), 2u);
    EXPECT_TRUE(view.empty());
}

TEST(CborValueTest, MapFind) {
    CborMap map;
    map.emplace(5, std::string("five"));
    const CborValue value(std::move(map));
    ASSERT_NE(value.find(5), nullptr);
    EXPECT_EQ(value.find(5)->as_text(), "five");
    EXPECT_EQ(value.find(6), nullptr);
    EXPECT_EQ(CborValue(std::uint64_t{1}).find(5), nullptr);  // not a map
}

// ---------------------------------------------------------------- SUIT

manifest::Manifest sample_manifest() {
    manifest::Manifest m;
    m.device_id = 0xD00D;
    m.nonce = 0x4242;
    m.old_version = 0;
    m.version = 7;
    m.firmware_size = 65536;
    for (std::size_t i = 0; i < m.digest.size(); ++i) m.digest[i] = static_cast<std::uint8_t>(i * 3);
    m.link_offset = 0x8000;
    m.app_id = 0xA55;
    m.payload_size = 65536;
    m.differential = false;
    m.encrypted = false;
    return m;
}

struct SuitKeys {
    crypto::PrivateKey vendor = crypto::PrivateKey::generate(to_bytes("suit-vendor"));
    crypto::PrivateKey server = crypto::PrivateKey::generate(to_bytes("suit-server"));
};

/// Both signatures of `envelope` under the given trust anchors.
Status check_signatures(const Envelope& envelope, const crypto::PublicKey& vendor_key,
                        const crypto::PublicKey& server_key) {
    const auto backend = crypto::make_tinycrypt_backend();
    const verify::Verifier verifier(*backend, crypto::PreparedPublicKey(vendor_key),
                                    crypto::PreparedPublicKey(server_key));
    const auto header = verify::ImageHeader::from_envelope(envelope);
    if (!header) return header.status();
    return verifier.verify_signatures(*header);
}

TEST(SuitTest, EnvelopeRoundTrip) {
    SuitKeys keys;
    const manifest::Manifest m = sample_manifest();
    const Envelope envelope = from_manifest(m, keys.vendor, keys.server);
    const Bytes wire = envelope.encode();

    auto parsed = parse_envelope(wire);
    ASSERT_TRUE(parsed.has_value());
    auto restored = to_manifest(*parsed);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->device_id, m.device_id);
    EXPECT_EQ(restored->nonce, m.nonce);
    EXPECT_EQ(restored->version, m.version);
    EXPECT_EQ(restored->firmware_size, m.firmware_size);
    EXPECT_EQ(restored->digest, m.digest);
    EXPECT_EQ(restored->link_offset, m.link_offset);
    EXPECT_EQ(restored->app_id, m.app_id);
    EXPECT_EQ(restored->payload_size, m.payload_size);
    EXPECT_EQ(restored->differential, m.differential);
    EXPECT_EQ(restored->encrypted, m.encrypted);
}

TEST(SuitTest, EnvelopeVerifies) {
    SuitKeys keys;
    const Envelope envelope = from_manifest(sample_manifest(), keys.vendor, keys.server);
    EXPECT_EQ(check_signatures(envelope, keys.vendor.public_key(), keys.server.public_key()),
              Status::kOk);
}

TEST(SuitTest, VendorSignatureCoversVendorFieldsOnly) {
    const manifest::Manifest a = sample_manifest();
    manifest::Manifest b = a;
    b.device_id ^= 1;
    b.nonce ^= 1;
    b.payload_size ^= 1;
    EXPECT_EQ(vendor_tbs(a), vendor_tbs(b));  // token/transport fields excluded
    manifest::Manifest c = a;
    c.digest[0] ^= 1;
    EXPECT_NE(vendor_tbs(a), vendor_tbs(c));
    manifest::Manifest d = a;
    d.version ^= 1;
    EXPECT_NE(vendor_tbs(a), vendor_tbs(d));
}

TEST(SuitTest, TamperedManifestBytesBreakServerSignature) {
    SuitKeys keys;
    Envelope envelope = from_manifest(sample_manifest(), keys.vendor, keys.server);
    // Flip the nonce inside the CBOR manifest (a freshness attack).
    auto decoded = cbor_decode(envelope.manifest_bstr);
    ASSERT_TRUE(decoded.has_value());
    CborMap map = decoded->as_map();
    CborMap params = map.at(kKeyUpkitParams).as_map();
    params.insert_or_assign(kParamNonce, CborValue(std::uint64_t{0xBEEF}));
    map.insert_or_assign(kKeyUpkitParams, CborValue(std::move(params)));
    envelope.manifest_bstr = cbor_encode(CborValue(std::move(map)));

    EXPECT_EQ(check_signatures(envelope, keys.vendor.public_key(), keys.server.public_key()),
              Status::kBadServerSignature);
}

TEST(SuitTest, TamperedVendorFieldBreaksVendorSignature) {
    SuitKeys keys;
    Envelope envelope = from_manifest(sample_manifest(), keys.vendor, keys.server);
    auto decoded = cbor_decode(envelope.manifest_bstr);
    ASSERT_TRUE(decoded.has_value());
    CborMap map = decoded->as_map();
    CborMap common = map.at(kKeyCommon).as_map();
    Bytes digest = common.at(kCommonDigest).as_bytes();
    digest[0] ^= 0xFF;
    common.insert_or_assign(kCommonDigest, CborValue(std::move(digest)));
    map.insert_or_assign(kKeyCommon, CborValue(std::move(common)));
    envelope.manifest_bstr = cbor_encode(CborValue(std::move(map)));
    // Re-sign with the *server* key (an attacker controlling the transport
    // cannot do even this; we grant it to isolate the vendor signature).
    envelope.server_signature = crypto::ecdsa_sign(
        keys.server, crypto::Sha256::digest(
                         server_tbs(envelope.manifest_bstr, envelope.vendor_signature)));

    EXPECT_EQ(check_signatures(envelope, keys.vendor.public_key(), keys.server.public_key()),
              Status::kBadVendorSignature);
}

/// r = x(k*G) mod n, s = z/k: a signature over `digest` that a degenerate
/// table for the unset key (0, 0) could accept, with no private key at all.
crypto::Signature forge_for_unset_key(const crypto::Sha256Digest& digest, std::uint64_t k) {
    const crypto::P256& curve = crypto::P256::instance();
    const crypto::Montgomery& fn = curve.order();
    const crypto::U256 kk = crypto::U256::from_u64(k);
    const crypto::U256 z = fn.reduce(crypto::U256::from_be_bytes(digest));
    const crypto::U256 r = fn.reduce(curve.mul_base(kk)->x);
    const crypto::U256 s = fn.from_mont(fn.mul(fn.to_mont(z), fn.inv(fn.to_mont(kk))));
    crypto::Signature sig{};
    r.to_be_bytes(MutByteSpan(sig.data(), 32));
    s.to_be_bytes(MutByteSpan(sig.data() + 32, 32));
    return sig;
}

TEST(SuitTest, UnsetKeysRejectForgedEnvelope) {
    // A verifier whose trust anchors were never provisioned holds
    // PublicKey{} for both. Forged signatures must not verify under it:
    // the unset key has no table, so every check fails closed.
    SuitKeys keys;
    const crypto::PublicKey unset{};
    Envelope envelope = from_manifest(sample_manifest(), keys.vendor, keys.server);
    const auto m = to_manifest(envelope);
    ASSERT_TRUE(m.has_value());
    for (std::uint64_t k = 2; k < 34; ++k) {
        envelope.vendor_signature =
            forge_for_unset_key(crypto::Sha256::digest(vendor_tbs(*m)), k);
        envelope.server_signature = forge_for_unset_key(
            crypto::Sha256::digest(server_tbs(envelope.manifest_bstr, envelope.vendor_signature)),
            k + 100);
        EXPECT_NE(check_signatures(envelope, unset, unset), Status::kOk) << "k = " << k;
    }
}

TEST(SuitTest, GarbageEnvelopesRejected) {
    EXPECT_FALSE(parse_envelope(to_bytes("not cbor at all")).has_value());
    EXPECT_FALSE(parse_envelope(cbor_encode(CborValue(std::uint64_t{5}))).has_value());
    // Envelope with a wrong-size signature.
    CborMap envelope;
    envelope.emplace(kKeyAuthWrapper,
                     CborArray{CborValue(Bytes(10, 0)), CborValue(Bytes(64, 0))});
    envelope.emplace(kKeyManifest, Bytes{0x01});
    EXPECT_FALSE(parse_envelope(cbor_encode(CborValue(std::move(envelope)))).has_value());
}

TEST(SuitTest, ManifestMissingFieldsRejected) {
    SuitKeys keys;
    Envelope envelope = from_manifest(sample_manifest(), keys.vendor, keys.server);
    auto decoded = cbor_decode(envelope.manifest_bstr);
    CborMap map = decoded->as_map();
    map.erase(kKeyCommon);
    envelope.manifest_bstr = cbor_encode(CborValue(std::move(map)));
    EXPECT_EQ(to_manifest(envelope).status(), Status::kBadManifest);
}

TEST(SuitTest, FuzzDecoderNeverCrashes) {
    // Random bytes and mutated valid envelopes must fail cleanly.
    SuitKeys keys;
    const Bytes wire = from_manifest(sample_manifest(), keys.vendor, keys.server).encode();
    Rng rng(99);
    for (int round = 0; round < 200; ++round) {
        Bytes mutated = wire;
        const std::size_t flips = 1 + rng.below(8);
        for (std::size_t f = 0; f < flips; ++f) {
            mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        }
        auto parsed = parse_envelope(mutated);
        if (parsed) {
            (void)to_manifest(*parsed);  // either is fine; must not crash
        }
    }
    for (int round = 0; round < 200; ++round) {
        (void)parse_envelope(rng.bytes(rng.below(300)));
    }
    SUCCEED();
}

}  // namespace
}  // namespace upkit::suit
