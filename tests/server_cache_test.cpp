// Property tests for the update server's hot-path caches, chunk index, and
// key-rotation bookkeeping (src/server/update_server).
//
// The caches are pure accelerations: a response-cache hit must be byte-equal
// to an envelope built from scratch for the same token (RFC 6979 makes
// re-signing reproducible), a chunked response must be exactly the fresh
// slices of the release image its table was checked against at publish, and
// the chunk index must count each distinct chunk once across releases.
// Retiring a release drops every cached envelope. Key rotation is the one
// server mutation that must NOT be transparent: a device still holding the
// pre-rotation key has to fail the AEAD tag on everything sealed after the
// rotation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>

#include "common/endian.hpp"
#include "compress/lzss.hpp"
#include "crypto/content_key.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/poly1305.hpp"
#include "diff/bsdiff.hpp"
#include "diff/cdc.hpp"
#include "suit/suit.hpp"
#include "test_env.hpp"

namespace upkit {
namespace {

using server::ServerStats;
using server::UpdateResponse;
using testenv::kAppId;
using testenv::kDeviceId;
using testenv::TestEnv;

manifest::DeviceToken token_for(std::uint32_t device_id, std::uint32_t nonce,
                                std::uint16_t current_version) {
    return {.device_id = device_id, .nonce = nonce, .current_version = current_version};
}

/// The reference every delta must reproduce: bsdiff + LZSS with the default
/// compression parameters (the server's), no cache involved.
Bytes reference_patch(const Bytes& from, const Bytes& to) {
    auto patch = diff::bsdiff(from, to);
    EXPECT_TRUE(patch.has_value());
    auto compressed = compress::lzss_compress(*patch, compress::LzssParams{});
    EXPECT_TRUE(compressed.has_value());
    return *compressed;
}

// --------------------------------------------------------- delta serving

TEST(ServerCacheTest, DeltaGenerationIsDeterministicAndCounted) {
    // With the per-endpoint-pair patch cache retired, every uncached
    // differential request regenerates — and RFC-determinism makes every
    // regeneration byte-equal to an out-of-band reference patch. Two
    // servers built from the same seeds each answer one cold request.
    TestEnv env, twin;
    const Bytes v2 = env.publish_os_update(2, 91);
    twin.publish_os_update(2, 91);

    const auto first = env.server.prepare_update(kAppId, token_for(0x2001, 7, 1));
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(first->manifest.differential);
    EXPECT_TRUE(first->receipt.delta_attempted);

    const auto second = twin.server.prepare_update(kAppId, token_for(0x2002, 8, 1));
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(second->receipt.delta_attempted);

    const Bytes reference = reference_patch(env.base_firmware, v2);
    EXPECT_EQ(first->payload, reference);
    EXPECT_EQ(second->payload, reference);
    EXPECT_EQ(env.server.stats().delta_generations, 1u);
    EXPECT_EQ(twin.server.stats().delta_generations, 1u);
}

TEST(ServerCacheTest, ResponseCacheAbsorbsRepeatDeltaGeneration) {
    // The response cache is what makes delta serving cheap at fleet scale:
    // the second device on the same (from, to) endpoints costs one
    // signature, not a bsdiff run.
    TestEnv env;
    env.publish_os_update(2, 92);

    const auto first = env.server.prepare_update(kAppId, token_for(0x3001, 1, 1));
    const auto second = env.server.prepare_update(kAppId, token_for(0x3002, 2, 1));
    ASSERT_TRUE(first.has_value() && second.has_value());
    EXPECT_FALSE(first->receipt.response_cache_hit);
    EXPECT_TRUE(second->receipt.response_cache_hit);
    EXPECT_FALSE(second->receipt.delta_attempted);
    EXPECT_EQ(second->payload, first->payload);
    EXPECT_EQ(env.server.stats().delta_generations, 1u);
}

TEST(ServerCacheTest, RetireReleaseInvalidatesCachedEnvelopes) {
    // A different image republished under a retired version must not be
    // answered from an envelope built for the retired one.
    TestEnv env;
    env.publish_os_update(2, 93);
    const auto before = env.server.prepare_update(kAppId, token_for(0x4001, 1, 0));
    ASSERT_TRUE(before.has_value());
    ASSERT_FALSE(before->manifest.differential);

    ASSERT_EQ(env.server.retire_release(kAppId, 2), Status::kOk);
    const Bytes v2 = env.publish_os_update(2, 94);
    ASSERT_NE(v2, before->payload);

    const auto after = env.server.prepare_update(kAppId, token_for(0x4002, 2, 0));
    ASSERT_TRUE(after.has_value());
    EXPECT_FALSE(after->receipt.response_cache_hit);  // the old envelope is gone
    EXPECT_EQ(after->payload, v2);
}

// ------------------------------------------------------------ chunk index

/// Publishes `firmware` as a chunked release (vendor attaches the
/// content-defined chunk table; the server checks it and counts its chunks).
void publish_chunked(TestEnv& env, std::uint16_t version, const Bytes& firmware) {
    ASSERT_EQ(env.server.publish(env.vendor.create_release(
                  firmware, {.version = version, .app_id = kAppId, .chunked = true})),
              Status::kOk);
}

/// Have-list a device running `installed` would advertise: the sorted
/// digest prefixes of its image's content-defined chunks.
std::vector<std::uint64_t> have_list_for(const Bytes& installed) {
    std::vector<std::uint64_t> have;
    for (const auto& ref : diff::chunk_image(installed)) {
        have.push_back(manifest::digest_prefix(ref.digest));
    }
    std::sort(have.begin(), have.end());
    have.erase(std::unique(have.begin(), have.end()), have.end());
    return have;
}

TEST(ServerCacheTest, ChunkStoreDedupsAcrossPublishedVersions) {
    TestEnv env;
    const Bytes v2 = sim::mutate_app_change(env.base_firmware, 81, 600);
    const Bytes v3 = sim::mutate_app_change(env.base_firmware, 82, 600);
    publish_chunked(env, 2, v2);
    publish_chunked(env, 3, v3);

    // Content-defined cut points survive a small localized edit, so most
    // of v3's chunks matched chunks already stored for v2.
    const auto s = env.server.chunk_store_stats();
    EXPECT_EQ(s.logical_bytes, v2.size() + v3.size());
    EXPECT_LT(s.unique_bytes, s.logical_bytes);
    EXPECT_GT(s.deduped, 0u);
    EXPECT_EQ(s.ingested, diff::chunk_image(v2).size() + diff::chunk_image(v3).size());
}

TEST(ServerCacheTest, ChunkedResponseServesOnlyMissingChunks) {
    TestEnv env;
    const Bytes v2 = sim::mutate_app_change(env.base_firmware, 83, 600);
    const Bytes v3 = sim::mutate_app_change(env.base_firmware, 84, 600);
    publish_chunked(env, 2, v2);
    publish_chunked(env, 3, v3);

    manifest::DeviceToken token = token_for(0x6001, 5, 2);
    token.have = have_list_for(v2);
    const auto response = env.server.prepare_update(kAppId, token);
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->manifest.chunked);
    EXPECT_TRUE(response->receipt.chunked);
    EXPECT_GT(response->receipt.chunk_bytes_deduped, 0u);

    // The payload is exactly the concatenation of the chunks the device
    // was missing, in table order — byte-equal to fresh slices of v3.
    Bytes reference;
    std::size_t missing = 0;
    for (const auto& ref : response->manifest.chunk_table) {
        if (std::binary_search(token.have.begin(), token.have.end(),
                               manifest::digest_prefix(ref.digest))) {
            continue;
        }
        append(reference, ByteSpan(v3.data() + ref.offset, ref.length));
        ++missing;
    }
    EXPECT_EQ(response->payload, reference);
    EXPECT_EQ(response->receipt.chunks_sent, missing);
    EXPECT_LT(response->payload.size(), v3.size());  // dedup saved air bytes

    const ServerStats& s = env.server.stats();
    EXPECT_EQ(s.chunked_responses, 1u);
    EXPECT_GT(s.chunk_hits, 0u);
    EXPECT_EQ(s.chunk_hits, s.chunks_served);
    EXPECT_EQ(s.chunk_misses, 0u);  // every chunk was checked at publish
    EXPECT_GT(s.chunk_bytes_deduped, 0u);
}

TEST(ServerCacheTest, ChunkedResponseCacheSharesEnvelopesByHaveList) {
    TestEnv env;
    const Bytes v2 = sim::mutate_app_change(env.base_firmware, 85, 600);
    const Bytes v3 = sim::mutate_app_change(env.base_firmware, 86, 600);
    publish_chunked(env, 2, v2);
    publish_chunked(env, 3, v3);

    manifest::DeviceToken a = token_for(0x7001, 6, 2);
    a.have = have_list_for(v2);
    manifest::DeviceToken b = token_for(0x7002, 7, 2);
    b.have = a.have;
    manifest::DeviceToken fresh = token_for(0x7003, 8, 0);
    fresh.have.push_back(1);  // chunk-capable but holds nothing the server has

    const auto first = env.server.prepare_update(kAppId, a);
    const auto second = env.server.prepare_update(kAppId, b);
    const auto cold = env.server.prepare_update(kAppId, fresh);
    ASSERT_TRUE(first.has_value() && second.has_value() && cold.has_value());
    // Same have-list => one cached envelope; a different have-list must
    // not reuse it (its payload is a different chunk subset).
    EXPECT_FALSE(first->receipt.response_cache_hit);
    EXPECT_TRUE(second->receipt.response_cache_hit);
    EXPECT_EQ(second->payload, first->payload);
    EXPECT_FALSE(cold->receipt.response_cache_hit);
    EXPECT_EQ(cold->payload.size(), v3.size());  // nothing to dedup: full image
}

TEST(ServerCacheTest, RetireReleaseFreesOnlyUnsharedChunks) {
    TestEnv env;
    const Bytes v2 = sim::mutate_app_change(env.base_firmware, 87, 600);
    const Bytes v3 = sim::mutate_app_change(env.base_firmware, 88, 600);
    publish_chunked(env, 2, v2);
    publish_chunked(env, 3, v3);
    const auto both = env.server.chunk_store_stats();

    ASSERT_EQ(env.server.retire_release(kAppId, 3), Status::kOk);
    const auto after = env.server.chunk_store_stats();
    // v3's unshared chunks were freed; everything v2 still references stays.
    EXPECT_GT(after.released, 0u);
    EXPECT_LT(after.unique_bytes, both.unique_bytes);
    EXPECT_GT(after.chunks, 0u);

    // v2 is the latest again and serves intact.
    manifest::DeviceToken token = token_for(0x8001, 9, 0);
    token.have.push_back(1);
    const auto response = env.server.prepare_update(kAppId, token);
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->manifest.chunked);
    EXPECT_EQ(response->manifest.version, 2u);
    EXPECT_EQ(response->payload, v2);

    ASSERT_EQ(env.server.retire_release(kAppId, 2), Status::kOk);
    const auto empty = env.server.chunk_store_stats();
    EXPECT_EQ(empty.chunks, 0u);
    EXPECT_EQ(empty.unique_bytes, 0u);

    EXPECT_EQ(env.server.retire_release(kAppId, 2), Status::kNotFound);
}

// -------------------------------------------------------- response cache

TEST(ServerCacheTest, ResponseCacheHitDiffersOnlyInTokenFieldsAndSignature) {
    TestEnv env;
    env.publish_os_update(2, 96);

    const auto a = env.server.prepare_update(kAppId, token_for(0x5001, 11, 1));
    const auto b = env.server.prepare_update(kAppId, token_for(0x5002, 12, 1));
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_FALSE(a->receipt.response_cache_hit);
    EXPECT_TRUE(b->receipt.response_cache_hit);
    EXPECT_EQ(env.server.stats().response_hits, 1u);

    // Identical payload object; envelopes agree everywhere except the
    // token-bound fields (device ID + nonce, wire offsets 8..16) and the
    // per-request server signature (136..200).
    EXPECT_EQ(a->payload, b->payload);
    ASSERT_EQ(a->manifest_bytes.size(), manifest::kManifestSize);
    ASSERT_EQ(b->manifest_bytes.size(), manifest::kManifestSize);
    for (std::size_t i = 0; i < manifest::kManifestSize; ++i) {
        const bool token_field = (i >= 8 && i < 16) || i >= 136;
        if (!token_field) {
            EXPECT_EQ(a->manifest_bytes[i], b->manifest_bytes[i]) << "offset " << i;
        }
    }
    EXPECT_EQ(b->manifest.device_id, 0x5002u);
    EXPECT_EQ(b->manifest.nonce, 12u);

    // Both signatures are genuine: each verifies over its own envelope.
    for (const auto& r : {*a, *b}) {
        const auto digest = crypto::Sha256::digest(r.manifest.server_signed_bytes());
        EXPECT_TRUE(crypto::ecdsa_verify(
            env.server.public_key(), digest,
            ByteSpan(r.manifest.server_signature.data(), crypto::kSignatureSize)));
    }
}

TEST(ServerCacheTest, ResponseCacheHitIsByteIdenticalToColdServer) {
    // Two servers built from the same seeds: one answers the token cold,
    // the other from a cache warmed by a different device. RFC 6979
    // deterministic re-signing makes the envelopes byte-identical.
    TestEnv warm, cold;
    warm.publish_os_update(2, 97);
    cold.publish_os_update(2, 97);

    ASSERT_TRUE(warm.server.prepare_update(kAppId, token_for(0x6001, 21, 1)).has_value());
    const auto cached = warm.server.prepare_update(kAppId, token_for(0x6002, 22, 1));
    const auto fresh = cold.server.prepare_update(kAppId, token_for(0x6002, 22, 1));
    ASSERT_TRUE(cached.has_value() && fresh.has_value());
    ASSERT_TRUE(cached->receipt.response_cache_hit);
    ASSERT_FALSE(fresh->receipt.response_cache_hit);

    EXPECT_EQ(cached->manifest_bytes, fresh->manifest_bytes);
    EXPECT_EQ(cached->payload, fresh->payload);
}

TEST(ServerCacheTest, EncryptedResponsesBypassTheResponseCache) {
    // Device-bound ciphertext must never be replayed to another device;
    // the envelope cache steps aside as soon as a response would encrypt.
    TestEnv env;
    env.publish_os_update(2, 98);
    env.server.set_encryption_enabled(true);
    const auto key = crypto::PrivateKey::generate(to_bytes("cache-bypass-key"));
    env.server.register_device_key(0x7001, key.public_key());

    ASSERT_TRUE(env.server.prepare_update(kAppId, token_for(0x7001, 31, 1)).has_value());
    const auto again = env.server.prepare_update(kAppId, token_for(0x7001, 32, 1));
    ASSERT_TRUE(again.has_value());
    EXPECT_FALSE(again->receipt.response_cache_hit);
    EXPECT_EQ(env.server.stats().response_hits, 0u);
}

// --------------------------------------------------------- key rotation

TEST(ServerCacheTest, KeyRotationIsCountedLoggedAndTraced) {
    TestEnv env;
    sim::RingBufferSink ring(64);
    sim::Tracer tracer;
    tracer.add_sink(ring);
    env.server.set_tracer(&tracer);

    const auto key_a = crypto::PrivateKey::generate(to_bytes("rotation-a"));
    const auto key_b = crypto::PrivateKey::generate(to_bytes("rotation-b"));

    // First registration and an idempotent re-registration are not rotations.
    EXPECT_FALSE(env.server.register_device_key(kDeviceId, key_a.public_key()));
    EXPECT_FALSE(env.server.register_device_key(kDeviceId, key_a.public_key()));
    EXPECT_TRUE(env.server.key_rotations().empty());
    EXPECT_EQ(env.server.stats().key_rotations, 0u);
    EXPECT_EQ(ring.total_seen(), 0u);

    // Replacing the key is a rotation: counted, logged, traced.
    EXPECT_TRUE(env.server.register_device_key(kDeviceId, key_b.public_key()));
    ASSERT_EQ(env.server.key_rotations().size(), 1u);
    EXPECT_EQ(env.server.key_rotations()[0].device_id, kDeviceId);
    EXPECT_EQ(env.server.key_rotations()[0].generation, 1u);
    EXPECT_EQ(env.server.stats().key_rotations, 1u);
    ASSERT_EQ(ring.total_seen(), 1u);
    EXPECT_EQ(ring.events().back().type, sim::TraceType::kKeyRotation);
    EXPECT_EQ(ring.events().back().device_id, kDeviceId);
    EXPECT_EQ(ring.events().back().code, 1u);

    // Rotating back is a second-generation rotation, not a no-op.
    EXPECT_TRUE(env.server.register_device_key(kDeviceId, key_a.public_key()));
    EXPECT_EQ(env.server.key_rotations()[1].generation, 2u);
    EXPECT_EQ(ring.events().back().code, 2u);
}

TEST(ServerCacheTest, StaleKeyFailsAeadAfterRotation) {
    // The regression the silent insert_or_assign used to hide: after a
    // rotation, everything the server seals binds to the NEW key. A device
    // still holding the stale private key derives a different content key
    // from the response's ephemeral public key and must fail the AEAD tag;
    // the rotated-to key must open the same ciphertext.
    TestEnv env;
    const Bytes v2 = env.publish_os_update(2, 99);
    env.server.set_encryption_enabled(true);

    const auto stale = crypto::PrivateKey::generate(to_bytes("stale-device-key"));
    const auto fresh = crypto::PrivateKey::generate(to_bytes("fresh-device-key"));
    env.server.register_device_key(kDeviceId, stale.public_key());
    ASSERT_TRUE(env.server.register_device_key(kDeviceId, fresh.public_key()));

    constexpr std::uint32_t kNonce = 41;
    const auto response =
        env.server.prepare_update(kAppId, token_for(kDeviceId, kNonce, 0));
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->manifest.encrypted);

    // Unwrap [ephemeral pub (64)] [ciphertext || tag] exactly as the device
    // pipeline does.
    ASSERT_GT(response->payload.size(),
              manifest::kEncryptionHeaderSize + crypto::kPolyTagSize);
    const auto ephemeral = crypto::PublicKey::from_bytes(
        ByteSpan(response->payload.data(), manifest::kEncryptionHeaderSize));
    ASSERT_TRUE(ephemeral.has_value());
    const ByteSpan ciphertext(
        response->payload.data() + manifest::kEncryptionHeaderSize,
        response->payload.size() - manifest::kEncryptionHeaderSize);
    Bytes aad;
    put_le32(aad, kDeviceId);
    put_le32(aad, kNonce);

    const auto open_with = [&](const crypto::PrivateKey& device_key) {
        auto shared = crypto::ecdh_shared_secret(device_key, *ephemeral);
        EXPECT_TRUE(shared.has_value());
        const crypto::ContentKeys keys =
            crypto::derive_content_keys(*shared, kDeviceId, kNonce);
        return crypto::aead_open(keys.key, keys.nonce, aad, ciphertext);
    };

    EXPECT_FALSE(open_with(stale).has_value());  // rejected: wrong content key
    const auto plaintext = open_with(fresh);
    ASSERT_TRUE(plaintext.has_value());
    EXPECT_EQ(*plaintext, v2);  // full image for a factory (version 0) token
}

// ------------------------------------------------------------- receipts

TEST(ServerCacheTest, ReceiptsAccountForSignaturesAndRequests) {
    TestEnv env;
    env.publish_os_update(2, 90);

    const auto full = env.server.prepare_update(kAppId, token_for(0x8001, 51, 0));
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->receipt.sign_ops, 1u);
    EXPECT_FALSE(full->receipt.delta_attempted);
    EXPECT_EQ(full->receipt.payload_bytes, full->payload.size());

    const auto diff = env.server.prepare_update(kAppId, token_for(0x8002, 52, 1));
    ASSERT_TRUE(diff.has_value());
    EXPECT_TRUE(diff->receipt.delta_attempted);
    EXPECT_GT(diff->receipt.delta_input_bytes, 0u);

    const ServerStats& s = env.server.stats();
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.sign_ops, 2u);
}

// ----------------------------------------- publish-time ingest verification

TEST(ServerCacheTest, PublishVerifiesReleasesThroughInternedVendorKey) {
    TestEnv env;
    const crypto::PreparedPublicKey held = env.vendor.public_key();
    env.server.set_vendor_key(held);

    // The update server keeps the vendor server's handle: every publish
    // verifies through the one table the vendor server prepared.
    env.publish_os_update(2, 61);
    env.publish_os_update(3, 62);
    env.publish_os_update(4, 63);
    EXPECT_EQ(env.server.stats().publish_verifies, 3u);

    // Fetching the vendor key again hands out that same table.
    const crypto::PreparedPublicKey again = env.vendor.public_key();
    ASSERT_TRUE(again.valid());
    EXPECT_EQ(&again.table(), &held.table());

    // The verified releases serve updates normally.
    const auto response = env.server.prepare_update(kAppId, token_for(0x9001, 71, 1));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->manifest.version, 4u);
}

TEST(ServerCacheTest, ServersHandOutOnePreparedKey) {
    // Each server prepares its key once, in its constructor: every
    // public_key() call hands out a handle to that one table, and devices
    // built from one config share it instead of preparing their own.
    TestEnv env;
    const crypto::PreparedPublicKey vendor_a = env.vendor.public_key();
    const crypto::PreparedPublicKey vendor_b = env.vendor.public_key();
    const crypto::PreparedPublicKey server_a = env.server.public_key();
    const crypto::PreparedPublicKey server_b = env.server.public_key();
    ASSERT_TRUE(vendor_a.valid() && server_a.valid());
    EXPECT_EQ(&vendor_a.table(), &vendor_b.table());
    EXPECT_EQ(&server_a.table(), &server_b.table());
    EXPECT_NE(&vendor_a.table(), &server_a.table());

    const core::DeviceConfig config = env.device_config();
    const core::Device first(config);
    const core::Device second(config);
    EXPECT_EQ(&first.config().vendor_key.table(), &vendor_a.table());
    EXPECT_EQ(&second.config().vendor_key.table(), &vendor_a.table());
    EXPECT_EQ(&first.config().server_key.table(), &server_a.table());
    EXPECT_EQ(&second.config().server_key.table(), &server_a.table());
}

TEST(ServerCacheTest, PublishRejectsTamperedReleases) {
    TestEnv env;
    env.server.set_vendor_key(env.vendor.public_key());
    // No vendor key here: only the chunk check bounds a table against the
    // image it describes. One chunked release is already indexed.
    TestEnv keyless(64 * 1024);
    publish_chunked(keyless, 2, sim::mutate_app_change(keyless.base_firmware, 79, 600));

    // A rejected release is not admitted and leaves the chunk index as it was.
    const auto expect_rejected = [](TestEnv& target, server::Release release,
                                    Status expected) {
        const auto latest = target.server.latest_version(kAppId);
        const auto store = target.server.chunk_store_stats();
        EXPECT_EQ(target.server.publish(std::move(release)), expected);
        EXPECT_EQ(target.server.latest_version(kAppId), latest);
        EXPECT_EQ(target.server.chunk_store_stats(), store);
    };

    // Firmware mutated after vendor signing: digest check fails.
    const Bytes fw = sim::mutate_os_version(env.base_firmware, 77);
    server::Release bad_fw =
        env.vendor.create_release(fw, {.version = 5, .app_id = kAppId});
    bad_fw.firmware[100] ^= 0x01;
    expect_rejected(env, std::move(bad_fw), Status::kBadDigest);

    // Forged vendor signature: signature check fails before the digest one.
    server::Release bad_sig =
        env.vendor.create_release(fw, {.version = 5, .app_id = kAppId});
    bad_sig.manifest.vendor_signature[3] ^= 0x01;
    expect_rejected(env, std::move(bad_sig), Status::kBadVendorSignature);

    // One chunk-table digest flipped: the vendor signature does not cover
    // the table, so the release reaches the per-chunk check.
    server::Release bad_chunk =
        env.vendor.create_release(fw, {.version = 5, .app_id = kAppId, .chunked = true});
    auto& table = bad_chunk.manifest.chunk_table;
    ASSERT_GT(table.size(), 1u);
    table[table.size() / 2].digest[0] ^= 0x01;
    expect_rejected(env, std::move(bad_chunk), Status::kBadDigest);

    // A 64 KiB chunked release whose firmware is cut to a 1 KiB buffer: the
    // table is bounded against the image before any chunk is read.
    server::Release cut = keyless.vendor.create_release(
        keyless.base_firmware, {.version = 5, .app_id = kAppId, .chunked = true});
    cut.firmware = Bytes(cut.firmware.begin(), cut.firmware.begin() + 1024);
    expect_rejected(keyless, std::move(cut), Status::kBadManifest);

    EXPECT_EQ(env.server.latest_version(kAppId), 1);

    // The untampered release goes through.
    server::Release good = env.vendor.create_release(fw, {.version = 5, .app_id = kAppId});
    EXPECT_EQ(env.server.publish(std::move(good)), Status::kOk);
    EXPECT_EQ(env.server.latest_version(kAppId), 5);
}

// ------------------------------------------------- threaded request safety

/// The server a threaded-request test drives: v1 plain, v2 chunked and v3
/// chunked, in one of three serving modes. In the encrypted mode the devices
/// with an odd id have registered keys, so their responses are sealed.
enum class ServeMode { kNative, kSuit, kEncrypted };

void configure_threaded_server(TestEnv& env, ServeMode mode) {
    publish_chunked(env, 2, sim::mutate_app_change(env.base_firmware, 56, 600));
    publish_chunked(env, 3, sim::mutate_app_change(env.base_firmware, 57, 600));
    if (mode == ServeMode::kSuit) env.server.set_suit_mode(true);
    if (mode == ServeMode::kEncrypted) {
        env.server.set_encryption_enabled(true);
        for (std::uint32_t id = 0xA001; id < 0xA100; id += 2) {
            Bytes seed = to_bytes("threaded-device-key");
            put_le32(seed, id);
            env.server.register_device_key(id, crypto::PrivateKey::generate(seed).public_key());
        }
    }
}

/// Every request shape, one token per request: differential from v1 and
/// v2, full image, and have-lists of v2's chunks and of nothing the
/// server holds. Device ids and nonces are all distinct.
std::vector<manifest::DeviceToken> threaded_tokens(const TestEnv& env, std::size_t count) {
    const std::vector<std::uint64_t> have_v2 =
        have_list_for(sim::mutate_app_change(env.base_firmware, 56, 600));
    std::vector<manifest::DeviceToken> tokens;
    for (std::size_t i = 0; i < count; ++i) {
        const auto id = static_cast<std::uint32_t>(0xA000 + i);
        manifest::DeviceToken token = token_for(id, 100 + static_cast<std::uint32_t>(i), 0);
        switch (i % 5) {
            case 0: token.current_version = 1; break;
            case 1: token.current_version = 2; break;
            case 2: break;  // full image
            case 3:
                token.current_version = 2;
                token.have = have_v2;
                break;
            default: token.have = {1}; break;
        }
        tokens.push_back(std::move(token));
    }
    return tokens;
}

/// Answers tokens[i] on `threads` threads, thread t taking t, t + threads,
/// and so on; response i answers token i.
std::vector<std::optional<UpdateResponse>> answer(const server::UpdateServer& server,
                                                  const std::vector<manifest::DeviceToken>& tokens,
                                                  unsigned threads) {
    std::vector<std::optional<UpdateResponse>> responses(tokens.size());
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < tokens.size(); i += threads) {
                auto response = server.prepare_update(kAppId, tokens[i]);
                if (response) responses[i] = std::move(*response);
            }
        });
    }
    for (auto& w : workers) w.join();
    return responses;
}

/// Whether the response's server signature verifies under `key`, in
/// either wire encoding.
bool server_signature_verifies(const UpdateResponse& r, const crypto::PreparedPublicKey& key) {
    crypto::Sha256Digest digest;
    if (const auto envelope = suit::parse_envelope(r.manifest_bytes)) {
        digest = crypto::Sha256::digest(
            suit::server_tbs(envelope->manifest_bstr, envelope->vendor_signature));
    } else {
        digest = crypto::Sha256::digest(r.manifest.server_signed_bytes());
    }
    return crypto::ecdsa_verify(
        key, digest, ByteSpan(r.manifest.server_signature.data(), crypto::kSignatureSize));
}

TEST(ServerCacheTest, ConcurrentPrepareUpdateKeepsCountersAndCachesCoherent) {
    // Hammers prepare_update from several threads: the server mutex must
    // keep the response cache and the counters coherent while signatures
    // run outside it (the TSan CI job leans on this test). Every threaded
    // response must equal, byte for byte, the same token's response from a
    // twin server built from the same seeds and driven on one thread; the
    // request order differs, and RFC 6979 makes every signature a pure
    // function of key and digest. A sealed response depends on request
    // order through the ephemeral-key counter, by design, so for those only
    // the signature and the counters are checked.
    constexpr unsigned kThreads = 4;
    constexpr std::size_t kRequests = 40;
    for (const ServeMode mode : {ServeMode::kNative, ServeMode::kSuit, ServeMode::kEncrypted}) {
        SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
        TestEnv env(16 * 1024), twin(16 * 1024);
        configure_threaded_server(env, mode);
        configure_threaded_server(twin, mode);
        const auto tokens = threaded_tokens(env, kRequests);
        const auto threaded = answer(env.server, tokens, kThreads);
        const auto serial = answer(twin.server, tokens, 1);

        std::size_t sealed = 0;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            SCOPED_TRACE("token " + std::to_string(i));
            ASSERT_TRUE(threaded[i].has_value());
            ASSERT_TRUE(serial[i].has_value());
            const UpdateResponse& got = *threaded[i];
            EXPECT_EQ(got.manifest.device_id, tokens[i].device_id);
            EXPECT_EQ(suit::parse_envelope(got.manifest_bytes).has_value(),
                      mode == ServeMode::kSuit);
            EXPECT_TRUE(server_signature_verifies(got, env.server.public_key()));
            EXPECT_EQ(got.manifest.encrypted, serial[i]->manifest.encrypted);
            if (got.manifest.encrypted) {
                ++sealed;
                continue;
            }
            EXPECT_EQ(got.manifest_bytes, serial[i]->manifest_bytes);
            EXPECT_EQ(got.payload, serial[i]->payload);
            EXPECT_EQ(got.manifest.server_signature, serial[i]->manifest.server_signature);
        }
        EXPECT_EQ(sealed > 0, mode == ServeMode::kEncrypted);

        const ServerStats s = env.server.stats();
        const ServerStats reference = twin.server.stats();
        EXPECT_EQ(s.requests, kRequests);
        EXPECT_EQ(s.requests, reference.requests);
        EXPECT_EQ(s.sign_ops, reference.sign_ops);
        EXPECT_EQ(s.response_hits, reference.response_hits);
        EXPECT_EQ(s.response_misses, reference.response_misses);
        EXPECT_EQ(s.delta_generations, reference.delta_generations);
        EXPECT_EQ(s.sign_ops, kRequests);  // one freshness signature per request
        if (mode == ServeMode::kNative) {
            // Five cacheable shapes, each built once: two deltas, the full
            // image and two have-lists.
            EXPECT_EQ(s.response_misses, 5u);
            EXPECT_EQ(s.delta_generations, 2u);
        }
    }
}

}  // namespace
}  // namespace upkit
