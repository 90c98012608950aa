// Verifier + server tests: the double-signature scheme end to end. Every
// manifest property the paper lists (Sect. IV-D) has a rejection test, and
// the freshness attacks the scheme exists to stop are exercised explicitly.
#include <gtest/gtest.h>

#include "common/endian.hpp"
#include "crypto/backend.hpp"
#include "flash/sim_flash.hpp"
#include "server/update_server.hpp"
#include "server/vendor_server.hpp"
#include "sim/firmware.hpp"
#include "verify/verifier.hpp"

namespace upkit::verify {
namespace {

using manifest::DeviceToken;
using manifest::Manifest;
using server::UpdateServer;
using server::VendorServer;

class VerifierFixture : public ::testing::Test {
protected:
    VerifierFixture()
        : vendor_(to_bytes("vendor-key-seed")),
          update_server_(to_bytes("server-key-seed")),
          backend_(crypto::make_tinycrypt_backend()),
          verifier_(*backend_, vendor_.public_key(), update_server_.public_key()) {
        firmware_v2_ = sim::generate_firmware({.size = 24 * 1024, .seed = 7});
        EXPECT_EQ(update_server_.publish(vendor_.create_release(
                      firmware_v2_, {.version = 2, .app_id = kAppId})),
                  Status::kOk);

        slot_ = slots::SlotConfig{.id = 1,
                                  .type = slots::SlotType::kNonBootable,
                                  .device = nullptr,
                                  .offset = 0,
                                  .size = 48 * 1024,
                                  .link_offset = 0x8000};
    }

    server::UpdateResponse fresh_response(const DeviceToken& token) {
        auto response = update_server_.prepare_update(kAppId, token);
        EXPECT_TRUE(response.has_value());
        return std::move(*response);
    }

    /// The bootloader's half of the double verification over `image`
    /// written to the start of an erased slot: read the header, check
    /// compatibility and both signatures, digest the firmware from flash.
    Status verify_stored(ByteSpan image) {
        flash::SimFlash flash(flash::FlashGeometry{.size_bytes = slot_.size},
                              flash::FlashTimings{});
        EXPECT_EQ(flash.write(0, image), Status::kOk);
        slots::SlotConfig slot = slot_;
        slot.device = &flash;
        const auto header = read_image_header(slot);
        if (!header) return header.status();
        UPKIT_RETURN_IF_ERROR(verifier_.check_compatibility(*header, identity_, slot));
        UPKIT_RETURN_IF_ERROR(verifier_.verify_signatures(*header));
        Bytes scratch;
        const auto digest = digest_slot(slot, header->firmware_offset,
                                        header->manifest.firmware_size, scratch);
        if (!digest) return digest.status();
        return verifier_.verify_firmware_digest(header->manifest, *digest);
    }

    static Bytes stored_image(const server::UpdateResponse& response) {
        Bytes image = response.manifest_bytes;
        append(image, response.payload);
        return image;
    }

    static constexpr std::uint32_t kAppId = 0xA11CE;
    static constexpr std::uint32_t kDeviceId = 0xD0D0;

    DeviceToken token_{.device_id = kDeviceId, .nonce = 0x5EED, .current_version = 0};
    DeviceIdentity identity_{.device_id = kDeviceId,
                             .app_id = kAppId,
                             .installed_version = 1,
                             .supports_differential = false};

    VendorServer vendor_;
    UpdateServer update_server_;
    std::unique_ptr<crypto::CryptoBackend> backend_;
    Verifier verifier_;
    Bytes firmware_v2_;
    slots::SlotConfig slot_;
};

TEST_F(VerifierFixture, ValidFullUpdateAccepted) {
    const auto response = fresh_response(token_);
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, token_, identity_, slot_),
              Status::kOk);
    EXPECT_EQ(verifier_.verify_firmware_digest(response.manifest,
                                               crypto::Sha256::digest(response.payload)),
              Status::kOk);
}

TEST_F(VerifierFixture, WireManifestParsesAndVerifies) {
    const auto response = fresh_response(token_);
    auto parsed = manifest::parse_manifest(response.manifest_bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(verifier_.verify_manifest(*parsed, token_, identity_, slot_), Status::kOk);
}

TEST_F(VerifierFixture, TamperedFirmwareRejectedByDigest) {
    auto response = fresh_response(token_);
    response.payload[100] ^= 0x01;
    EXPECT_EQ(verifier_.verify_firmware_digest(response.manifest,
                                               crypto::Sha256::digest(response.payload)),
              Status::kBadDigest);
}

TEST_F(VerifierFixture, TamperedPayloadSizeCaughtByFieldChecks) {
    auto response = fresh_response(token_);
    // A gateway flips the payload size (e.g. to truncate the download);
    // the cheap field-consistency checks reject it before any signature math.
    response.manifest.payload_size -= 1;
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, token_, identity_, slot_),
              Status::kBadManifest);
}

TEST_F(VerifierFixture, TamperedServerSignatureRejected) {
    auto response = fresh_response(token_);
    response.manifest.server_signature[10] ^= 0x04;
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, token_, identity_, slot_),
              Status::kBadServerSignature);
}

TEST_F(VerifierFixture, ForgedVendorFieldsRejected) {
    auto response = fresh_response(token_);
    // The digest is vendor-signed; flipping it breaks the vendor signature
    // (checked first — integrity/authenticity before freshness).
    response.manifest.digest[0] ^= 0xFF;
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, token_, identity_, slot_),
              Status::kBadVendorSignature);
}

TEST_F(VerifierFixture, SignatureFromWrongServerRejected) {
    // An attacker running their own update server cannot satisfy the device.
    UpdateServer rogue(to_bytes("rogue-key"));
    ASSERT_EQ(rogue.publish(vendor_.create_release(firmware_v2_,
                                                   {.version = 2, .app_id = kAppId})),
              Status::kOk);
    auto response = rogue.prepare_update(kAppId, token_);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(verifier_.verify_manifest(response->manifest, token_, identity_, slot_),
              Status::kBadServerSignature);
}

TEST_F(VerifierFixture, UnsignedVendorReleaseRejected) {
    // A rogue *vendor* (valid server, wrong vendor key) is also rejected.
    VendorServer rogue_vendor(to_bytes("rogue-vendor"));
    UpdateServer server2(to_bytes("server-key-seed"));
    ASSERT_EQ(server2.publish(rogue_vendor.create_release(
                  firmware_v2_, {.version = 2, .app_id = kAppId})),
              Status::kOk);
    auto response = server2.prepare_update(kAppId, token_);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(verifier_.verify_manifest(response->manifest, token_, identity_, slot_),
              Status::kBadVendorSignature);
}

// ------------------------------------------------------------ freshness

TEST_F(VerifierFixture, ReplayedResponseWithOldNonceRejected) {
    // Capture a legitimate response for nonce A, then try to replay it when
    // the device is waiting on nonce B — the paper's core freshness attack.
    const auto stale = fresh_response(token_);
    DeviceToken next_token = token_;
    next_token.nonce = 0xBEEF;  // device issued a new nonce for this request
    EXPECT_EQ(verifier_.verify_manifest(stale.manifest, next_token, identity_, slot_),
              Status::kBadNonce);
}

TEST_F(VerifierFixture, OutdatedVersionRejectedEvenWithValidSignatures) {
    // Device already runs version 2; an attacker replays the (validly
    // signed) version-2 image to block progress to version 3.
    const auto stale = fresh_response(token_);
    DeviceIdentity updated = identity_;
    updated.installed_version = 2;
    EXPECT_EQ(verifier_.verify_manifest(stale.manifest, token_, updated, slot_),
              Status::kStaleVersion);
}

TEST_F(VerifierFixture, ResponseForAnotherDeviceRejected) {
    DeviceToken other{.device_id = 0x9999, .nonce = token_.nonce, .current_version = 0};
    const auto response = fresh_response(other);
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, token_, identity_, slot_),
              Status::kBadDeviceId);
}

// ------------------------------------------------------------ compatibility

TEST_F(VerifierFixture, WrongAppIdRejected) {
    const auto response = fresh_response(token_);
    DeviceIdentity other_app = identity_;
    other_app.app_id = 0xFFFF;
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, token_, other_app, slot_),
              Status::kBadAppId);
}

TEST_F(VerifierFixture, LinkOffsetMismatchRejected) {
    UpdateServer server2(to_bytes("server-key-seed"));
    ASSERT_EQ(server2.publish(vendor_.create_release(
                  firmware_v2_,
                  {.version = 2, .app_id = kAppId, .link_offset = 0x4000})),
              Status::kOk);
    auto response = server2.prepare_update(kAppId, token_);
    ASSERT_TRUE(response.has_value());
    // Image linked for 0x4000, slot expects 0x8000.
    EXPECT_EQ(verifier_.verify_manifest(response->manifest, token_, identity_, slot_),
              Status::kBadLinkOffset);
    // A slot accepting any offset takes it.
    slots::SlotConfig any_slot = slot_;
    any_slot.link_offset = 0x4000;
    EXPECT_EQ(verifier_.verify_manifest(response->manifest, token_, identity_, any_slot),
              Status::kOk);
}

TEST_F(VerifierFixture, ImageLargerThanSlotRejected) {
    const auto response = fresh_response(token_);
    slots::SlotConfig tiny = slot_;
    tiny.size = 8 * 1024;
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, token_, identity_, tiny),
              Status::kSlotTooSmall);
}

// ------------------------------------------------------------ differential

TEST_F(VerifierFixture, DifferentialResponseVerifies) {
    const Bytes firmware_v3 = sim::mutate_os_version(firmware_v2_, 9);
    ASSERT_EQ(update_server_.publish(vendor_.create_release(
                  firmware_v3, {.version = 3, .app_id = kAppId})),
              Status::kOk);
    DeviceToken diff_token{.device_id = kDeviceId, .nonce = 0x77, .current_version = 2};
    const auto response = fresh_response(diff_token);
    ASSERT_TRUE(response.manifest.differential);
    EXPECT_LT(response.payload.size(), firmware_v3.size());
    EXPECT_EQ(response.manifest.old_version, 2);

    DeviceIdentity identity = identity_;
    identity.installed_version = 2;
    identity.supports_differential = true;
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, diff_token, identity, slot_),
              Status::kOk);
    // The digest in the manifest is over the *firmware*, not the patch.
    EXPECT_EQ(response.manifest.digest, crypto::Sha256::digest(firmware_v3));
}

TEST_F(VerifierFixture, DifferentialRejectedByNonSupportingDevice) {
    const Bytes firmware_v3 = sim::mutate_os_version(firmware_v2_, 9);
    ASSERT_EQ(update_server_.publish(vendor_.create_release(
                  firmware_v3, {.version = 3, .app_id = kAppId})),
              Status::kOk);
    DeviceToken diff_token{.device_id = kDeviceId, .nonce = 0x78, .current_version = 2};
    const auto response = fresh_response(diff_token);
    ASSERT_TRUE(response.manifest.differential);

    DeviceIdentity identity = identity_;
    identity.installed_version = 2;
    identity.supports_differential = false;
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, diff_token, identity, slot_),
              Status::kBadOldVersion);
}

TEST_F(VerifierFixture, DifferentialBaseVersionMismatchRejected) {
    const Bytes firmware_v3 = sim::mutate_os_version(firmware_v2_, 9);
    ASSERT_EQ(update_server_.publish(vendor_.create_release(
                  firmware_v3, {.version = 3, .app_id = kAppId})),
              Status::kOk);
    DeviceToken diff_token{.device_id = kDeviceId, .nonce = 0x79, .current_version = 2};
    const auto response = fresh_response(diff_token);
    ASSERT_TRUE(response.manifest.differential);

    // The device meanwhile runs version 1, not the base the patch targets.
    DeviceIdentity identity = identity_;
    identity.installed_version = 1;
    identity.supports_differential = true;
    EXPECT_EQ(verifier_.verify_manifest(response.manifest, diff_token, identity, slot_),
              Status::kBadOldVersion);
}

TEST_F(VerifierFixture, TokenWithoutDiffSupportGetsFullImage) {
    const Bytes firmware_v3 = sim::mutate_os_version(firmware_v2_, 9);
    ASSERT_EQ(update_server_.publish(vendor_.create_release(
                  firmware_v3, {.version = 3, .app_id = kAppId})),
              Status::kOk);
    const auto response = fresh_response(token_);  // current_version == 0
    EXPECT_FALSE(response.manifest.differential);
    EXPECT_EQ(response.payload.size(), firmware_v3.size());
}

TEST_F(VerifierFixture, UnknownBaseVersionFallsBackToFullImage) {
    DeviceToken odd_token{.device_id = kDeviceId, .nonce = 0x80, .current_version = 77};
    const auto response = fresh_response(odd_token);
    EXPECT_FALSE(response.manifest.differential);
}

// ------------------------------------------------------------ stored image

TEST_F(VerifierFixture, StoredImageVerifies) {
    const auto response = fresh_response(token_);
    EXPECT_EQ(verify_stored(stored_image(response)), Status::kOk);
}

TEST_F(VerifierFixture, StoredImageTruncationDetected) {
    // A short write leaves the erased 0xFF in place of the last firmware
    // byte: the booting device sees a digest mismatch.
    const auto response = fresh_response(token_);
    ASSERT_NE(response.payload.back(), 0xFF);
    const Bytes image = stored_image(response);
    EXPECT_EQ(verify_stored(ByteSpan(image).subspan(0, image.size() - 1)), Status::kBadDigest);
}

TEST_F(VerifierFixture, StoredImageBitrotDetected) {
    auto response = fresh_response(token_);
    response.payload[42] ^= 0x10;
    EXPECT_EQ(verify_stored(stored_image(response)), Status::kBadDigest);
}

TEST_F(VerifierFixture, ImageHeaderReadStaysInsideSlot) {
    // A 64 KiB slot at the end of the part, holding a chunked header that
    // claims the largest table (~160 KiB): framing must not re-read past
    // the slot — an unbounded read would fail kFlashOutOfBounds — and the
    // header that cannot fit is rejected as malformed.
    flash::SimFlash flash(flash::FlashGeometry{.size_bytes = 128 * 1024},
                          flash::FlashTimings{});
    const slots::SlotConfig slot{.id = 1,
                                 .type = slots::SlotType::kNonBootable,
                                 .device = &flash,
                                 .offset = 64 * 1024,
                                 .size = 64 * 1024,
                                 .link_offset = 0x8000};
    Manifest m = fresh_response(token_).manifest;
    m.chunked = true;
    Bytes header = manifest::serialize(m);
    store_le32(MutByteSpan(header.data() + manifest::kManifestSize, 4),
               static_cast<std::uint32_t>(manifest::kMaxChunkEntries));
    ASSERT_GT(manifest::wire_size_partial(header), slot.size);
    ASSERT_EQ(flash.write(slot.offset, header), Status::kOk);

    EXPECT_EQ(read_image_header(slot).status(), Status::kBadManifest);
}

// ------------------------------------------------------------ server misc

TEST_F(VerifierFixture, ServerAnnouncesLatestVersion) {
    EXPECT_EQ(update_server_.latest_version(kAppId), 2);
    EXPECT_FALSE(update_server_.latest_version(0xBAD).has_value());
    const Bytes firmware_v3 = sim::mutate_app_change(firmware_v2_, 2, 500);
    ASSERT_EQ(update_server_.publish(vendor_.create_release(
                  firmware_v3, {.version = 3, .app_id = kAppId})),
              Status::kOk);
    EXPECT_EQ(update_server_.latest_version(kAppId), 3);
}

TEST_F(VerifierFixture, DuplicatePublishRejected) {
    EXPECT_EQ(update_server_.publish(vendor_.create_release(
                  firmware_v2_, {.version = 2, .app_id = kAppId})),
              Status::kAlreadyExists);
}

TEST_F(VerifierFixture, UnknownAppHasNoUpdates) {
    EXPECT_EQ(update_server_.prepare_update(0xBAD, token_).status(), Status::kNotFound);
}

TEST_F(VerifierFixture, EachResponseSignatureBindsToToken) {
    const auto r1 = fresh_response(token_);
    DeviceToken token2 = token_;
    token2.nonce += 1;
    const auto r2 = fresh_response(token2);
    // Same release, different request: the server signatures must differ.
    EXPECT_NE(r1.manifest.server_signature, r2.manifest.server_signature);
    // The vendor signature is request-independent.
    EXPECT_EQ(r1.manifest.vendor_signature, r2.manifest.vendor_signature);
}

}  // namespace
}  // namespace upkit::verify
