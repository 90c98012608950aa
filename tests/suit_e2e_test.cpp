// End-to-end tests of SUIT interop mode: the update server serves SUIT/CBOR
// envelopes, the agent verifies + stores them in the padded header region,
// and the bootloader re-verifies the SUIT-encoded image after reboot —
// including rollback and mixed-format version chains. A proxy that rewrites
// the manifest frame, SUIT or native, gets it rejected on arrival, and the
// device never receives more of it than its manifest buffer holds plus one
// chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "suit/suit.hpp"
#include "test_env.hpp"

namespace upkit::core {
namespace {

using testenv::kAppId;
using testenv::TestEnv;

TEST(SuitE2eTest, FullSuitUpdateEndToEnd) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);  // native-provisioned v1
    env.server.set_suit_mode(true);
    env.publish_os_update(2, 70);

    UpdateSession session(*device, env.server, net::ble_gatt());
    const SessionReport report = session.run(kAppId);
    EXPECT_EQ(report.status, Status::kOk);
    EXPECT_EQ(report.final_version, 2);
    EXPECT_TRUE(report.rebooted);  // the bootloader verified the SUIT image
}

TEST(SuitE2eTest, SuitFactoryProvisioningBoots) {
    TestEnv env;
    env.server.set_suit_mode(true);
    DeviceConfig config = env.device_config(SlotLayout::kAB);
    Device device(config);
    auto factory = env.server.prepare_update(
        kAppId, {.device_id = testenv::kDeviceId, .nonce = 0, .current_version = 0});
    ASSERT_TRUE(factory.has_value());
    ASSERT_TRUE(suit::parse_envelope(factory->manifest_bytes).has_value());
    ASSERT_EQ(device.provision_factory(*factory), Status::kOk);
    EXPECT_EQ(device.identity().installed_version, 1);
}

TEST(SuitE2eTest, DifferentialAcrossMixedFormats) {
    // v1 installed natively, v2 delivered as a SUIT differential update,
    // then v3 back in native format patching against the SUIT-stored v2.
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.server.set_suit_mode(true);
    env.publish_os_update(2, 71);
    {
        UpdateSession session(*device, env.server, net::ble_gatt());
        const SessionReport report = session.run(kAppId);
        ASSERT_EQ(report.status, Status::kOk);
        EXPECT_TRUE(report.differential);  // patched against the native v1
        ASSERT_EQ(device->identity().installed_version, 2);
    }
    env.server.set_suit_mode(false);
    env.publish(3, sim::mutate_app_change(env.base_firmware, 72, 700));
    {
        UpdateSession session(*device, env.server, net::ble_gatt());
        const SessionReport report = session.run(kAppId);
        ASSERT_EQ(report.status, Status::kOk);
        EXPECT_TRUE(report.differential);  // patched against the SUIT-stored v2
        EXPECT_EQ(device->identity().installed_version, 3);
    }
}

TEST(SuitE2eTest, TamperedSuitEnvelopeRejectedEarly) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.server.set_suit_mode(true);
    env.publish_os_update(2, 73);

    UpdateSession session(*device, env.server, net::ble_gatt());
    session.set_interceptor([](server::UpdateResponse& response) {
        // Rewrite the sequence number inside the envelope's manifest bstr.
        auto envelope = suit::parse_envelope(response.manifest_bytes);
        ASSERT_TRUE(envelope.has_value());
        auto decoded = suit::cbor_decode(envelope->manifest_bstr);
        suit::CborMap map = decoded->as_map();
        map.insert_or_assign(suit::kKeySequenceNumber, suit::CborValue(std::uint64_t{99}));
        envelope->manifest_bstr = suit::cbor_encode(suit::CborValue(std::move(map)));
        response.manifest_bytes = envelope->encode();
    });
    const SessionReport report = session.run(kAppId);
    // The sequence number is vendor-signed; that check fires first.
    EXPECT_EQ(report.status, Status::kBadVendorSignature);
    EXPECT_TRUE(report.rejected_before_download);
    EXPECT_FALSE(report.rebooted);
}

TEST(SuitE2eTest, ReplayedSuitEnvelopeRejectedByNonce) {
    TestEnv env;
    env.server.set_suit_mode(true);
    auto captured = env.server.prepare_update(
        kAppId, {.device_id = testenv::kDeviceId, .nonce = 77, .current_version = 0});
    ASSERT_TRUE(captured.has_value());

    env.server.set_suit_mode(false);
    auto device = env.make_device(SlotLayout::kAB);
    env.server.set_suit_mode(true);
    env.publish_os_update(2, 74);

    UpdateSession session(*device, env.server, net::ble_gatt());
    session.set_interceptor([&](server::UpdateResponse& r) { r = *captured; });
    const SessionReport report = session.run(kAppId);
    EXPECT_EQ(report.status, Status::kBadNonce);
    EXPECT_TRUE(report.rejected_before_download);
}

TEST(SuitE2eTest, CorruptedStoredSuitImageRollsBack) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.server.set_suit_mode(true);
    env.publish_os_update(2, 75);
    {
        UpdateSession session(*device, env.server, net::ble_gatt());
        ASSERT_EQ(session.run(kAppId).status, Status::kOk);
        ASSERT_EQ(device->identity().installed_version, 2);
    }

    // Bitrot in the SUIT-stored image's firmware region.
    const slots::SlotConfig* slot = device->slots().slot(device->installed_slot());
    std::uint64_t at = slot->offset + suit::kSuitHeaderRegion;
    Bytes byte(1);
    for (;; ++at) {
        ASSERT_EQ(slot->device->read(at, MutByteSpan(byte)), Status::kOk);
        if (byte[0] != 0x00) break;
    }
    byte[0] = static_cast<std::uint8_t>(byte[0] & (byte[0] - 1));
    ASSERT_EQ(slot->device->write(at, byte), Status::kOk);

    // The bootloader re-verifies the SUIT image, rejects it, rolls back to
    // the native v1 still sitting in the other slot.
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);
    EXPECT_EQ(report->invalidated.size(), 1u);
}

TEST(SuitE2eTest, StoredSuitImageWithNonZeroPaddingRollsBack) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.server.set_suit_mode(true);
    env.publish_os_update(2, 75);
    {
        UpdateSession session(*device, env.server, net::ble_gatt());
        ASSERT_EQ(session.run(kAppId).status, Status::kOk);
        ASSERT_EQ(device->identity().installed_version, 2);
    }

    // Set the last byte of the envelope's zero padding: the envelope and
    // its signatures are intact, but the header region no longer holds
    // only the envelope. Flash programs 1s to 0s only, so the sector is
    // erased and rewritten.
    const std::uint32_t v2_slot = device->installed_slot();
    const slots::SlotConfig* slot = device->slots().slot(v2_slot);
    Bytes sector(slot->device->geometry().sector_bytes);
    ASSERT_EQ(slot->device->read(slot->offset, MutByteSpan(sector)), Status::kOk);
    ASSERT_EQ(sector[suit::kSuitHeaderRegion - 1], 0x00);
    sector[suit::kSuitHeaderRegion - 1] = 0x01;
    ASSERT_EQ(slot->device->erase_range(slot->offset, sector.size()), Status::kOk);
    ASSERT_EQ(slot->device->write(slot->offset, sector), Status::kOk);

    // The header no longer parses, so the bootloader passes the slot over
    // and boots the native v1 from the other one.
    EXPECT_EQ(verify::read_image_header(*slot).status(), Status::kBadManifest);
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);
    EXPECT_NE(report->booted_slot, v2_slot);
}

/// One update whose manifest frame (a SUIT envelope when `suit`, else a
/// native manifest) a compromised proxy rewrote on its way to the device.
struct ProxiedRun {
    SessionReport report;
    std::uint64_t manifests_rejected = 0;  // by this session's agent
    Bytes sent;                            // the frame the proxy passed on
    std::vector<std::string> phases;       // session phases entered, in order
};

ProxiedRun run_proxied(bool suit, const std::function<void(Bytes&)>& tamper,
                       const net::LinkParams& link = net::ble_gatt()) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.server.set_suit_mode(suit);
    env.publish_os_update(2, 77);
    const std::uint64_t rejected = device->agent().stats().manifests_rejected;

    ProxiedRun run;
    sim::RingBufferSink sink(1 << 12);
    sim::Tracer tracer;
    tracer.add_sink(sink);
    UpdateSession session(*device, env.server, link);
    session.set_tracer(&tracer);
    session.set_interceptor([&](server::UpdateResponse& response) {
        tamper(response.manifest_bytes);
        run.sent = response.manifest_bytes;
    });
    run.report = session.run(kAppId);
    run.manifests_rejected = device->agent().stats().manifests_rejected - rejected;
    for (const sim::TraceEvent& ev : sink.events()) {
        if (ev.type == sim::TraceType::kSessionPhase) run.phases.emplace_back(ev.to);
    }
    EXPECT_FALSE(run.report.rebooted);
    EXPECT_EQ(device->identity().installed_version, 1);
    return run;
}

/// Runs one SUIT update whose envelope a compromised proxy rewrites with
/// `tamper` on its way to the device, and checks that the agent rejected
/// it on arrival: `status` (kBadManifest unless given) before any firmware
/// byte went over the air, no reboot, one more rejected manifest. Returns
/// the envelope the device received.
Bytes expect_rejected_on_arrival(const std::function<void(Bytes&)>& tamper,
                                 Status status = Status::kBadManifest) {
    const ProxiedRun run = run_proxied(true, tamper);
    EXPECT_EQ(run.report.status, status);
    EXPECT_TRUE(run.report.rejected_before_download);
    EXPECT_EQ(run.manifests_rejected, 1u);
    // Up went the legacy token, down came the envelope: nothing else.
    EXPECT_EQ(run.report.bytes_over_air, manifest::kDeviceTokenSize + run.sent.size());
    return run.sent;
}

TEST(SuitE2eTest, EnvelopeLargerThanItsHeaderRegionRejectedOnArrival) {
    // The envelope is intact, only zero-padded past the header region the
    // slot stores it in: the size check fires before any parsing.
    const Bytes received = expect_rejected_on_arrival(
        [](Bytes& envelope) { envelope.resize(suit::kSuitHeaderRegion + 1, 0x00); },
        Status::kSizeExceeded);
    EXPECT_GT(received.size(), suit::kSuitHeaderRegion);
}

TEST(SuitE2eTest, EnvelopeMayBeFollowedOnlyByZeroBytes) {
    // Zero bytes after the envelope are the padding its header region gets
    // in the slot anyway: the update installs.
    {
        TestEnv env;
        auto device = env.make_device(SlotLayout::kAB);
        env.server.set_suit_mode(true);
        env.publish_os_update(2, 77);
        UpdateSession session(*device, env.server, net::ble_gatt());
        session.set_interceptor(
            [](server::UpdateResponse& response) { append(response.manifest_bytes, Bytes(3)); });
        const SessionReport report = session.run(kAppId);
        EXPECT_EQ(report.status, Status::kOk);
        EXPECT_EQ(report.final_version, 2);
        EXPECT_TRUE(report.rebooted);
    }
    // Any other trailing byte is rejected when the frame ends.
    const Bytes received =
        expect_rejected_on_arrival([](Bytes& envelope) { envelope.push_back(0x01); });
    EXPECT_LE(received.size(), suit::kSuitHeaderRegion);
}

TEST(SuitE2eTest, EnvelopeThatNoLongerParsesRejectedOnArrival) {
    const Bytes received = expect_rejected_on_arrival([](Bytes& envelope) {
        envelope.resize(envelope.size() / 2);  // cut inside the CBOR map
    });
    EXPECT_LE(received.size(), suit::kSuitHeaderRegion);
    EXPECT_FALSE(suit::parse_envelope(received).has_value());
}

TEST(SuitE2eTest, EnvelopeWithMalformedManifestRejectedOnArrival) {
    // A well-formed envelope around a manifest of an unknown format
    // version: the envelope parses, its manifest does not convert.
    const Bytes received = expect_rejected_on_arrival([](Bytes& bytes) {
        auto envelope = suit::parse_envelope(bytes);
        ASSERT_TRUE(envelope.has_value());
        suit::CborMap map = suit::cbor_decode(envelope->manifest_bstr)->as_map();
        map.insert_or_assign(suit::kKeyManifestVersion, suit::CborValue(std::uint64_t{2}));
        envelope->manifest_bstr = suit::cbor_encode(suit::CborValue(std::move(map)));
        bytes = envelope->encode();
    });
    EXPECT_LE(received.size(), suit::kSuitHeaderRegion);
    const auto envelope = suit::parse_envelope(received);
    ASSERT_TRUE(envelope.has_value());
    EXPECT_FALSE(suit::to_manifest(*envelope).has_value());
}

TEST(SuitE2eTest, PaddedEnvelopeStopsAtTheChunkPastItsHeaderRegion) {
    // Padded to 64 KiB, the envelope would cost the device 64 KiB of air
    // time and RAM; the chunk that overflows the header region is the last
    // one it receives.
    const ProxiedRun run =
        run_proxied(true, [](Bytes& envelope) { envelope.resize(64 * 1024, 0x00); });
    EXPECT_EQ(run.report.status, Status::kSizeExceeded);
    EXPECT_TRUE(run.report.rejected_before_download);
    EXPECT_EQ(run.manifests_rejected, 1u);
    EXPECT_LE(run.report.bytes_over_air,
              manifest::kDeviceTokenSize + suit::kSuitHeaderRegion + net::ble_gatt().mtu);
}

TEST(SuitE2eTest, PaddedNativeManifestStopsAtTheChunkPastItsSize) {
    // The native manifest's header pins its size, so the chunk that runs
    // past it is the last one the device receives, and nothing is verified:
    // a manifest that ends on a chunk boundary waits for its frame to end.
    // Air bytes: the 10-byte token up, then whole chunks down until one
    // passes byte 200.
    const struct {
        std::size_t mtu;
        std::uint64_t air_bytes;
    } cases[] = {{100, 310}, {200, 410}, {244, 254}};
    for (const auto& c : cases) {
        SCOPED_TRACE("mtu " + std::to_string(c.mtu));
        net::LinkParams link = net::ble_gatt();
        link.mtu = c.mtu;
        const ProxiedRun run = run_proxied(
            false, [](Bytes& manifest) { manifest.resize(64 * 1024, 0x00); }, link);
        EXPECT_EQ(run.report.status, Status::kSizeExceeded);
        EXPECT_TRUE(run.report.rejected_before_download);
        EXPECT_EQ(run.manifests_rejected, 1u);
        EXPECT_EQ(run.report.phases.verification_s, 0.0);
        EXPECT_EQ(run.report.bytes_over_air, c.air_bytes);
    }
}

TEST(SuitE2eTest, TruncatedNativeManifestRejectedWhenItsFrameEnds) {
    // The frame ends 50 bytes short of the manifest: an early rejection,
    // not a payload phase against an agent that never armed.
    const ProxiedRun run = run_proxied(false, [](Bytes& manifest) { manifest.resize(150); });
    EXPECT_EQ(run.report.status, Status::kBadManifest);
    EXPECT_TRUE(run.report.rejected_before_download);
    EXPECT_FALSE(run.report.rejected_after_download);
    EXPECT_EQ(run.manifests_rejected, 1u);
    EXPECT_EQ(run.report.bytes_over_air, manifest::kDeviceTokenSize + 150);
    EXPECT_NE(std::find(run.phases.begin(), run.phases.end(), "recv-manifest"),
              run.phases.end());
    EXPECT_EQ(std::find(run.phases.begin(), run.phases.end(), "recv-payload"),
              run.phases.end());
}

TEST(SuitE2eTest, SuitImageTooLargeForSlotRejectedBeforeDownload) {
    // A SUIT image takes its padded header region plus the firmware. This
    // firmware would fit behind a 200-byte native manifest in the slot the
    // platform's flash leaves, but not behind the 512-byte region, so the
    // agent's slot-fit check must reject the envelope before any firmware
    // goes over the air.
    TestEnv env;
    Device device(env.device_config(SlotLayout::kAB));
    auto factory = env.server.prepare_update(
        kAppId, {.device_id = testenv::kDeviceId, .nonce = 0, .current_version = 0});
    ASSERT_TRUE(factory.has_value());
    ASSERT_EQ(device.provision_factory(*factory), Status::kOk);
    const std::uint64_t slot_size = device.slots().slot(0)->size;
    env.server.set_suit_mode(true);
    env.publish(2, sim::generate_firmware(
                       {.size = static_cast<std::size_t>(slot_size - 300), .seed = 76}));

    UpdateSession session(device, env.server, net::ble_gatt());
    const SessionReport report = session.run(kAppId);
    EXPECT_EQ(report.status, Status::kSlotTooSmall);
    EXPECT_TRUE(report.rejected_before_download);
    EXPECT_LT(report.bytes_over_air, 4096u);
}

TEST(SuitE2eTest, SuitEnvelopeSlightlyLargerThanNative) {
    TestEnv env;
    env.server.set_suit_mode(true);
    auto response = env.server.prepare_update(
        kAppId, {.device_id = testenv::kDeviceId, .nonce = 1, .current_version = 0});
    ASSERT_TRUE(response.has_value());
    EXPECT_GT(response->manifest_bytes.size(), manifest::kManifestSize);
    EXPECT_LT(response->manifest_bytes.size(), suit::kSuitHeaderRegion);
}

}  // namespace
}  // namespace upkit::core
