// Bootloader tests: slot selection, A/B jump vs static swap, rollback on
// invalid images, double verification after power loss.
#include <gtest/gtest.h>

#include "test_env.hpp"

namespace upkit::boot {
namespace {

using core::Device;
using core::SlotLayout;
using manifest::DeviceToken;
using testenv::kAppId;
using testenv::TestEnv;

/// Drives a full agent-side update so an image sits staged in the target
/// slot; returns the new version.
std::uint16_t stage_update(TestEnv& env, Device& device) {
    agent::UpdateAgent& agent = device.agent();
    auto token = agent.request_device_token();
    EXPECT_TRUE(token.has_value());
    auto response = env.server.prepare_update(kAppId, *token);
    EXPECT_TRUE(response.has_value());
    EXPECT_EQ(agent.offer_manifest(response->manifest_bytes), Status::kOk);
    EXPECT_EQ(agent.end_manifest(), Status::kOk);
    for (std::size_t off = 0; off < response->payload.size(); off += 244) {
        const std::size_t len = std::min<std::size_t>(244, response->payload.size() - off);
        EXPECT_EQ(agent.offer_payload(ByteSpan(response->payload).subspan(off, len)),
                  Status::kOk);
    }
    EXPECT_TRUE(agent.update_ready());
    return response->manifest.version;
}

TEST(BootloaderTest, FactoryImageBoots) {
    TestEnv env;
    auto device = env.make_device();
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted_slot, 0u);
    EXPECT_EQ(report->booted.version, 1);
    EXPECT_FALSE(report->installed_from_staging);
}

TEST(BootloaderTest, EmptyDeviceHasNothingToBoot) {
    TestEnv env;
    core::Device device(env.device_config());
    EXPECT_EQ(device.reboot().status(), Status::kNotFound);
}

TEST(BootloaderTest, AbModeJumpsWithoutInstalling) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.publish_os_update(2, 3);
    stage_update(env, *device);

    const std::uint64_t erases_before = device->internal_flash().total_erases();
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 2);
    EXPECT_EQ(report->booted_slot, 1u);  // jumped straight to slot B
    EXPECT_FALSE(report->installed_from_staging);
    // A/B loading performs no swap: no erase traffic during boot.
    EXPECT_EQ(device->internal_flash().total_erases(), erases_before);
}

TEST(BootloaderTest, AbModeAlternatesSlots) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.publish_os_update(2, 3);
    stage_update(env, *device);
    ASSERT_TRUE(device->reboot().has_value());
    EXPECT_EQ(device->installed_slot(), 1u);
    EXPECT_EQ(device->target_slot(), 0u);

    env.publish_os_update(3, 4);
    stage_update(env, *device);
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 3);
    EXPECT_EQ(report->booted_slot, 0u);  // back to slot A
}

/// Stages version 2 on a fresh device of `layout` and reboots it; returns
/// the device-seconds that boot spent outside verification (reset, any
/// install, jump).
double staged_boot_outside_verification(SlotLayout layout, BootReport& report) {
    TestEnv env;
    auto device = env.make_device(layout);
    env.publish_os_update(2, 3);
    stage_update(env, *device);
    const double start = device->clock().now();
    auto booted = device->reboot();
    EXPECT_TRUE(booted.has_value());
    if (!booted) return 0.0;
    report = *booted;
    return device->clock().now() - start - report.verification_seconds;
}

TEST(BootloaderTest, StaticModeSwapsFromStaging) {
    BootReport report;
    const double static_s = staged_boot_outside_verification(SlotLayout::kStaticInternal, report);
    EXPECT_EQ(report.booted.version, 2);
    EXPECT_EQ(report.booted_slot, 0u);  // always boots the bootable slot
    EXPECT_TRUE(report.installed_from_staging);

    // Loading shows: the swap costs boot time beyond the same staged boot
    // on an A/B device, which only jumps.
    BootReport ab_report;
    const double ab_s = staged_boot_outside_verification(SlotLayout::kAB, ab_report);
    EXPECT_EQ(ab_report.booted.version, 2);
    EXPECT_FALSE(ab_report.installed_from_staging);
    EXPECT_GT(static_s, ab_s);
}

TEST(BootloaderTest, StaticModeKeepsOldImageAsRollback) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kStaticInternal);
    env.publish_os_update(2, 3);
    stage_update(env, *device);
    ASSERT_TRUE(device->reboot().has_value());

    // After the swap the staging slot holds version 1 (the rollback image).
    const slots::SlotConfig* staging = device->slots().slot(1);
    Bytes raw(manifest::kManifestSize);
    ASSERT_EQ(staging->device->read(staging->offset, MutByteSpan(raw)), Status::kOk);
    auto m = manifest::parse_manifest(raw);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->version, 1);
}

TEST(BootloaderTest, CorruptStagedImageRollsBack) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.publish_os_update(2, 3);
    stage_update(env, *device);

    // Bitrot after the agent verified but before reboot — exactly why the
    // bootloader verifies again. Find a firmware byte with a set bit and
    // clear it (the only corruption flash physics allows without an erase).
    const slots::SlotConfig* target = device->slots().slot(device->target_slot());
    std::uint64_t corrupt_at = target->offset + manifest::kManifestSize;
    Bytes byte(1);
    for (;; ++corrupt_at) {
        ASSERT_EQ(target->device->read(corrupt_at, MutByteSpan(byte)), Status::kOk);
        if (byte[0] != 0x00) break;
    }
    byte[0] = static_cast<std::uint8_t>(byte[0] & (byte[0] - 1));  // drop lowest set bit
    ASSERT_EQ(target->device->write(corrupt_at, byte), Status::kOk);

    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);  // rolled back
    ASSERT_EQ(report->invalidated.size(), 1u);
    EXPECT_EQ(report->invalidated[0], 1u);
}

TEST(BootloaderTest, PowerLossDuringPropagationRecovers) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.publish_os_update(2, 3);

    agent::UpdateAgent& agent = device->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    auto response = env.server.prepare_update(kAppId, *token);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(agent.offer_manifest(response->manifest_bytes), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kOk);

    // Feed half the payload, then cut power mid-write.
    const std::size_t half = response->payload.size() / 2;
    std::size_t off = 0;
    for (; off < half; off += 4096) {
        const std::size_t len = std::min<std::size_t>(4096, half - off);
        ASSERT_EQ(agent.offer_payload(ByteSpan(response->payload).subspan(off, len)),
                  Status::kOk);
    }
    device->internal_flash().schedule_power_loss_range({0});
    Status s = Status::kOk;
    for (; off < response->payload.size() && s == Status::kOk; off += 4096) {
        const std::size_t len =
            std::min<std::size_t>(4096, response->payload.size() - off);
        s = agent.offer_payload(ByteSpan(response->payload).subspan(off, len));
    }
    EXPECT_NE(s, Status::kOk);  // the write failed when power dropped

    // Reboot (revives flash). The half-written image must be rejected by
    // the bootloader's verification and the old image must boot.
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);
    EXPECT_EQ(device->identity().installed_version, 1);
}

TEST(BootloaderTest, ForeignAppImageInvalidated) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);

    // Hand-write a validly-signed image for a DIFFERENT app into slot 1.
    server::UpdateServer& server = env.server;
    const Bytes other_fw = sim::generate_firmware({.size = 8 * 1024, .seed = 90});
    ASSERT_EQ(server.publish(env.vendor.create_release(
                  other_fw, {.version = 9, .app_id = 0xFEED})),
              Status::kOk);
    auto image = server.prepare_update(
        0xFEED, DeviceToken{.device_id = testenv::kDeviceId, .nonce = 1, .current_version = 0});
    ASSERT_TRUE(image.has_value());

    const slots::SlotConfig* slot = device->slots().slot(1);
    Bytes blob = image->manifest_bytes;
    append(blob, image->payload);
    ASSERT_EQ(slot->device->erase_range(slot->offset, slot->size), Status::kOk);
    ASSERT_EQ(slot->device->write(slot->offset, blob), Status::kOk);

    // Version 9 looks newest, but the app ID mismatch must reject it.
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);
    EXPECT_EQ(report->invalidated.size(), 1u);
}

TEST(BootloaderTest, VerificationTimeAccounted) {
    TestEnv env;
    auto device = env.make_device();
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_GT(report->verification_seconds, 0.0);
}

}  // namespace
}  // namespace upkit::boot
