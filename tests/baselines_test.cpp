// Baseline-model tests: the attack scenarios that motivate UpKit's design.
// The mcumgr+mcuboot stack must *install* a replayed outdated image and
// must waste a full download + reboot on a tampered one; UpKit must not.
#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "crypto/crc.hpp"
#include "test_env.hpp"

namespace upkit::baselines {
namespace {

using core::Device;
using core::SlotLayout;
using core::UpdateSession;
using testenv::kAppId;
using testenv::TestEnv;

TEST(CrcOnlyVerifyTest, AcceptsRecomputedCrcAfterTampering) {
    // The Sparrow/Deluge weakness in one test: an attacker modifies the
    // image AND recomputes the CRC — verification passes.
    Bytes image = sim::generate_firmware({.size = 4096, .seed = 1});
    const std::uint32_t original_crc = crypto::crc32(image);
    EXPECT_TRUE(crc_only_verify(image, original_crc));

    image[100] ^= 0xFF;                                   // malicious patch
    EXPECT_FALSE(crc_only_verify(image, original_crc));   // random corruption: caught
    EXPECT_TRUE(crc_only_verify(image, crypto::crc32(image)));  // tampering: NOT caught
}

class BaselineFixture : public ::testing::Test {
protected:
    BaselineFixture() {
        // Both devices are provisioned while only version 1 exists.
        device_ = env_.make_device(SlotLayout::kAB);
        upkit_device_ = env_.make_device(SlotLayout::kAB);
    }

    server::UpdateResponse image_for_version_latest() {
        auto image = env_.server.prepare_update(
            kAppId, {.device_id = testenv::kDeviceId, .nonce = 7, .current_version = 0});
        EXPECT_TRUE(image.has_value());
        return std::move(*image);
    }

    TestEnv env_;
    std::unique_ptr<Device> device_;
    std::unique_ptr<Device> upkit_device_;
};

TEST_F(BaselineFixture, McumgrMcubootHappyPath) {
    env_.publish_os_update(2, 3);
    const auto image = image_for_version_latest();

    McumgrAgent agent(*device_);
    net::Transport transport(net::ble_gatt(), device_->clock(), &device_->meter());
    ASSERT_EQ(agent.upload(image, transport), Status::kOk);

    McubootModel bootloader(*device_);
    auto report = bootloader.boot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 2);
    EXPECT_TRUE(report->installed_from_staging);
}

TEST_F(BaselineFixture, McubootBillsEveryBootSecondToTheMeter) {
    env_.publish_os_update(2, 3);
    const auto image = image_for_version_latest();
    McumgrAgent agent(*device_);
    net::Transport transport(net::ble_gatt(), device_->clock(), &device_->meter());
    ASSERT_EQ(agent.upload(image, transport), Status::kOk);

    // Reset, signature check, digest and swap each advance the clock; each
    // must also land in the meter, as compute or as flash time.
    const auto billed = [this] {
        const sim::EnergyMeter& meter = device_->meter();
        return meter.seconds(sim::Component::kCpu) + meter.seconds(sim::Component::kHsm) +
               meter.seconds(sim::Component::kFlash);
    };
    const double t0 = device_->clock().now();
    const double billed0 = billed();
    McubootModel bootloader(*device_);
    auto report = bootloader.boot();
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(report->installed_from_staging);
    const double elapsed = device_->clock().now() - t0;
    EXPECT_GT(elapsed, 0.25);
    EXPECT_NEAR(billed() - billed0, elapsed, 1e-9);
}

TEST_F(BaselineFixture, BaselineInstallsReplayedOutdatedImage) {
    // The attacker captured the (validly signed) version-1 image earlier.
    const auto outdated = image_for_version_latest();  // still version 1
    env_.publish_os_update(2, 3);

    // The device runs version 1 and *should* move to 2; the attacker
    // replays version 1... which mcuboot happily re-installs: no freshness.
    McumgrAgent agent(*device_);
    net::Transport transport(net::ble_gatt(), device_->clock(), &device_->meter());
    ASSERT_EQ(agent.upload(outdated, transport), Status::kOk);
    McubootModel bootloader(*device_);
    auto report = bootloader.boot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);  // replay succeeded (the flaw)
    EXPECT_TRUE(report->installed_from_staging);
}

TEST_F(BaselineFixture, UpkitRejectsTheSameReplayEarly) {
    // Attacker captures a fully valid version-1 response (signed by the
    // real update server for an earlier request) BEFORE v2 exists...
    auto captured = env_.server.prepare_update(
        kAppId, {.device_id = testenv::kDeviceId, .nonce = 99, .current_version = 0});
    ASSERT_TRUE(captured.has_value());
    env_.publish_os_update(2, 3);

    // ...and splices it into the device's next update session. The nonce
    // binding kills it at the manifest — before any firmware download.
    UpdateSession session(*device_, env_.server, net::ble_gatt());
    session.set_interceptor([&](server::UpdateResponse& response) {
        response = *captured;
    });
    const core::SessionReport report = session.run(kAppId);
    EXPECT_EQ(report.status, Status::kBadNonce);
    EXPECT_TRUE(report.rejected_before_download);
    EXPECT_FALSE(report.rebooted);
    EXPECT_EQ(device_->identity().installed_version, 1);
}

TEST_F(BaselineFixture, BaselineWastesFullDownloadAndRebootOnTamperedImage) {
    env_.publish_os_update(2, 3);
    auto image = image_for_version_latest();
    image.payload[500] ^= 0x01;  // tampered on the smartphone

    const double t0 = device_->clock().now();
    const double e0 = device_->meter().total_millijoules();

    McumgrAgent agent(*device_);
    net::Transport transport(net::ble_gatt(), device_->clock(), &device_->meter());
    ASSERT_EQ(agent.upload(image, transport), Status::kOk);  // stored blindly!
    McubootModel bootloader(*device_);
    auto report = bootloader.boot();  // reboot happened, then rejection
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);          // rolled back
    EXPECT_EQ(report->invalidated.size(), 1u);

    const double baseline_time = device_->clock().now() - t0;
    const double baseline_energy = device_->meter().total_millijoules() - e0;
    // The whole payload crossed the air before anything was checked.
    EXPECT_GE(transport.bytes_to_device(),
              image.payload.size() + image.manifest_bytes.size());

    // Same attack against UpKit: rejected before any reboot, and (since the
    // manifest was intact) after download but before reboot.
    Device* upkit_device = upkit_device_.get();
    UpdateSession session(*upkit_device, env_.server, net::ble_gatt());
    session.set_interceptor([](server::UpdateResponse& response) {
        response.manifest.digest[3] ^= 0x01;  // tamper the manifest instead
        response.manifest_bytes = manifest::serialize(response.manifest);
    });
    const double ut0 = upkit_device->clock().now();
    const double ue0 = upkit_device->meter().total_millijoules();
    const core::SessionReport upkit_report = session.run(kAppId);
    EXPECT_TRUE(upkit_report.rejected_before_download);
    const double upkit_time = upkit_device->clock().now() - ut0;
    const double upkit_energy = upkit_device->meter().total_millijoules() - ue0;

    // Early rejection: orders of magnitude cheaper.
    EXPECT_LT(upkit_time * 10, baseline_time);
    EXPECT_LT(upkit_energy * 10, baseline_energy);
}

TEST_F(BaselineFixture, Lwm2mEndToEndTlsStopsSplicing) {
    env_.publish_os_update(2, 3);
    const auto image = image_for_version_latest();

    net::Transport transport(net::coap_6lowpan(), device_->clock(), &device_->meter());
    // Direct server connection: splice detected.
    Lwm2mAgent direct(*device_, /*end_to_end_tls=*/true);
    EXPECT_EQ(direct.download(image, transport, /*attacker_in_path=*/true),
              Status::kTransportError);

    // Behind a gateway the TLS session terminates at the proxy: the splice
    // goes through — the paper's argument for in-manifest freshness.
    Lwm2mAgent proxied(*device_, /*end_to_end_tls=*/false);
    EXPECT_EQ(proxied.download(image, transport, /*attacker_in_path=*/true), Status::kOk);
}

}  // namespace
}  // namespace upkit::baselines
