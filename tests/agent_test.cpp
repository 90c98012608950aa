// Update-agent FSM tests: state transitions, token issuance, early
// rejection, pipeline hookup, cleaning, and stats.
#include <gtest/gtest.h>

#include "test_env.hpp"

namespace upkit::agent {
namespace {

using core::Device;
using manifest::DeviceToken;
using testenv::kAppId;
using testenv::TestEnv;

class AgentFixture : public ::testing::Test {
protected:
    AgentFixture() {
        device_ = env_.make_device();
        env_.publish_os_update(2, 7);
    }

    server::UpdateResponse fetch(const DeviceToken& token) {
        auto response = env_.server.prepare_update(kAppId, token);
        EXPECT_TRUE(response.has_value());
        return std::move(*response);
    }

    /// Feeds payload in MTU-sized chunks; returns the first failure.
    Status feed_payload(UpdateAgent& agent, ByteSpan payload, std::size_t mtu = 244) {
        for (std::size_t off = 0; off < payload.size(); off += mtu) {
            const std::size_t len = std::min(mtu, payload.size() - off);
            const Status s = agent.offer_payload(payload.subspan(off, len));
            if (s != Status::kOk) return s;
        }
        return Status::kOk;
    }

    TestEnv env_;
    std::unique_ptr<Device> device_;
};

TEST_F(AgentFixture, InitialStateIsWaiting) {
    EXPECT_EQ(device_->agent().state(), FsmState::kWaiting);
}

TEST_F(AgentFixture, TokenCarriesIdentityAndFreshNonce) {
    UpdateAgent& agent = device_->agent();
    auto t1 = agent.request_device_token();
    ASSERT_TRUE(t1.has_value());
    EXPECT_EQ(t1->device_id, testenv::kDeviceId);
    EXPECT_EQ(t1->current_version, 1);  // differential-capable, so version
    EXPECT_EQ(agent.state(), FsmState::kReceiveManifest);

    agent.clean();
    auto t2 = agent.request_device_token();
    ASSERT_TRUE(t2.has_value());
    EXPECT_NE(t1->nonce, t2->nonce);  // DRBG-fresh per request
}

TEST_F(AgentFixture, TokenRefusedMidUpdate) {
    UpdateAgent& agent = device_->agent();
    ASSERT_TRUE(agent.request_device_token().has_value());
    EXPECT_EQ(agent.request_device_token().status(), Status::kFsmBadState);
}

TEST_F(AgentFixture, HappyPathFullUpdate) {
    UpdateAgent& agent = device_->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());

    // Token says v1 installed; server may send a delta — force full by
    // pretending no diff support.
    DeviceToken full_token = *token;
    full_token.current_version = 0;
    const auto response = fetch(full_token);
    ASSERT_FALSE(response.manifest.differential);

    ASSERT_EQ(agent.offer_manifest(response.manifest_bytes), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kOk);
    EXPECT_EQ(agent.state(), FsmState::kReceiveFirmware);
    ASSERT_EQ(feed_payload(agent, response.payload), Status::kOk);
    EXPECT_EQ(agent.state(), FsmState::kReadyToReboot);
    EXPECT_TRUE(agent.update_ready());
    EXPECT_EQ(agent.stats().updates_staged, 1u);
    EXPECT_GT(agent.stats().verification_seconds, 0.0);
}

TEST_F(AgentFixture, HappyPathDifferentialUpdate) {
    UpdateAgent& agent = device_->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    const auto response = fetch(*token);
    ASSERT_TRUE(response.manifest.differential);

    ASSERT_EQ(agent.offer_manifest(response.manifest_bytes), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kOk);
    ASSERT_EQ(feed_payload(agent, response.payload, 64), Status::kOk);
    EXPECT_TRUE(agent.update_ready());
}

TEST_F(AgentFixture, ManifestBeforeTokenRejected) {
    UpdateAgent& agent = device_->agent();
    EXPECT_EQ(agent.offer_manifest(Bytes(manifest::kManifestSize, 0)), Status::kFsmBadState);
}

TEST_F(AgentFixture, PayloadBeforeManifestRejected) {
    UpdateAgent& agent = device_->agent();
    ASSERT_TRUE(agent.request_device_token().has_value());
    EXPECT_EQ(agent.offer_payload(Bytes(100, 0)), Status::kFsmBadState);
}

TEST_F(AgentFixture, GarbageManifestCleansEarly) {
    UpdateAgent& agent = device_->agent();
    ASSERT_TRUE(agent.request_device_token().has_value());
    ASSERT_EQ(agent.offer_manifest(Bytes(manifest::kManifestSize, 0xAA)), Status::kOk);
    EXPECT_EQ(agent.end_manifest(), Status::kBadManifest);
    EXPECT_EQ(agent.state(), FsmState::kCleaning);
    EXPECT_EQ(agent.stats().manifests_rejected, 1u);
    EXPECT_EQ(agent.stats().payload_bytes_received, 0u);  // nothing downloaded
}

TEST_F(AgentFixture, ReplayedNonceRejectedBeforeDownload) {
    UpdateAgent& agent = device_->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    const auto captured = fetch(*token);  // attacker snapshots this response

    // Device starts over with a new token; the replay must die early.
    agent.clean();
    ASSERT_TRUE(agent.request_device_token().has_value());
    ASSERT_EQ(agent.offer_manifest(captured.manifest_bytes), Status::kOk);
    EXPECT_EQ(agent.end_manifest(), Status::kBadNonce);
    EXPECT_EQ(agent.stats().manifests_rejected, 1u);
    EXPECT_EQ(agent.stats().payload_bytes_received, 0u);
}

TEST_F(AgentFixture, ManifestArrivingInFragments) {
    UpdateAgent& agent = device_->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    DeviceToken full_token = *token;
    full_token.current_version = 0;
    const auto response = fetch(full_token);

    const ByteSpan wire = response.manifest_bytes;
    ASSERT_EQ(agent.offer_manifest(wire.subspan(0, 50)), Status::kOk);
    EXPECT_EQ(agent.state(), FsmState::kReceiveManifest);
    ASSERT_EQ(agent.offer_manifest(wire.subspan(50, 100)), Status::kOk);
    ASSERT_EQ(agent.offer_manifest(wire.subspan(150)), Status::kOk);
    EXPECT_EQ(agent.state(), FsmState::kReceiveManifest);  // until the frame ends
    ASSERT_EQ(agent.end_manifest(), Status::kOk);
    EXPECT_EQ(agent.state(), FsmState::kReceiveFirmware);
}

TEST_F(AgentFixture, OversizedManifestChunkFails) {
    UpdateAgent& agent = device_->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    DeviceToken full_token = *token;
    full_token.current_version = 0;
    Bytes frame = fetch(full_token).manifest_bytes;
    frame.push_back(0x00);  // one byte past the manifest's own size
    EXPECT_EQ(agent.offer_manifest(frame), Status::kSizeExceeded);
    EXPECT_EQ(agent.state(), FsmState::kCleaning);
    EXPECT_EQ(agent.stats().manifests_rejected, 1u);
}

TEST_F(AgentFixture, TamperedPayloadRejectedAfterDownload) {
    UpdateAgent& agent = device_->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    DeviceToken full_token = *token;
    full_token.current_version = 0;
    auto response = fetch(full_token);
    response.payload[1000] ^= 0x01;  // tampered in transit/storage

    ASSERT_EQ(agent.offer_manifest(response.manifest_bytes), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kOk);
    EXPECT_EQ(feed_payload(agent, response.payload), Status::kBadDigest);
    EXPECT_EQ(agent.state(), FsmState::kCleaning);
    EXPECT_EQ(agent.stats().firmwares_rejected, 1u);
}

TEST_F(AgentFixture, ExcessPayloadRejected) {
    UpdateAgent& agent = device_->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    DeviceToken full_token = *token;
    full_token.current_version = 0;
    auto response = fetch(full_token);
    ASSERT_EQ(agent.offer_manifest(response.manifest_bytes), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kOk);

    append(response.payload, Bytes(10, 0xEE));  // attacker pads the stream
    EXPECT_EQ(feed_payload(agent, response.payload), Status::kSizeExceeded);
    EXPECT_EQ(agent.state(), FsmState::kCleaning);
}

TEST_F(AgentFixture, CleaningInvalidatesTargetSlot) {
    UpdateAgent& agent = device_->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    DeviceToken full_token = *token;
    full_token.current_version = 0;
    auto response = fetch(full_token);
    response.payload.back() ^= 0x01;
    ASSERT_EQ(agent.offer_manifest(response.manifest_bytes), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kOk);
    ASSERT_EQ(feed_payload(agent, response.payload), Status::kBadDigest);

    // The slot's manifest sector was wiped: the bootloader can't parse it,
    // so a reboot must come back up on the old image.
    auto report = device_->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);
}

TEST_F(AgentFixture, RecoversAfterCleaningForNextAttempt) {
    UpdateAgent& agent = device_->agent();
    ASSERT_TRUE(agent.request_device_token().has_value());
    ASSERT_EQ(agent.offer_manifest(Bytes(manifest::kManifestSize, 0xAA)), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kBadManifest);

    // Second attempt, clean response: must succeed from kCleaning.
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    DeviceToken full_token = *token;
    full_token.current_version = 0;
    const auto response = fetch(full_token);
    ASSERT_EQ(agent.offer_manifest(response.manifest_bytes), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kOk);
    ASSERT_EQ(feed_payload(agent, response.payload), Status::kOk);
    EXPECT_TRUE(agent.update_ready());
}

}  // namespace
}  // namespace upkit::agent
