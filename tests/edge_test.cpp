// Edge-case and regression tests across modules: boundary values in the
// bignum/Montgomery layers, verifier check ordering, session error paths,
// transport degenerate inputs, and cross-format storage corner cases.
#include <gtest/gtest.h>

#include "crypto/modular.hpp"
#include "crypto/p256.hpp"
#include "suit/suit.hpp"
#include "test_env.hpp"

namespace upkit {
namespace {

using core::Device;
using core::SlotLayout;
using core::UpdateSession;
using testenv::kAppId;
using testenv::TestEnv;

// ------------------------------------------------------- bignum boundaries

TEST(EdgeBignum, ValuesAdjacentToModulus) {
    const crypto::Montgomery& fp = crypto::P256::instance().field();
    const crypto::U256& p = fp.modulus();
    crypto::U256 p_minus_1;
    crypto::sub(p_minus_1, p, crypto::U256::one());

    // (p-1) + 1 == 0 (mod p)
    EXPECT_TRUE(fp.add(p_minus_1, crypto::U256::one()).is_zero());
    // 0 - 1 == p-1 (mod p)
    EXPECT_EQ(fp.sub(crypto::U256::zero(), crypto::U256::one()), p_minus_1);
    // (p-1)^2 == 1 (mod p)
    const crypto::U256 m = fp.to_mont(p_minus_1);
    EXPECT_EQ(fp.from_mont(fp.sqr(m)), crypto::U256::one());
    // inverse of p-1 is itself (it is -1)
    EXPECT_EQ(fp.from_mont(fp.inv(m)), p_minus_1);
}

TEST(EdgeBignum, ReduceAtModulusBoundary) {
    const crypto::Montgomery& fn = crypto::P256::instance().order();
    const crypto::U256& n = fn.modulus();
    EXPECT_TRUE(fn.reduce(n).is_zero());
    crypto::U256 n_plus_1;
    crypto::add(n_plus_1, n, crypto::U256::one());
    EXPECT_EQ(fn.reduce(n_plus_1), crypto::U256::one());
    crypto::U256 n_minus_1;
    crypto::sub(n_minus_1, n, crypto::U256::one());
    EXPECT_EQ(fn.reduce(n_minus_1), n_minus_1);
}

TEST(EdgeBignum, ScalarAtGroupOrderBoundary) {
    const crypto::P256& curve = crypto::P256::instance();
    crypto::U256 n_minus_1;
    crypto::sub(n_minus_1, curve.n(), crypto::U256::one());
    // (n-1)*G = -G: same x, mirrored y.
    const auto p = curve.mul_base(n_minus_1);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->x, curve.generator().x);
    EXPECT_FALSE(p->y == curve.generator().y);
    EXPECT_TRUE(curve.on_curve(*p));
}

// ------------------------------------------------------- verifier ordering

TEST(EdgeVerifier, CheapChecksRunBeforeSignatures) {
    // A manifest failing BOTH a field check and carrying garbage signatures
    // must be rejected on the field — signatures cost two ECDSA operations
    // and the early checks exist to avoid them.
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.publish_os_update(2, 80);
    agent::UpdateAgent& agent = device->agent();
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    auto response = env.server.prepare_update(kAppId, *token);
    ASSERT_TRUE(response.has_value());

    response->manifest.device_id ^= 1;                 // field violation
    response->manifest.vendor_signature[0] ^= 1;       // also bad signature
    response->manifest_bytes = manifest::serialize(response->manifest);
    const double cpu_before = device->meter().seconds(sim::Component::kCpu);
    ASSERT_EQ(agent.offer_manifest(response->manifest_bytes), Status::kOk);
    EXPECT_EQ(agent.end_manifest(), Status::kBadDeviceId);
    // No signature time charged beyond what the field checks cost (the
    // charge happens before the call, so assert only the verdict here and
    // that the FSM cleaned up).
    EXPECT_EQ(agent.state(), agent::FsmState::kCleaning);
    (void)cpu_before;
}

// ------------------------------------------------------- session errors

TEST(EdgeSession, UnknownAppIdFailsCleanly) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    UpdateSession session(*device, env.server, net::ble_gatt());
    const core::SessionReport report = session.run(0xBAD);
    EXPECT_EQ(report.status, Status::kNotFound);
    EXPECT_FALSE(report.rebooted);
    // Device fully functional afterwards.
    env.publish_os_update(2, 81);
    UpdateSession retry(*device, env.server, net::ble_gatt());
    EXPECT_EQ(retry.run(kAppId).status, Status::kOk);
}

TEST(EdgeSession, BackToBackSessionsReuseDevice) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    for (int i = 0; i < 3; ++i) {
        // No new version: every session is an early stale rejection, and
        // none of them may leak state into the next.
        UpdateSession session(*device, env.server, net::ble_gatt());
        EXPECT_EQ(session.run(kAppId).status, Status::kStaleVersion);
    }
    env.publish_os_update(2, 82);
    UpdateSession session(*device, env.server, net::ble_gatt());
    EXPECT_EQ(session.run(kAppId).status, Status::kOk);
}

// ------------------------------------------------------- transport edges

TEST(EdgeTransport, EmptyTransfersAreFree) {
    sim::VirtualClock clock;
    net::Transport transport(net::ble_gatt(), clock, nullptr);
    BytesSink sink;
    EXPECT_EQ(transport.to_device({}, sink), Status::kOk);
    EXPECT_EQ(transport.from_device({}), Status::kOk);
    EXPECT_EQ(clock.now(), 0.0);
    EXPECT_TRUE(sink.bytes().empty());
}

TEST(EdgeTransport, SingleByteTransfer) {
    sim::VirtualClock clock;
    net::Transport transport(net::coap_6lowpan(), clock, nullptr);
    BytesSink sink;
    const Bytes one = {0x42};
    ASSERT_EQ(transport.to_device(one, sink), Status::kOk);
    EXPECT_EQ(sink.bytes(), one);
    EXPECT_GT(clock.now(), net::coap_6lowpan().per_chunk_overhead_s);
}

// ------------------------------------------------------- storage formats

TEST(EdgeStorage, ErasedSlotYieldsNoBootCandidate) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    // Erase the only valid image: nothing left to boot.
    ASSERT_EQ(device->slots().erase(0), Status::kOk);
    ASSERT_EQ(device->slots().erase(1), Status::kOk);
    EXPECT_EQ(device->reboot().status(), Status::kNotFound);
}

TEST(EdgeStorage, BothSlotsSameVersionBootsBootablePreferred) {
    // After an A/B update chain, both slots can hold valid images; equal
    // versions must not confuse slot selection (stable sort keeps bootable
    // scan order).
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    slots::SlotManager& manager = device->slots();
    {  // clone v1 into B
        Bytes image(manager.slot(0)->size);
        auto a = manager.open(0, slots::OpenMode::kReadOnly);
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(a->read(MutByteSpan(image)).has_value());
        auto b = manager.open(1, slots::OpenMode::kWriteAll);
        ASSERT_TRUE(b.has_value());
        ASSERT_EQ(b->write(image), Status::kOk);
    }
    auto report = device->reboot();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->booted.version, 1);
    EXPECT_EQ(report->booted_slot, 0u);  // first bootable slot wins ties
}

TEST(EdgeStorage, SuitHeaderRegionFitsWorstCaseEnvelope) {
    // An envelope with maximal integer field values must still fit the
    // fixed header region with room to spare.
    manifest::Manifest m;
    m.device_id = 0xFFFFFFFF;
    m.nonce = 0xFFFFFFFF;
    m.old_version = 0xFFFF;
    m.version = 0xFFFF;
    m.firmware_size = 0xFFFFFFFF;
    m.digest.fill(0xFF);
    m.link_offset = 0xFFFFFFFF;
    m.app_id = 0xFFFFFFFF;
    m.payload_size = 0xFFFFFFFF;
    m.differential = true;
    m.encrypted = true;
    const crypto::PrivateKey k1 = crypto::PrivateKey::generate(to_bytes("a"));
    const crypto::PrivateKey k2 = crypto::PrivateKey::generate(to_bytes("b"));
    const suit::Envelope envelope = suit::from_manifest(m, k1, k2);
    EXPECT_LT(envelope.encode().size(), suit::kSuitHeaderRegion);
}

// ------------------------------------------------------- agent stats

TEST(EdgeAgent, StatsAccumulateAcrossAttempts) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.publish_os_update(2, 83);
    agent::UpdateAgent& agent = device->agent();

    // Two bad manifests, then a good update.
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(agent.request_device_token().has_value());
        ASSERT_EQ(agent.offer_manifest(Bytes(manifest::kManifestSize, 0x11)), Status::kOk);
        ASSERT_NE(agent.end_manifest(), Status::kOk);
    }
    auto token = agent.request_device_token();
    ASSERT_TRUE(token.has_value());
    auto response = env.server.prepare_update(kAppId, *token);
    ASSERT_EQ(agent.offer_manifest(response->manifest_bytes), Status::kOk);
    ASSERT_EQ(agent.end_manifest(), Status::kOk);
    for (std::size_t off = 0; off < response->payload.size(); off += 4096) {
        const std::size_t len = std::min<std::size_t>(4096, response->payload.size() - off);
        ASSERT_EQ(agent.offer_payload(ByteSpan(response->payload).subspan(off, len)),
                  Status::kOk);
    }
    EXPECT_EQ(agent.stats().tokens_issued, 3u);
    EXPECT_EQ(agent.stats().manifests_rejected, 2u);
    EXPECT_EQ(agent.stats().updates_staged, 1u);
    EXPECT_EQ(agent.stats().payload_bytes_received, response->payload.size());
}

}  // namespace
}  // namespace upkit
