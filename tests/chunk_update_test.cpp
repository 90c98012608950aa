// End-to-end content-addressed (chunked) update tests: have/want
// negotiation, per-chunk install and re-request under chunk-targeted
// chaos, the all-chunks-local edge, legacy interop against chunked
// releases, and fleet-level accounting.
//
// The scenario behind all of them: the device chunks its installed image
// (diff/cdc) and advertises the digest prefixes in its token; the server
// replies with a chunk-table manifest and a payload holding only the
// missing chunks; the agent pulls local chunks from its own flash,
// verifies every chunk digest before a byte reaches the staging slot, and
// re-requests any air chunk that arrives corrupted instead of failing the
// session.
#include <gtest/gtest.h>

#include "core/fleet.hpp"
#include "diff/cdc.hpp"
#include "test_env.hpp"

namespace upkit::core {
namespace {

using testenv::kAppId;
using testenv::kDeviceId;
using testenv::TestEnv;

void publish_chunked(TestEnv& env, std::uint16_t version, const Bytes& firmware) {
    ASSERT_EQ(env.server.publish(env.vendor.create_release(
                  firmware, {.version = version, .app_id = kAppId, .chunked = true})),
              Status::kOk);
}

/// A factory-provisioned device that advertises its installed chunks.
std::unique_ptr<Device> make_chunked_device(TestEnv& env,
                                            SlotLayout layout = SlotLayout::kAB) {
    DeviceConfig config = env.device_config(layout);
    config.enable_chunked = true;
    auto device = std::make_unique<Device>(config);
    auto image = env.server.prepare_update(
        kAppId, {.device_id = kDeviceId, .nonce = 0, .current_version = 0});
    EXPECT_TRUE(image.has_value());
    EXPECT_EQ(device->provision_factory(*image), Status::kOk);
    return device;
}

TEST(ChunkUpdateTest, ChunkedUpdateMovesFewerBytesThanFullImage) {
    // Chunk-capable device against a chunked release...
    TestEnv env_chunked;
    auto device = make_chunked_device(env_chunked);
    const Bytes v2 = sim::mutate_app_change(env_chunked.base_firmware, 5, 1000);
    publish_chunked(env_chunked, 2, v2);

    UpdateSession session(*device, env_chunked.server, net::ble_gatt());
    const SessionReport chunked = session.run(kAppId);
    ASSERT_EQ(chunked.status, Status::kOk);
    EXPECT_TRUE(chunked.chunked);
    EXPECT_FALSE(chunked.differential);
    EXPECT_EQ(chunked.final_version, 2);
    EXPECT_EQ(chunked.chunk_retries, 0u);
    EXPECT_EQ(device->identity().installed_version, 2);

    // ...vs the same edit shipped as a whole image.
    TestEnv env_full;
    DeviceConfig config = env_full.device_config(SlotLayout::kAB);
    config.enable_differential = false;
    Device full_device(config);
    auto factory = env_full.server.prepare_update(
        kAppId, {.device_id = kDeviceId, .nonce = 0, .current_version = 0});
    ASSERT_TRUE(factory.has_value());
    ASSERT_EQ(full_device.provision_factory(*factory), Status::kOk);
    publish_chunked(env_full, 2, sim::mutate_app_change(env_full.base_firmware, 5, 1000));
    UpdateSession full_session(full_device, env_full.server, net::ble_gatt());
    const SessionReport full = full_session.run(kAppId);
    ASSERT_EQ(full.status, Status::kOk);
    EXPECT_FALSE(full.chunked);

    // The localized edit touched a handful of chunks; everything else came
    // from the device's own flash instead of the air.
    EXPECT_LT(chunked.bytes_over_air, full.bytes_over_air / 2);
    EXPECT_LT(chunked.phases.propagation_s, full.phases.propagation_s);
}

TEST(ChunkUpdateTest, SecondChunkedUpdateReadsChunkedHeaderFromFlash) {
    // After the first chunked install, the staged image carries a
    // variable-length native header (200 B core + chunk table, larger than
    // the 512 B probe region). The bootloader must verify it and the agent
    // must re-chunk the installed image from it for the next have-list.
    TestEnv env;
    auto device = make_chunked_device(env);
    const Bytes v2 = sim::mutate_app_change(env.base_firmware, 6, 800);
    publish_chunked(env, 2, v2);
    UpdateSession first(*device, env.server, net::ble_gatt());
    ASSERT_EQ(first.run(kAppId).status, Status::kOk);
    ASSERT_EQ(device->identity().installed_version, 2);

    const Bytes v3 = sim::mutate_app_change(v2, 9, 800);
    publish_chunked(env, 3, v3);
    UpdateSession second(*device, env.server, net::ble_gatt());
    const SessionReport report = second.run(kAppId);
    ASSERT_EQ(report.status, Status::kOk);
    EXPECT_TRUE(report.chunked);
    EXPECT_EQ(report.final_version, 3);
    EXPECT_EQ(device->identity().installed_version, 3);
    // v2 -> v3 dedups against the chunked v2 install: most bytes local.
    EXPECT_LT(report.bytes_over_air, v3.size() / 2);
}

TEST(ChunkUpdateTest, AllChunksLocalShipsNoPayload) {
    // Re-publishing the identical image under a higher version is the
    // degenerate best case: the device already holds every chunk, the
    // server ships a zero-byte payload, and the install is pure local
    // reassembly + verification.
    TestEnv env;
    auto device = make_chunked_device(env);
    publish_chunked(env, 2, env.base_firmware);

    UpdateSession session(*device, env.server, net::ble_gatt());
    const SessionReport report = session.run(kAppId);
    ASSERT_EQ(report.status, Status::kOk);
    EXPECT_TRUE(report.chunked);
    EXPECT_EQ(report.final_version, 2);
    EXPECT_EQ(device->identity().installed_version, 2);
    // Only token + manifest travelled; the whole image came from flash.
    EXPECT_LT(report.bytes_over_air, 8 * 1024u);

    const auto stats = env.server.stats();
    EXPECT_EQ(stats.chunks_served, 0u);
    EXPECT_EQ(stats.chunk_bytes_deduped, env.base_firmware.size());
}

TEST(ChunkUpdateTest, PoisonedChunksAreReRequestedNotFatal) {
    TestEnv env;
    auto device = make_chunked_device(env);
    publish_chunked(env, 2, sim::mutate_app_change(env.base_firmware, 7, 4000));

    sim::ChaosSpec spec;
    spec.seed = 71;
    spec.chunk_corrupt_fraction = 0.5;
    const sim::ChaosPlan plan = sim::ChaosPlan::generate(spec);

    UpdateSession session(*device, env.server, net::ble_gatt());
    session.transport().set_chaos({.plan = &plan});
    const SessionReport report = session.run(kAppId);
    ASSERT_EQ(report.status, Status::kOk);
    EXPECT_TRUE(report.chunked);
    EXPECT_GT(report.chunk_retries, 0u);  // corruption actually happened
    EXPECT_EQ(report.final_version, 2);
    EXPECT_EQ(device->identity().installed_version, 2);
}

TEST(ChunkUpdateTest, ChunkChaosReplaysByteIdentically) {
    // The corruption set is a pure function of (seed, device, chunk):
    // an identically-seeded rerun re-poisons the same chunks and lands on
    // identical retry and byte counts.
    const auto run_once = [](SessionReport& out) {
        TestEnv env;
        auto device = make_chunked_device(env);
        publish_chunked(env, 2, sim::mutate_app_change(env.base_firmware, 8, 4000));
        sim::ChaosSpec spec;
        spec.seed = 72;
        spec.chunk_corrupt_fraction = 0.5;
        const sim::ChaosPlan plan = sim::ChaosPlan::generate(spec);
        UpdateSession session(*device, env.server, net::ble_gatt());
        session.transport().set_chaos({.plan = &plan});
        out = session.run(kAppId);
    };

    SessionReport a, b;
    run_once(a);
    run_once(b);
    ASSERT_EQ(a.status, Status::kOk);
    EXPECT_GT(a.chunk_retries, 0u);
    EXPECT_EQ(a.chunk_retries, b.chunk_retries);
    EXPECT_EQ(a.bytes_over_air, b.bytes_over_air);
    EXPECT_DOUBLE_EQ(a.phases.propagation_s, b.phases.propagation_s);
}

TEST(ChunkUpdateTest, LegacyDeviceGetsLegacyResponseFromChunkedRelease) {
    // A chunked release serves non-chunk-capable devices through the
    // historical paths: the server strips the table (it sits outside the
    // vendor signature) and the manifest is the exact 200-byte legacy wire.
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);  // enable_chunked off
    publish_chunked(env, 2, sim::mutate_app_change(env.base_firmware, 5, 1000));

    UpdateSession session(*device, env.server, net::ble_gatt());
    const SessionReport report = session.run(kAppId);
    ASSERT_EQ(report.status, Status::kOk);
    EXPECT_FALSE(report.chunked);
    EXPECT_TRUE(report.differential);  // differential still wins for legacy
    EXPECT_EQ(report.final_version, 2);
    EXPECT_EQ(env.server.stats().chunked_responses, 0u);
}

TEST(ChunkUpdateTest, FleetCampaignAggregatesChunkCounters) {
    TestEnv env;
    constexpr std::size_t kFleet = 4;
    std::vector<std::unique_ptr<Device>> devices;
    FleetCampaign campaign(env.server);
    for (std::size_t i = 0; i < kFleet; ++i) {
        DeviceConfig config = env.device_config(SlotLayout::kAB);
        config.device_id = 0xC000 + static_cast<std::uint32_t>(i);
        config.seed = i + 1;
        config.enable_chunked = true;
        auto device = std::make_unique<Device>(config);
        auto factory = env.server.prepare_update(
            kAppId, {.device_id = config.device_id, .nonce = 0, .current_version = 0});
        ASSERT_TRUE(factory.has_value());
        ASSERT_EQ(device->provision_factory(*factory), Status::kOk);
        campaign.add(*device, net::ble_gatt());
        devices.push_back(std::move(device));
    }
    publish_chunked(env, 2, sim::mutate_app_change(env.base_firmware, 10, 2000));

    // Chunk chaos flows through the server model's plan, like all fleet
    // fault injection.
    sim::ChaosSpec spec;
    spec.seed = 73;
    spec.chunk_corrupt_fraction = 0.3;
    const sim::ChaosPlan plan = sim::ChaosPlan::generate(spec);
    server::ServerModel model;
    model.chaos = &plan;
    env.server.set_model(model);

    const CampaignReport report = campaign.run(kAppId);
    EXPECT_EQ(report.succeeded, kFleet);
    EXPECT_EQ(report.chunked_updates, kFleet);
    EXPECT_GT(report.chunk_retries, 0u);
    unsigned device_retries = 0;
    for (const CampaignDeviceResult& r : report.devices) {
        EXPECT_TRUE(r.chunked) << r.device_id;
        device_retries += r.chunk_retries;
    }
    EXPECT_EQ(device_retries, report.chunk_retries);
    // Dedup shows up server-side: every device skipped the chunks it held.
    EXPECT_GT(report.server_stats.chunk_bytes_deduped, 0u);
    EXPECT_EQ(report.server_stats.chunked_responses + report.server_stats.response_hits,
              report.server_stats.requests);
}

}  // namespace
}  // namespace upkit::core
