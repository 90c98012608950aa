// Rollout orchestration + failure containment tests:
//   1. Trial boot — a healthy image is confirmed, an unhealthy one is
//      auto-rolled-back by the bootloader (driver-led and driverless).
//   2. Session resilience — a mid-transfer server outage is survived via
//      token refresh + resumable offsets, without restarting the transfer.
//   3. Canary containment — a fleet-wide bad image trips the breaker with
//      only the canary exposed; every exposed device reports healthy on the
//      old version, everyone else is halted untouched.
//   4. Breaker pause/resume — a transient loss burst pauses the rollout,
//      which then drains to full success.
//   5. Determinism — the same chaos campaign replays byte-identically.
//   6. Energy — campaign verification cost is also reported in mAh.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "sim/chaos.hpp"
#include "sim/energy.hpp"
#include "sim/trace.hpp"
#include "test_env.hpp"
#include "verify/verifier.hpp"

namespace upkit::core {
namespace {

using testenv::kAppId;
using testenv::TestEnv;

// ------------------------------------------------------------ trial boot

TEST(TrialBootTest, HealthyImageIsConfirmedBySelfTest) {
    TestEnv env(8 * 1024);
    DeviceConfig config = env.device_config(SlotLayout::kAB);
    config.trial_boot = true;
    auto device = std::make_unique<Device>(config);
    const manifest::DeviceToken factory{
        .device_id = config.device_id, .nonce = 0, .current_version = 0};
    auto image = env.server.prepare_update(kAppId, factory);
    ASSERT_TRUE(image.has_value());
    ASSERT_EQ(device->provision_factory(*image), Status::kOk);

    env.publish_os_update(2, 7);
    UpdateSession session(*device, env.server, net::ble_gatt());
    const SessionReport report = session.run(kAppId);

    EXPECT_EQ(report.status, Status::kOk);
    EXPECT_TRUE(report.trial_boot);
    EXPECT_TRUE(report.confirmed);
    EXPECT_FALSE(report.rolled_back);
    EXPECT_EQ(report.final_version, 2);
    EXPECT_EQ(device->bootloader().confirmed_version(), 2);
    EXPECT_EQ(device->bootloader().trial_state(), agent::TrialState::kConfirmed);
}

TEST(TrialBootTest, FailedSelfTestRollsBackToOldVersion) {
    TestEnv env(8 * 1024);
    DeviceConfig config = env.device_config(SlotLayout::kAB);
    config.trial_boot = true;
    auto device = std::make_unique<Device>(config);
    const manifest::DeviceToken factory{
        .device_id = config.device_id, .nonce = 0, .current_version = 0};
    auto image = env.server.prepare_update(kAppId, factory);
    ASSERT_TRUE(image.has_value());
    ASSERT_EQ(device->provision_factory(*image), Status::kOk);

    // The new image boots but fails its post-install self-test.
    device->set_health_hook([](std::uint16_t) { return false; });

    env.publish_os_update(2, 7);
    UpdateSession session(*device, env.server, net::ble_gatt());
    const SessionReport report = session.run(kAppId);

    EXPECT_EQ(report.status, Status::kSelfTestFailed);
    EXPECT_TRUE(report.trial_boot);
    EXPECT_FALSE(report.confirmed);
    EXPECT_TRUE(report.rolled_back);
    // Back on the old version and healthy: the rollback is itself a boot
    // of the (already confirmed) old image.
    EXPECT_EQ(report.final_version, 1);
    EXPECT_EQ(device->identity().installed_version, 1);
    EXPECT_EQ(device->bootloader().confirmed_version(), 1);

    // The bad slot was invalidated: another reboot stays on the old image.
    auto boot = device->reboot();
    ASSERT_TRUE(boot.has_value());
    EXPECT_EQ(boot->booted.version, 1);
    EXPECT_FALSE(boot->trial_boot);
}

// A device builds each boot's agent on first use, from what that boot left:
// a health hook set after the boot reaches only the next boot's agent,
// whether or not this boot's agent was built before the hook was set.
TEST(TrialBootTest, HealthHookWaitsForTheNextBootEvenBeforeTheAgentIsBuilt) {
    TestEnv env(8 * 1024);
    auto device = env.make_device();
    device->set_health_hook([](std::uint16_t) { return false; });
    EXPECT_TRUE(device->agent().run_self_test(1));
    ASSERT_TRUE(device->reboot().has_value());
    EXPECT_FALSE(device->agent().run_self_test(1));
}

// A failed reboot keeps the running agent, so the nonces it draws come from
// the last successful boot's stream, whether the agent was built before
// the failed reboot or first asked for after it.
TEST(TrialBootTest, FailedRebootKeepsTheRunningAgentsNonceStream) {
    TestEnv env(8 * 1024);
    std::uint32_t nonces[2] = {};
    for (const bool built_first : {true, false}) {
        auto device = env.make_device();
        if (built_first) (void)device->agent();
        const slots::SlotConfig* slot = device->slots().slot(0);
        ASSERT_EQ(device->internal_flash().erase_range(slot->offset, slot->size),
                  Status::kOk);
        ASSERT_FALSE(device->reboot().has_value());  // nothing left to boot
        const auto token = device->agent().request_device_token();
        ASSERT_TRUE(token.has_value());
        nonces[built_first ? 0 : 1] = token->nonce;
    }
    EXPECT_EQ(nonces[0], nonces[1]);
}

// The bootloader alone enforces the confirm window: if the device never
// runs a self-test (crashed agent, wedged app), the next boot reverts.
TEST(TrialBootTest, UnconfirmedTrialRevertsOnNextBootWithoutDriver) {
    TestEnv env(8 * 1024);
    DeviceConfig config = env.device_config(SlotLayout::kAB);
    config.trial_boot = true;
    auto device = std::make_unique<Device>(config);
    const manifest::DeviceToken factory{
        .device_id = config.device_id, .nonce = 0, .current_version = 0};
    auto image = env.server.prepare_update(kAppId, factory);
    ASSERT_TRUE(image.has_value());
    ASSERT_EQ(device->provision_factory(*image), Status::kOk);

    // Stage version 2 straight into the other bootable slot (what a
    // completed transfer would have left there).
    env.publish_os_update(2, 7);
    // current_version = 0 forces a full image (a differential patch would
    // not boot-verify as a raw slot image).
    auto v2 = env.server.prepare_update(
        kAppId,
        {.device_id = config.device_id, .nonce = 1, .current_version = 0});
    ASSERT_TRUE(v2.has_value());
    Bytes blob = v2->manifest_bytes;
    const std::size_t header = verify::header_size(blob);
    ASSERT_LE(blob.size(), header);
    blob.resize(header, 0x00);
    append(blob, v2->payload);
    const slots::SlotConfig* slot = device->slots().slot(1);
    ASSERT_EQ(slot->device->erase_range(slot->offset, slot->size), Status::kOk);
    ASSERT_EQ(slot->device->write(slot->offset, blob), Status::kOk);

    // Boot 1: the unconfirmed version 2 wins and arms a trial.
    auto boot = device->reboot();
    ASSERT_TRUE(boot.has_value());
    EXPECT_EQ(boot->booted.version, 2);
    EXPECT_TRUE(boot->trial_boot);
    EXPECT_EQ(device->bootloader().trial_state(), agent::TrialState::kArmed);

    // A confirm after the window has expired is refused.
    device->clock().advance(boot::kConfirmWindowSeconds + 1.0);
    EXPECT_EQ(device->bootloader().confirm_boot(), Status::kTimeout);

    // Boot 2: armed-and-never-confirmed means revert.
    boot = device->reboot();
    ASSERT_TRUE(boot.has_value());
    EXPECT_TRUE(boot->rolled_back);
    EXPECT_EQ(boot->booted.version, 1);
    EXPECT_EQ(device->identity().installed_version, 1);

    // Boot 3: the invalidated slot stays dead; version 1 is stable.
    boot = device->reboot();
    ASSERT_TRUE(boot.has_value());
    EXPECT_EQ(boot->booted.version, 1);
    EXPECT_FALSE(boot->trial_boot);
    EXPECT_FALSE(boot->rolled_back);

    // confirm_boot with nothing armed is a precondition failure.
    EXPECT_EQ(device->bootloader().confirm_boot(), Status::kFailedPrecondition);
}

// ---------------------------------------------------------- fleet helper

struct ChaosWorld {
    TestEnv env;
    std::vector<std::unique_ptr<Device>> devices;
    FleetCampaign campaign{env.server};

    explicit ChaosWorld(std::size_t firmware_bytes = 8 * 1024)
        : env(firmware_bytes) {}

    void add_devices(std::size_t count, std::uint32_t base_id,
                     const net::LinkParams& link, bool trial_boot,
                     double loss = 0.0) {
        for (std::size_t i = 0; i < count; ++i) {
            DeviceConfig config = env.device_config(
                i % 2 == 0 ? SlotLayout::kAB : SlotLayout::kStaticInternal);
            config.device_id = base_id + static_cast<std::uint32_t>(i);
            config.seed = static_cast<std::uint64_t>(i) + 1;
            config.enable_differential = false;
            config.trial_boot = trial_boot;
            auto device = std::make_unique<Device>(config);
            auto factory = env.server.prepare_update(
                kAppId,
                {.device_id = config.device_id, .nonce = 0, .current_version = 0});
            ASSERT_TRUE(factory.has_value());
            ASSERT_EQ(device->provision_factory(*factory), Status::kOk);
            net::LinkParams l = link;
            l.loss_probability = loss;
            campaign.add(*device, l);
            devices.push_back(std::move(device));
        }
    }
};

// ------------------------------------------------------- outage resume

TEST(RolloutResilienceTest, OutageSpanningSessionResumesWithoutRestart) {
    ChaosWorld world(48 * 1024);  // ~22 s BLE transfer spans the outage
    world.add_devices(2, 0x7000, net::ble_gatt(), /*trial_boot=*/false);
    world.env.publish_os_update(2, 77);

    sim::ChaosPlan plan;
    plan.add_outage(6.0, 18.0);
    server::ServerModel model{.concurrency = 4, .service_time_s = 0.05};
    model.chaos = &plan;
    world.env.server.set_model(model);

    FleetPolicy policy;
    policy.transport_resumes = 4;
    policy.reconnect_backoff_s = 2.0;
    const CampaignReport report = world.campaign.run(kAppId, policy);

    EXPECT_EQ(report.succeeded, 2u);
    EXPECT_EQ(report.failed, 0u);
    unsigned refreshes = 0, resumes = 0;
    for (const CampaignDeviceResult& d : report.devices) {
        EXPECT_EQ(d.status, Status::kOk);
        EXPECT_EQ(d.final_version, 2);
        refreshes += d.token_refreshes;
        resumes += d.transport_resumes;
        // Resumed, not restarted: well under two payloads over the air.
        EXPECT_LT(d.bytes_over_air, 48 * 1024 * 3 / 2);
    }
    EXPECT_GT(refreshes, 0u);
    EXPECT_GT(resumes, 0u);
    // The campaign had to wait the outage window out.
    EXPECT_GT(report.makespan_s, 18.0);
}

// -------------------------------------------------- canary containment

FleetPolicy containment_policy() {
    FleetPolicy policy;
    policy.canary_size = 6;
    policy.wave_size = 18;
    policy.wave_stagger_s = 5.0;
    policy.promote_success_rate = 0.9;
    policy.breaker_failure_rate = 0.5;
    policy.breaker_min_failures = 3;
    policy.breaker_abort = true;
    policy.transport_resumes = 2;
    return policy;
}

void run_containment_campaign(std::string* trace, CampaignReport* out,
                              ChaosWorld* world) {
    world->add_devices(60, 0x7100, net::ble_gatt(), /*trial_boot=*/true);
    world->env.publish_os_update(2, 99);

    sim::ChaosPlan plan;
    plan.mark_bad_version(2);           // fleet-wide bad image
    plan.add_loss_burst(0.0, 600.0, 0.10);
    plan.add_outage(120.0, 180.0);      // mid-campaign outage
    server::ServerModel model{.concurrency = 8, .service_time_s = 0.02};
    model.chaos = &plan;
    world->env.server.set_model(model);

    sim::Tracer tracer;
    sim::JsonlSink jsonl(*trace);
    tracer.add_sink(jsonl);
    world->campaign.set_tracer(&tracer);
    *out = world->campaign.run(kAppId, containment_policy());
}

TEST(RolloutResilienceTest, BadImageIsContainedToTheCanary) {
    std::string trace;
    CampaignReport report;
    ChaosWorld world;
    run_containment_campaign(&trace, &report, &world);

    // Containment: at most canary + one wave ever exposed; here the gate
    // fails at the canary, so nothing beyond it was released.
    EXPECT_GT(report.exposed_devices, 0u);
    EXPECT_LE(report.exposed_devices, 6u + 18u);
    EXPECT_EQ(report.exposed_devices + report.halted_devices, 60u);
    EXPECT_EQ(report.succeeded, 0u);
    EXPECT_EQ(report.rolled_back_devices, report.exposed_devices);

    ASSERT_GE(report.breaker_trips.size(), 1u);
    EXPECT_TRUE(report.breaker_trips.back().aborted);
    EXPECT_GT(report.breaker_trips.front().t, 0.0);

    ASSERT_GE(report.waves.size(), 1u);
    EXPECT_EQ(report.waves[0].released, report.exposed_devices);
    EXPECT_EQ(report.waves[0].rolled_back, report.exposed_devices);

    for (const CampaignDeviceResult& d : report.devices) {
        if (d.status == Status::kCampaignHalted) {
            EXPECT_EQ(d.attempts, 0u);
        } else {
            // Every exposed device auto-rolled-back and runs the old
            // version again.
            EXPECT_EQ(d.status, Status::kSelfTestFailed);
            EXPECT_TRUE(d.rolled_back);
            EXPECT_EQ(d.final_version, 1);
        }
    }
    // The fleet itself is healthy on version 1 everywhere.
    for (const auto& device : world.devices) {
        EXPECT_EQ(device->identity().installed_version, 1);
    }
}

TEST(RolloutResilienceTest, ChaosCampaignReplaysByteIdentically) {
    std::string trace_a, trace_b;
    CampaignReport report_a, report_b;
    {
        ChaosWorld world;
        run_containment_campaign(&trace_a, &report_a, &world);
    }
    {
        ChaosWorld world;
        run_containment_campaign(&trace_b, &report_b, &world);
    }
    EXPECT_FALSE(trace_a.empty());
    EXPECT_EQ(trace_a, trace_b);  // byte-identical JSONL
    EXPECT_EQ(report_a.exposed_devices, report_b.exposed_devices);
    EXPECT_EQ(report_a.halted_devices, report_b.halted_devices);
    EXPECT_EQ(report_a.events_processed, report_b.events_processed);
    ASSERT_EQ(report_a.breaker_trips.size(), report_b.breaker_trips.size());
    for (std::size_t i = 0; i < report_a.breaker_trips.size(); ++i) {
        EXPECT_DOUBLE_EQ(report_a.breaker_trips[i].t, report_b.breaker_trips[i].t);
    }
    EXPECT_DOUBLE_EQ(report_a.makespan_s, report_b.makespan_s);
}

// ------------------------------------------- containment on multi-edge

TEST(RolloutResilienceTest, BadImageContainmentHoldsOnMultiEdgeTopology) {
    // Same bad-image canary campaign as above, but rolled out through 3
    // regional edges. The breaker's failure window is per-campaign, not
    // per-region: canary failures spread across regions must still trip
    // one campaign-wide gate, and containment must hold fleet-wide.
    ChaosWorld world;
    world.add_devices(60, 0x7500, net::ble_gatt(), /*trial_boot=*/true);
    world.env.publish_os_update(2, 99);

    sim::ChaosPlan plan;
    plan.mark_bad_version(2);
    server::ServerModel model{.concurrency = 8, .service_time_s = 0.02};
    model.chaos = &plan;
    world.env.server.set_model(model);
    world.campaign.set_edges(
        {.edges = 3, .model = {.concurrency = 4, .service_time_s = 0.01}});

    const CampaignReport report = world.campaign.run(kAppId, containment_policy());

    EXPECT_GT(report.exposed_devices, 0u);
    EXPECT_LE(report.exposed_devices, 6u + 18u);
    EXPECT_EQ(report.exposed_devices + report.halted_devices, 60u);
    EXPECT_EQ(report.succeeded, 0u);
    EXPECT_EQ(report.rolled_back_devices, report.exposed_devices);
    ASSERT_GE(report.breaker_trips.size(), 1u);
    EXPECT_TRUE(report.breaker_trips.back().aborted);

    // The canary's requests were served through its members' home regions.
    ASSERT_EQ(report.edges.size(), 3u);
    std::uint64_t edge_requests = 0;
    for (const EdgeReport& e : report.edges) {
        edge_requests += e.queue.requests;
        EXPECT_EQ(e.fallbacks, 0u);  // no regional outages in this plan
    }
    EXPECT_EQ(edge_requests, report.server.requests);

    // Fleet healthy on v1 everywhere — the edges cached a bad payload, but
    // trial boot still rolled every exposed device back.
    for (const auto& device : world.devices) {
        EXPECT_EQ(device->identity().installed_version, 1);
    }
}

TEST(RolloutResilienceTest, RegionalOutageDoesNotTripTheCampaignBreaker) {
    // A regional outage rejects that region's requests (kUnavailable),
    // but with origin fallback those requests never become failed
    // attempts — the breaker must stay quiet and the campaign completes.
    ChaosWorld world;
    world.add_devices(24, 0x7600, net::ble_gatt(), /*trial_boot=*/false);
    world.env.publish_os_update(2, 56);

    sim::ChaosPlan plan;
    plan.add_region_outage(1, 0.0, 10000.0);  // region 1 down throughout
    server::ServerModel model{.concurrency = 8, .service_time_s = 0.02};
    model.chaos = &plan;
    world.env.server.set_model(model);
    world.campaign.set_edges({.edges = 2,
                              .model = {.concurrency = 4, .service_time_s = 0.01},
                              .origin_fallback = true});

    FleetPolicy policy;
    policy.canary_size = 4;
    policy.wave_size = 10;
    policy.wave_stagger_s = 2.0;
    policy.promote_success_rate = 0.9;
    policy.breaker_failure_rate = 0.5;
    policy.breaker_min_failures = 3;
    const CampaignReport report = world.campaign.run(kAppId, policy);

    EXPECT_EQ(report.succeeded, 24u);
    EXPECT_EQ(report.halted_devices, 0u);
    EXPECT_TRUE(report.breaker_trips.empty());
    ASSERT_EQ(report.edges.size(), 2u);
    EXPECT_EQ(report.edges[1].queue.requests, 0u);   // down all campaign
    EXPECT_EQ(report.edges[1].fallbacks, 12u);       // every request rerouted
    EXPECT_EQ(report.edges[0].fallbacks, 0u);
}

// ------------------------------------------------- breaker pause/resume

TEST(RolloutResilienceTest, TransientBurstPausesThenDrainsToSuccess) {
    ChaosWorld world;
    world.add_devices(8, 0x7200, net::ble_gatt(), /*trial_boot=*/false);
    world.env.publish_os_update(2, 55);

    sim::ChaosPlan plan;
    plan.add_loss_burst(0.0, 30.0, 0.9);  // transient interference burst
    server::ServerModel model{.concurrency = 8, .service_time_s = 0.02};
    model.chaos = &plan;
    world.env.server.set_model(model);

    FleetPolicy policy;
    policy.max_attempts = 10;
    policy.initial_backoff_s = 1.0;
    policy.backoff_factor = 1.5;
    policy.max_backoff_s = 8.0;
    policy.transport_max_retries = 3;
    policy.breaker_failure_rate = 0.5;
    policy.breaker_min_failures = 3;
    policy.breaker_abort = false;       // pause, don't abort
    policy.breaker_pause_s = 40.0;      // outlives the burst
    policy.breaker_max_trips = 10;
    const CampaignReport report = world.campaign.run(kAppId, policy);

    EXPECT_EQ(report.succeeded, 8u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.halted_devices, 0u);
    ASSERT_GE(report.breaker_trips.size(), 1u);
    EXPECT_FALSE(report.breaker_trips.front().aborted);
}

// --------------------------------------- transport resumes (no chaos)

TEST(RolloutResilienceTest, FleetTransportResumesSurviveLossyLinks) {
    ChaosWorld world(48 * 1024);
    world.add_devices(4, 0x7300, net::ble_gatt(), /*trial_boot=*/false,
                      /*loss=*/0.25);
    world.env.publish_os_update(2, 33);

    FleetPolicy policy;
    policy.max_attempts = 5;
    policy.transport_max_retries = 2;  // timeouts happen...
    policy.transport_resumes = 8;      // ...and resume instead of failing
    const CampaignReport report = world.campaign.run(kAppId, policy);

    EXPECT_EQ(report.succeeded, 4u);
    unsigned resumes = 0;
    for (const CampaignDeviceResult& d : report.devices) {
        resumes += d.transport_resumes;
    }
    EXPECT_GT(resumes, 0u);
}

// -------------------------------------------------- promotion (healthy)

TEST(RolloutResilienceTest, HealthyCampaignPromotesThroughAllWaves) {
    ChaosWorld world;
    world.add_devices(10, 0x7400, net::ble_gatt(), /*trial_boot=*/true);
    world.env.publish_os_update(2, 44);

    FleetPolicy policy;
    policy.canary_size = 2;
    policy.wave_size = 4;
    policy.wave_stagger_s = 3.0;
    policy.promote_success_rate = 0.9;
    policy.breaker_failure_rate = 0.5;
    const CampaignReport report = world.campaign.run(kAppId, policy);

    EXPECT_EQ(report.succeeded, 10u);
    EXPECT_EQ(report.halted_devices, 0u);
    EXPECT_EQ(report.exposed_devices, 10u);
    EXPECT_EQ(report.confirmed_devices, 10u);
    EXPECT_TRUE(report.breaker_trips.empty());
    ASSERT_EQ(report.waves.size(), 3u);
    EXPECT_EQ(report.waves[0].released, 2u);
    EXPECT_EQ(report.waves[1].released, 4u);
    EXPECT_EQ(report.waves[2].released, 4u);
    for (const WaveStats& w : report.waves) {
        EXPECT_EQ(w.succeeded, w.released);
    }
    // Each wave releases only after the previous one completed + stagger.
    EXPECT_GE(report.waves[1].release_s, report.waves[0].complete_s + 3.0);
    EXPECT_GE(report.waves[2].release_s, report.waves[1].complete_s + 3.0);
}

// ------------------------------------------------------- energy (mAh)

TEST(RolloutResilienceTest, CampaignReportsVerificationBatteryCost) {
    ChaosWorld world;
    world.add_devices(2, 0x7500, net::ble_gatt(), /*trial_boot=*/false);
    world.env.publish_os_update(2, 66);
    const CampaignReport report = world.campaign.run(kAppId, {});

    EXPECT_EQ(report.succeeded, 2u);
    EXPECT_GT(report.verification_s, 0.0);
    EXPECT_GT(report.verification_mah, 0.0);
    double sum = 0.0;
    for (std::size_t i = 0; i < report.devices.size(); ++i) {
        const CampaignDeviceResult& d = report.devices[i];
        EXPECT_GT(d.verification_mah, 0.0);
        // tinycrypt is pure software: the draw is the platform's active CPU
        // current, no HSM supply current.
        const double expected = sim::milliamp_hours(
            d.verification_s,
            world.devices[i]->config().platform->cpu_active_ma);
        EXPECT_NEAR(d.verification_mah, expected, 1e-12);
        sum += d.verification_mah;
    }
    EXPECT_NEAR(report.verification_mah, sum, 1e-12);
}

}  // namespace
}  // namespace upkit::core
