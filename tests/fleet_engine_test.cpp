// Discrete-event fleet engine tests:
//   1. Scheduler — (timestamp, FIFO) ordering, budgets, device clock views.
//   2. FSM transition table — the Fig. 4 pipeline is the only legal path.
//   3. Determinism — the same campaign in two fresh worlds produces a
//      byte-identical JSONL trace and an identical report.
//   4. Interleaving — sessions overlap on the shared timeline; a saturated
//      server queue stretches the makespan beyond any single device.
//   5. Scale — a 1,000-device campaign completes under a sane event budget
//      with zero stuck sessions; a retry storm drains through backoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "agent/fsm.hpp"
#include "core/fleet.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "test_env.hpp"

namespace upkit::core {
namespace {

using agent::FsmState;
using testenv::kAppId;
using testenv::TestEnv;

// ----------------------------------------------------------- scheduler

TEST(EventSchedulerTest, RunsByTimestampThenInsertionOrder) {
    sim::EventScheduler sched;
    std::vector<int> order;
    sched.schedule_at(5.0, [&] { order.push_back(3); });
    sched.schedule_at(1.0, [&] { order.push_back(1); });
    sched.schedule_at(5.0, [&] { order.push_back(4); });  // ties are FIFO
    sched.schedule_at(2.0, [&] { order.push_back(2); });
    EXPECT_EQ(sched.run(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_DOUBLE_EQ(sched.now(), 5.0);
    EXPECT_TRUE(sched.empty());
}

TEST(EventSchedulerTest, EventsMayScheduleMoreEvents) {
    sim::EventScheduler sched;
    std::vector<double> fired;
    sched.schedule_at(1.0, [&] {
        fired.push_back(sched.now());
        sched.schedule_in(2.0, [&] { fired.push_back(sched.now()); });
    });
    sched.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_DOUBLE_EQ(fired[0], 1.0);
    EXPECT_DOUBLE_EQ(fired[1], 3.0);
    EXPECT_EQ(sched.events_processed(), 2u);
}

TEST(EventSchedulerTest, BudgetStopsTheRunWithEventsPending) {
    sim::EventScheduler sched;
    int fired = 0;
    for (int i = 0; i < 10; ++i) sched.schedule_at(i, [&] { ++fired; });
    EXPECT_EQ(sched.run(3), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_FALSE(sched.empty());
    EXPECT_EQ(sched.pending(), 7u);
    EXPECT_EQ(sched.run(), 7u);  // resumable after a budget stop
    EXPECT_EQ(fired, 10);
}

TEST(DeviceClockViewTest, MapsDeviceTimeOntoCampaignTime) {
    sim::VirtualClock clock;
    clock.advance(100.0);  // provisioning already consumed device time
    sim::DeviceClockView view(clock, 10.0);  // device t=100 is campaign t=10

    EXPECT_DOUBLE_EQ(view.campaign_now(), 10.0);
    view.sync_to(25.0);  // idle through a 15 s campaign wait
    EXPECT_DOUBLE_EQ(clock.now(), 115.0);
    EXPECT_DOUBLE_EQ(view.campaign_now(), 25.0);

    clock.advance(5.0);  // device-side work outruns the next wait...
    view.sync_to(27.0);  // ...so syncing to an earlier instant is a no-op
    EXPECT_DOUBLE_EQ(clock.now(), 120.0);
    EXPECT_DOUBLE_EQ(view.campaign_now(), 30.0);
}

// ----------------------------------------------------------- FSM table

TEST(FsmTableTest, ForwardPathIsAStrictPipeline) {
    const FsmState pipeline[] = {
        FsmState::kWaiting,        FsmState::kStartUpdate,
        FsmState::kReceiveManifest, FsmState::kVerifyManifest,
        FsmState::kReceiveFirmware, FsmState::kVerifyFirmware,
        FsmState::kReadyToReboot,
    };
    const std::size_t n = std::size(pipeline);
    for (std::size_t from = 0; from < n; ++from) {
        for (std::size_t to = 0; to < n; ++to) {
            const bool legal = (to == from + 1);  // only the next stage
            EXPECT_EQ(agent::transition_allowed(pipeline[from], pipeline[to]), legal)
                << to_string(pipeline[from]) << " -> " << to_string(pipeline[to]);
        }
    }
}

TEST(FsmTableTest, AbortToCleaningIsLegalEverywhereAndCleaningRecovers) {
    const FsmState all[] = {
        FsmState::kWaiting,         FsmState::kStartUpdate,
        FsmState::kReceiveManifest, FsmState::kVerifyManifest,
        FsmState::kReceiveFirmware, FsmState::kVerifyFirmware,
        FsmState::kReadyToReboot,   FsmState::kCleaning,
    };
    for (FsmState from : all) {
        EXPECT_TRUE(agent::transition_allowed(from, FsmState::kCleaning))
            << to_string(from);
    }
    // Cleaning resolves to idle, or straight into a superseding update.
    EXPECT_TRUE(agent::transition_allowed(FsmState::kCleaning, FsmState::kWaiting));
    EXPECT_TRUE(agent::transition_allowed(FsmState::kCleaning, FsmState::kStartUpdate));
    EXPECT_FALSE(agent::transition_allowed(FsmState::kCleaning, FsmState::kReceiveManifest));
    // An armed update never silently unwinds: only cleaning or a reboot.
    EXPECT_FALSE(agent::transition_allowed(FsmState::kReadyToReboot, FsmState::kWaiting));
}

TEST(FsmTableTest, TokenRequestPassesThroughStartUpdate) {
    TestEnv env(4 * 1024);
    auto device = env.make_device();
    env.publish_os_update(2, 70);

    // Trace the transitions of one token request: the agent must take the
    // Fig. 4 edge waiting -> start-update -> receive-manifest, not skip the
    // start-update stage (the pre-refactor bug left it unreachable).
    sim::RingBufferSink sink(64);
    sim::Tracer tracer;
    tracer.add_sink(sink);
    device->set_tracer(&tracer);
    ASSERT_TRUE(device->agent().request_device_token().has_value());
    device->set_tracer(nullptr);

    std::vector<std::pair<std::string, std::string>> edges;
    for (const sim::TraceEvent& ev : sink.events()) {
        if (ev.type == sim::TraceType::kFsmTransition) {
            edges.emplace_back(std::string(ev.from), std::string(ev.to));
        }
    }
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0], (std::pair<std::string, std::string>{"waiting", "start-update"}));
    EXPECT_EQ(edges[1],
              (std::pair<std::string, std::string>{"start-update", "receive-manifest"}));
    EXPECT_EQ(device->agent().state(), FsmState::kReceiveManifest);
}

// ----------------------------------------------------------- fleet fixtures

struct World {
    TestEnv env;
    std::vector<std::unique_ptr<Device>> devices;
    FleetCampaign campaign{env.server};

    explicit World(std::size_t firmware_bytes = 4 * 1024) : env(firmware_bytes) {}

    /// Adds `count` provisioned devices with ids base, base+1, ...
    void add_devices(std::size_t count, std::uint32_t base_id,
                     const net::LinkParams& link, double loss = 0.0,
                     bool differential = true) {
        for (std::size_t i = 0; i < count; ++i) {
            DeviceConfig config = env.device_config(
                i % 2 == 0 ? SlotLayout::kAB : SlotLayout::kStaticInternal);
            config.device_id = base_id + static_cast<std::uint32_t>(i);
            config.seed = static_cast<std::uint64_t>(i) + 1;
            config.enable_differential = differential;
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

// ----------------------------------------------------------- determinism

struct CampaignRun {
    std::string trace;
    CampaignReport report;
};

/// A mixed campaign in a fresh world: 8 devices across two layouts and two
/// link types (two of them lossy), contended 2-slot server, two waves.
void run_mixed_campaign(CampaignRun& out) {
    World world;
    world.add_devices(6, 0x6000, net::ble_gatt());
    world.add_devices(2, 0x6006, net::coap_6lowpan(), 0.3);
    world.env.publish_os_update(2, 77);
    world.env.server.set_model(
        {.concurrency = 2, .service_time_s = 0.05, .service_per_kb_s = 0.001});

    sim::Tracer tracer;
    sim::JsonlSink jsonl(out.trace);
    tracer.add_sink(jsonl);
    world.campaign.set_tracer(&tracer);

    FleetPolicy policy;
    policy.wave_size = 4;
    policy.wave_stagger_s = 5.0;
    out.report = world.campaign.run(kAppId, policy);
}

TEST(FleetEngineTest, RerunIsByteIdenticalTraceAndReport) {
    CampaignRun a, b;
    run_mixed_campaign(a);
    run_mixed_campaign(b);

    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace);  // byte-identical JSONL

    EXPECT_EQ(a.report.succeeded, b.report.succeeded);
    EXPECT_EQ(a.report.failed, b.report.failed);
    EXPECT_EQ(a.report.total_bytes, b.report.total_bytes);
    EXPECT_EQ(a.report.events_processed, b.report.events_processed);
    EXPECT_DOUBLE_EQ(a.report.makespan_s, b.report.makespan_s);
    EXPECT_DOUBLE_EQ(a.report.total_energy_mj, b.report.total_energy_mj);
    EXPECT_EQ(a.report.server.requests, b.report.server.requests);
    EXPECT_EQ(a.report.server.peak_depth, b.report.server.peak_depth);
    EXPECT_DOUBLE_EQ(a.report.server.total_wait_s, b.report.server.total_wait_s);
    ASSERT_EQ(a.report.devices.size(), b.report.devices.size());
    for (std::size_t i = 0; i < a.report.devices.size(); ++i) {
        const CampaignDeviceResult& x = a.report.devices[i];
        const CampaignDeviceResult& y = b.report.devices[i];
        EXPECT_EQ(x.device_id, y.device_id);
        EXPECT_EQ(x.status, y.status);
        EXPECT_EQ(x.attempts, y.attempts);
        EXPECT_DOUBLE_EQ(x.start_s, y.start_s);
        EXPECT_DOUBLE_EQ(x.end_s, y.end_s);
        EXPECT_DOUBLE_EQ(x.time_s, y.time_s);
        EXPECT_DOUBLE_EQ(x.backoff_s, y.backoff_s);
        EXPECT_DOUBLE_EQ(x.queue_wait_s, y.queue_wait_s);
        EXPECT_DOUBLE_EQ(x.energy_mj, y.energy_mj);
        EXPECT_EQ(x.bytes_over_air, y.bytes_over_air);
    }
    // And the campaign actually succeeded (this is not vacuous).
    EXPECT_EQ(a.report.succeeded, 8u);
}

// ----------------------------------------------------------- interleaving

TEST(FleetEngineTest, SessionsInterleaveOnTheSharedTimeline) {
    World world;
    world.add_devices(4, 0x7000, net::ble_gatt());
    world.env.publish_os_update(2, 78);

    sim::RingBufferSink sink(1 << 20);
    sim::Tracer tracer;
    tracer.add_sink(sink);
    world.campaign.set_tracer(&tracer);
    const CampaignReport report = world.campaign.run(kAppId);
    ASSERT_EQ(report.succeeded, 4u);

    // All four sessions must begin before the first one ends: the engine
    // interleaves them event by event instead of running devices serially.
    unsigned starts_before_first_end = 0;
    for (const sim::TraceEvent& ev : sink.events()) {
        if (ev.type == sim::TraceType::kSessionStart) ++starts_before_first_end;
        if (ev.type == sim::TraceType::kSessionEnd) break;
    }
    EXPECT_EQ(starts_before_first_end, 4u);

    // Wall-clock consequence: the campaign takes about as long as one
    // device, not the sum of all four.
    double sum = 0.0, slowest = 0.0;
    for (const CampaignDeviceResult& r : report.devices) {
        sum += r.time_s;
        slowest = std::max(slowest, r.time_s);
    }
    EXPECT_DOUBLE_EQ(report.makespan_s, slowest);  // uncontended: no queueing
    EXPECT_LT(report.makespan_s, 0.5 * sum);
}

TEST(FleetEngineTest, SaturatedServerQueueStretchesMakespan) {
    constexpr unsigned kDevices = 6;
    constexpr double kService = 30.0;

    // Contended: one service slot, 30 s per request — the fleet serializes
    // behind the server even though all airtime could overlap.
    World contended;
    contended.add_devices(kDevices, 0x7100, net::ble_gatt());
    contended.env.publish_os_update(2, 79);
    contended.env.server.set_model({.concurrency = 1, .service_time_s = kService});
    const CampaignReport queued = contended.campaign.run(kAppId);
    ASSERT_EQ(queued.succeeded, kDevices);

    // Identical fleet, uncontended server: the baseline makespan.
    World open_world;
    open_world.add_devices(kDevices, 0x7100, net::ble_gatt());
    open_world.env.publish_os_update(2, 79);
    open_world.env.server.set_model({.concurrency = 0, .service_time_s = kService});
    const CampaignReport parallel = open_world.campaign.run(kAppId);
    ASSERT_EQ(parallel.succeeded, kDevices);

    // The queue turns a parallel rollout into a serial one: the last device
    // waits for the five services ahead of it.
    EXPECT_EQ(queued.server.peak_in_service, 1u);
    EXPECT_GE(queued.server.peak_depth, kDevices - 2);
    EXPECT_GE(queued.server.max_wait_s, (kDevices - 1) * kService * 0.99);
    EXPECT_GE(queued.makespan_s, parallel.makespan_s + (kDevices - 1) * kService * 0.99);

    // Makespan exceeds what the slowest device spends actually working
    // (its busy time = session time minus the wait it slept through).
    double slowest_busy = 0.0;
    for (const CampaignDeviceResult& r : queued.devices) {
        slowest_busy = std::max(slowest_busy, r.time_s - r.queue_wait_s);
    }
    EXPECT_GT(queued.makespan_s, slowest_busy);
    // Every queueing second in the server stats is attributed to a device.
    double device_wait = 0.0;
    for (const CampaignDeviceResult& r : queued.devices) device_wait += r.queue_wait_s;
    EXPECT_NEAR(device_wait, queued.server.total_wait_s, 1e-9);
}

TEST(FleetEngineTest, WavesReleaseOnSchedule) {
    World world;
    world.add_devices(4, 0x7200, net::ble_gatt());
    world.env.publish_os_update(2, 80);

    sim::RingBufferSink sink(1 << 20);
    sim::Tracer tracer;
    tracer.add_sink(sink);
    world.campaign.set_tracer(&tracer);

    FleetPolicy policy;
    policy.wave_size = 2;
    policy.wave_stagger_s = 50.0;
    const CampaignReport report = world.campaign.run(kAppId, policy);
    ASSERT_EQ(report.succeeded, 4u);

    EXPECT_DOUBLE_EQ(report.devices[0].start_s, 0.0);
    EXPECT_DOUBLE_EQ(report.devices[1].start_s, 0.0);
    EXPECT_DOUBLE_EQ(report.devices[2].start_s, 50.0);
    EXPECT_DOUBLE_EQ(report.devices[3].start_s, 50.0);
    EXPECT_GE(report.makespan_s, 50.0);

    std::vector<std::pair<double, std::uint32_t>> waves;
    for (const sim::TraceEvent& ev : sink.events()) {
        if (ev.type == sim::TraceType::kWaveStart) waves.emplace_back(ev.t, ev.code);
    }
    ASSERT_EQ(waves.size(), 2u);
    EXPECT_EQ(waves[0], (std::pair<double, std::uint32_t>{0.0, 0u}));
    EXPECT_EQ(waves[1], (std::pair<double, std::uint32_t>{50.0, 1u}));
}

TEST(FleetEngineTest, EventBudgetExhaustionSurfacesStuckDevices) {
    World world;
    world.add_devices(2, 0x7300, net::ble_gatt());
    world.env.publish_os_update(2, 81);

    world.campaign.set_event_budget(10);  // nowhere near enough
    const CampaignReport report = world.campaign.run(kAppId);
    EXPECT_EQ(report.succeeded, 0u);
    EXPECT_EQ(report.failed, 2u);
    for (const CampaignDeviceResult& r : report.devices) {
        EXPECT_EQ(r.status, Status::kResourceExhausted);
    }
    EXPECT_LE(report.events_processed, 10u);
}

// ----------------------------------------------------------- scale

TEST(FleetEngineTest, ThousandDeviceCampaignCompletesUnderEventBudget) {
    constexpr std::size_t kFleet = 1000;
    World world(2 * 1024);  // small image: the point is scale, not airtime
    // Full-image updates: a thousand per-device delta derivations would
    // dominate the test for no additional coverage.
    world.add_devices(kFleet, 0x10000, net::ble_gatt(), 0.0, false);
    world.env.publish_os_update(2, 82);
    world.env.server.set_model({.concurrency = 8, .service_time_s = 0.02});

    sim::RingBufferSink tail(256);
    sim::Tracer tracer;
    tracer.add_sink(tail);
    world.campaign.set_tracer(&tracer);
    world.campaign.set_event_budget(1'000'000);

    FleetPolicy policy;
    policy.wave_size = 100;
    policy.wave_stagger_s = 2.0;
    const CampaignReport report = world.campaign.run(kAppId, policy);

    // Zero stuck sessions: every device reached a terminal outcome well
    // inside the event budget.
    EXPECT_EQ(report.succeeded, kFleet);
    EXPECT_EQ(report.failed, 0u);
    for (const CampaignDeviceResult& r : report.devices) {
        EXPECT_NE(r.status, Status::kResourceExhausted) << r.device_id;
        EXPECT_EQ(r.final_version, 2) << r.device_id;
    }
    EXPECT_LT(report.events_processed, 1'000'000u);
    EXPECT_EQ(report.server.requests, kFleet);
    // 10 waves released 2 s apart; the makespan covers at least the last
    // wave's release plus its contended drain.
    EXPECT_GE(report.makespan_s, 18.0);
    EXPECT_GT(tail.total_seen(), kFleet);  // tracing stayed on throughout
}

TEST(FleetEngineTest, RetryStormDrainsThroughBackoffAndJitter) {
    constexpr std::size_t kFleet = 12;
    World world(2 * 1024);
    // A link bad enough that whole attempts abort, against a server with
    // only two service slots: the first round fails en masse, and jittered
    // exponential backoff must spread the retries out until all converge.
    world.add_devices(kFleet, 0x8000, net::ble_gatt(), 0.9, false);
    world.env.publish_os_update(2, 83);
    world.env.server.set_model({.concurrency = 2, .service_time_s = 0.5});

    FleetPolicy policy;
    policy.max_attempts = 60;
    policy.initial_backoff_s = 1.0;
    const CampaignReport report = world.campaign.run(kAppId, policy);

    EXPECT_EQ(report.succeeded, kFleet);
    EXPECT_EQ(report.failed, 0u);
    unsigned total_attempts = 0;
    unsigned retried_devices = 0;
    for (const CampaignDeviceResult& r : report.devices) {
        EXPECT_EQ(r.status, Status::kOk) << r.device_id;
        total_attempts += r.attempts;
        if (r.attempts > 1) {
            ++retried_devices;
            EXPECT_GT(r.backoff_s, 0.0) << r.device_id;  // slept, not hammered
        }
    }
    // The storm was real (lots of failed attempts) and it drained. Server
    // requests can lag total attempts — an attempt that dies during the
    // token upload never reaches the server — but never exceed them.
    EXPECT_GT(retried_devices, kFleet / 2);
    EXPECT_GT(total_attempts, kFleet * 2);
    EXPECT_LE(report.server.requests, total_attempts);
    EXPECT_GT(report.server.requests, static_cast<std::uint64_t>(kFleet));
    EXPECT_GE(report.server.peak_depth, 1u);
}

// ----------------------------------------------------------- server hot path

TEST(FleetEngineTest, ServerCacheCountersSurfaceInReportAndTrace) {
    World world;
    world.add_devices(6, 0x9000, net::ble_gatt());
    world.env.publish_os_update(2, 84);

    sim::RingBufferSink sink(1 << 20);
    sim::Tracer tracer;
    tracer.add_sink(sink);
    world.campaign.set_tracer(&tracer);
    const CampaignReport report = world.campaign.run(kAppId);
    ASSERT_EQ(report.succeeded, 6u);

    // The report's counters are campaign-scoped: provisioning requests
    // before run() (six of them, in add_devices) are excluded by the
    // snapshot-and-diff, so requests here match the campaign's own.
    const server::ServerStats& s = report.server_stats;
    EXPECT_EQ(s.requests, report.server.requests);
    EXPECT_EQ(s.sign_ops, s.requests);  // one freshness signature each
    // Six identical differential requests: one delta generation, then the
    // response cache answers every repeat without regenerating.
    EXPECT_EQ(s.delta_generations, 1u);
    EXPECT_EQ(s.response_hits, s.requests - 1);
    EXPECT_EQ(s.key_rotations, 0u);

    // Every served request traced a server-cache event whose bits agree
    // with the aggregate counters.
    std::uint64_t events = 0, response_hits = 0;
    for (const sim::TraceEvent& ev : sink.events()) {
        if (ev.type != sim::TraceType::kServerCache) continue;
        ++events;
        if ((ev.code & sim::kCacheBitResponseHit) != 0) ++response_hits;
    }
    EXPECT_EQ(events, s.requests);
    EXPECT_EQ(response_hits, s.response_hits);
}

TEST(FleetEngineTest, VerifyMemoCountersSurfaceInReport) {
    // Memo off (the default): the report's counters stay zero.
    World cold;
    cold.add_devices(4, 0x9400, net::ble_gatt());
    cold.env.publish_os_update(2, 85);
    const CampaignReport off = cold.campaign.run(kAppId);
    ASSERT_EQ(off.succeeded, 4u);
    EXPECT_EQ(off.verify_memo.hits, 0u);
    EXPECT_EQ(off.verify_memo.misses, 0u);

    // Memo on: the same campaign shape in a fresh world. Each device's
    // receive-time verification resolves its (vendor, server) signature
    // pair — the vendor triple is shared fleet-wide (one miss total), the
    // server triple is token-bound (one miss per device) — and the
    // bootloader's re-verification of the stored manifest answers both
    // halves from the memo, so hits cover at least that boot re-check.
    crypto::set_verify_memo_enabled(true);
    crypto::verify_memo_reset();
    World warm;
    warm.add_devices(4, 0x9480, net::ble_gatt());
    warm.env.publish_os_update(2, 85);
    const CampaignReport on = warm.campaign.run(kAppId);
    crypto::set_verify_memo_enabled(false);
    crypto::verify_memo_reset();
    ASSERT_EQ(on.succeeded, 4u);
    EXPECT_GE(on.verify_memo.misses, 4u);  // >= one token-bound triple per device
    EXPECT_GE(on.verify_memo.hits, 2u * 4u);  // boot re-verifies both signatures
}

/// The mixed campaign again, but under a server model with per-operation
/// costs, as bench/server_hotpath sets them: service time now depends on
/// what each request's receipt says it cost.
void run_measured_campaign(CampaignRun& out) {
    World world;
    world.add_devices(6, 0x6000, net::ble_gatt());
    world.add_devices(2, 0x6006, net::coap_6lowpan(), 0.3);
    world.env.publish_os_update(2, 77);
    world.env.server.set_model({.concurrency = 2,
                                .service_time_s = 1e-5,
                                .service_per_kb_s = 5e-5,
                                .sign_s = 2e-4,
                                .delta_gen_per_kb_s = 1e-3});

    sim::Tracer tracer;
    sim::JsonlSink jsonl(out.trace);
    tracer.add_sink(jsonl);
    world.campaign.set_tracer(&tracer);

    FleetPolicy policy;
    policy.wave_size = 4;
    policy.wave_stagger_s = 5.0;
    out.report = world.campaign.run(kAppId, policy);
}

TEST(FleetEngineTest, MeasuredModelRerunIsByteIdenticalWithCachesOn) {
    CampaignRun a, b;
    run_measured_campaign(a);
    run_measured_campaign(b);

    ASSERT_EQ(a.report.succeeded, 8u);
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace);  // byte-identical JSONL, caches hot
    EXPECT_DOUBLE_EQ(a.report.makespan_s, b.report.makespan_s);
    EXPECT_EQ(a.report.events_processed, b.report.events_processed);
    EXPECT_EQ(a.report.server_stats.delta_generations,
              b.report.server_stats.delta_generations);
    EXPECT_EQ(a.report.server_stats.response_hits,
              b.report.server_stats.response_hits);

    // Cache hits must actually have happened (else this proves nothing) and
    // must have been cheaper than the lone miss: the makespan under the
    // measured model beats a hypothetical all-miss fleet by construction,
    // which shows up as sub-linear total service time.
    EXPECT_GE(a.report.server_stats.response_hits, 6u);
    const double all_miss_service =
        static_cast<double>(a.report.server.requests) *
        (2e-4 + 1e-5 + 1e-3 * 96.0);  // sign + lookup + 2*48 KB delta input
    EXPECT_LT(a.report.server.busy_s, all_miss_service);
}

// ----------------------------------------------------------- edge topology

TEST(FleetEdgeTest, EdgesCachePayloadsAndReportPerRegion) {
    World world;
    world.add_devices(8, 0x8000, net::ble_gatt(), 0.0, /*differential=*/false);
    world.env.publish_os_update(2, 81);
    world.env.server.set_model({.concurrency = 4, .service_time_s = 0.05});

    world.campaign.set_edges({.edges = 2,
                              .model = {.concurrency = 2, .service_time_s = 0.01},
                              .backhaul_rtt_s = 0.5,
                              .backhaul_per_kb_s = 0.01});
    const CampaignReport report = world.campaign.run(kAppId);
    ASSERT_EQ(report.succeeded, 8u);

    // Round-robin assignment: 4 devices per region, every request admitted
    // through its home edge, none through the origin's own queue.
    ASSERT_EQ(report.edges.size(), 2u);
    std::uint64_t edge_requests = 0;
    for (const EdgeReport& e : report.edges) {
        EXPECT_EQ(e.queue.requests, 4u);
        EXPECT_EQ(e.fallbacks, 0u);
        EXPECT_EQ(e.cache.requests, e.queue.requests);
        // Identical full-image payloads: first request misses (origin
        // fetch over the backhaul), the rest hit the edge cache.
        EXPECT_EQ(e.cache.cache_misses, 1u);
        EXPECT_EQ(e.cache.cache_hits, 3u);
        EXPECT_GT(e.cache.origin_fetch_bytes, 0u);
        EXPECT_GT(e.cache.bytes_served, e.cache.origin_fetch_bytes);
        edge_requests += e.queue.requests;
    }
    EXPECT_EQ(edge_requests, report.server.requests);

    // The origin still signed every response: edges cache payloads, never
    // the device-bound envelope.
    EXPECT_GE(report.server_stats.sign_ops, 8u);
}

TEST(FleetEdgeTest, CacheMissPaysBackhaulHitDoesNot) {
    // Same fleet twice; the only difference is the backhaul price. Since
    // exactly one request per region misses, the makespan difference is
    // bounded by the per-miss backhaul charge — and the expensive-backhaul
    // campaign must be measurably slower.
    auto run = [](double rtt) {
        World world;
        world.add_devices(4, 0x8100, net::ble_gatt(), 0.0, false);
        world.env.publish_os_update(2, 82);
        world.env.server.set_model({.concurrency = 4, .service_time_s = 0.01});
        world.campaign.set_edges({.edges = 1,
                                  .model = {.concurrency = 1, .service_time_s = 0.01},
                                  .backhaul_rtt_s = rtt});
        return world.campaign.run(kAppId);
    };
    const CampaignReport cheap = run(0.0);
    const CampaignReport dear = run(10.0);
    ASSERT_EQ(cheap.succeeded, 4u);
    ASSERT_EQ(dear.succeeded, 4u);
    EXPECT_EQ(dear.edges[0].cache.cache_misses, 1u);
    // One miss, one 10 s backhaul round trip, visible in busy time.
    EXPECT_NEAR(dear.server.busy_s - cheap.server.busy_s, 10.0, 1e-6);
    EXPECT_GT(dear.makespan_s, cheap.makespan_s + 9.9);
}

TEST(FleetEdgeTest, RegionOutageFallsBackToOriginAndSucceeds) {
    World world;
    world.add_devices(6, 0x8200, net::ble_gatt(), 0.0, false);
    world.env.publish_os_update(2, 83);

    // Region 0 is down for the whole campaign; the origin stays healthy.
    sim::ChaosPlan plan;
    plan.add_region_outage(0, 0.0, 10000.0);
    server::ServerModel model{.concurrency = 4, .service_time_s = 0.05};
    model.chaos = &plan;
    world.env.server.set_model(model);

    world.campaign.set_edges({.edges = 2,
                              .model = {.concurrency = 2, .service_time_s = 0.01},
                              .origin_fallback = true});
    const CampaignReport report = world.campaign.run(kAppId);

    // Every device succeeded: region-0 homes were served by the origin.
    EXPECT_EQ(report.succeeded, 6u);
    EXPECT_EQ(report.server.outage_rejections, 0u);
    ASSERT_EQ(report.edges.size(), 2u);
    EXPECT_EQ(report.edges[0].fallbacks, 3u);  // 3 devices home to region 0
    EXPECT_EQ(report.edges[0].queue.requests, 0u);
    EXPECT_EQ(report.edges[1].fallbacks, 0u);
    EXPECT_EQ(report.edges[1].queue.requests, 3u);
}

TEST(FleetEdgeTest, RegionOutageIsConfinedWithoutFallback) {
    // Fallback disabled: region-0 devices must wait the outage window out
    // (connect-timeout rejections, retries), while region-1 devices update
    // on schedule — the fault domain is confined to one region's fleet.
    World world;
    world.add_devices(6, 0x8300, net::ble_gatt(), 0.0, false);
    world.env.publish_os_update(2, 84);

    sim::ChaosPlan plan;
    plan.add_region_outage(0, 0.0, 60.0);
    server::ServerModel model{.concurrency = 4, .service_time_s = 0.05};
    model.chaos = &plan;
    world.env.server.set_model(model);

    world.campaign.set_edges({.edges = 2,
                              .model = {.concurrency = 2, .service_time_s = 0.01},
                              .origin_fallback = false});
    FleetPolicy policy;
    policy.max_attempts = 8;
    policy.initial_backoff_s = 20.0;
    policy.max_backoff_s = 60.0;
    const CampaignReport report = world.campaign.run(kAppId, policy);

    ASSERT_EQ(report.edges.size(), 2u);
    // No fallback: region-0 devices block at connect (the transport's fault
    // domain) and retry, they are never rerouted and never reach another
    // region's queue.
    EXPECT_EQ(report.edges[0].fallbacks, 0u);
    EXPECT_EQ(report.edges[1].fallbacks, 0u);
    EXPECT_EQ(report.edges[0].queue.requests, 3u);  // all after the window
    EXPECT_EQ(report.edges[1].queue.requests, 3u);

    // Region 1 (odd fleet indices) never noticed: first-attempt successes.
    for (std::size_t i = 0; i < report.devices.size(); ++i) {
        const CampaignDeviceResult& d = report.devices[i];
        EXPECT_EQ(d.status, Status::kOk) << "device " << i;
        if (i % 2 == 1) {
            EXPECT_EQ(d.attempts, 1u) << "device " << i;
        } else {
            EXPECT_GT(d.attempts, 1u) << "device " << i;
            EXPECT_GT(d.end_s, 60.0) << "device " << i;  // outlived the window
        }
    }
}

}  // namespace
}  // namespace upkit::core
