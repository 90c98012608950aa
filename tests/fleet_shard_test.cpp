// Determinism battery for the fleet engine's two segment sources.
//
// FleetCampaign::run is one coordinator at every shard count. At 0 shards
// it steps each device's session driver itself, one step per event; at N
// shards worker threads run whole segments ahead and the coordinator
// replays their records in (time, sequence) order. These tests pin both:
//   1. Golden battery — seven campaigns (plain; gated + chaos + 3 edges +
//      clock drift; tie-heavy one-wave release; more shards than devices;
//      a pinned outage-window edge; a region outage opening mid-attempt;
//      an add_synthetic fleet) reproduce a pinned report fingerprint,
//      trace fingerprint, trace event count and events_processed at shard
//      counts {0, 1, 2, 4, 8}, and every threaded run reproduces the
//      inline run's JSONL trace byte for byte.
//      The pins were captured from the single-heap engine the coordinator
//      replaced, and they hold on any host: TestEnv devices keep
//      uncalibrated costs and every server model is constant.
//   2. Reruns — the threaded source is stable against itself across runs.
//   3. Merge ordering — same-instant ties resolve in fleet order, shard
//      counts exceeding the fleet size (empty shards) change nothing,
//      outage-window edges land identically at every shard count, and a
//      request that falls back to the origin mid-attempt takes its transfer
//      there too. The shard pool's per-shard FIFO guarantee gets its own
//      unit test.
//   4. Chaos regressions — per-region fault domains and clock drift are
//      pure in (seed, region, device, t) and replay deterministically;
//      unconfigured plans keep their legacy fingerprint.
//   5. Verify memo — the opt-in signature-verification memo changes no
//      observable campaign output, only the crypto op count; a pair with
//      one memoized half verifies only the other; and the hit/miss
//      counters do not depend on the shard count or thread interleaving.
//   6. Fault paths — four more battery campaigns, each reaching a path only
//      a fault takes: a request rejected at admission, a refreshed request
//      rejected again, a failed promotion gate, and a pausing breaker that
//      escalates to an abort.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "common/endian.hpp"
#include "crypto/backend.hpp"
#include "crypto/ct.hpp"
#include "crypto/ecdsa.hpp"
#include "net/link.hpp"
#include "sim/chaos.hpp"
#include "sim/platform.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"
#include "test_env.hpp"

namespace upkit::core {
namespace {

using testenv::kAppId;
using testenv::TestEnv;

// ------------------------------------------------------------ fixtures

struct RunResult {
    std::string trace;
    std::uint64_t trace_fp = 0;
    std::uint64_t trace_events = 0;
    CampaignReport report;
};

struct CampaignSpec {
    std::size_t devices = 8;
    unsigned shards = 0;       // 0 = inline segment source
    unsigned edges = 0;
    bool gated = false;
    bool chaos = false;
    bool pinned_region_outage = false;  // explicit window instead of drawn
    double pinned_outage_start_s = 0.0;
    double wave_stagger_s = 5.0;
    unsigned wave_size = 4;
    bool trial_boot = false;
    /// Pins faults into the campaign's chaos plan and attaches it.
    std::function<void(sim::ChaosPlan&)> faults;
    /// Adjusts the rollout policy after the knobs above are applied.
    std::function<void(FleetPolicy&)> tune;
};

/// Builds a fresh world and runs one campaign to completion. Every call
/// constructs everything from scratch (devices mutate), so two calls with
/// the same spec are two independent replays.
void run_campaign(const CampaignSpec& spec, RunResult& out) {
    TestEnv env(4 * 1024);
    std::vector<std::unique_ptr<Device>> devices;
    FleetCampaign campaign{env.server};

    for (std::size_t i = 0; i < spec.devices; ++i) {
        DeviceConfig config = env.device_config(
            i % 2 == 0 ? SlotLayout::kAB : SlotLayout::kStaticInternal);
        config.device_id = 0x5000 + static_cast<std::uint32_t>(i);
        config.seed = static_cast<std::uint64_t>(i) + 1;
        config.trial_boot = spec.trial_boot;
        auto device = std::make_unique<Device>(config);
        auto factory = env.server.prepare_update(
            kAppId, {.device_id = config.device_id, .nonce = 0, .current_version = 0});
        ASSERT_TRUE(factory.has_value()) << "factory image";
        ASSERT_EQ(device->provision_factory(*factory), Status::kOk);
        net::LinkParams link = net::ble_gatt();
        if (i % 3 == 2) link.loss_probability = 0.2;  // some lossy links
        campaign.add(*device, link);
        devices.push_back(std::move(device));
    }
    env.publish_os_update(2, 77);
    server::ServerModel model{
        .concurrency = 2, .service_time_s = 0.05, .service_per_kb_s = 0.001};

    sim::ChaosPlan plan;
    if (spec.chaos) {
        sim::ChaosSpec cs;
        cs.seed = 99;
        cs.horizon_s = 400.0;
        cs.loss_bursts = 2;
        cs.burst_loss = 0.3;
        cs.outages = 1;
        cs.outage_duration_s = 8.0;
        cs.flaky_fraction = 0.25;
        cs.brick_fraction = 0.1;
        cs.regions = spec.edges;
        cs.region_outages = spec.edges > 0 ? 2 : 0;
        cs.region_outage_duration_s = 20.0;
        cs.clock_drift_ppm = 40.0;
        plan = sim::ChaosPlan::generate(cs);
        model.chaos = &plan;
    }
    if (spec.pinned_region_outage) {
        // Region 0 goes dark for 12 s. Opening at t = 0, the window's edge
        // falls exactly on wave 0's release instant, and its closing edge
        // lands mid-campaign.
        plan.add_region_outage(0, spec.pinned_outage_start_s, 12.0);
        model.chaos = &plan;
    }
    if (spec.faults) {
        spec.faults(plan);
        model.chaos = &plan;
    }
    env.server.set_model(model);

    if (spec.edges > 0) {
        campaign.set_edges({.edges = spec.edges,
                            .model = {.concurrency = 2,
                                      .service_time_s = 0.02,
                                      .service_per_kb_s = 0.0005},
                            .backhaul_rtt_s = 0.08,
                            .backhaul_per_kb_s = 0.002});
    }
    campaign.set_shards(spec.shards);

    sim::Tracer tracer;
    sim::JsonlSink jsonl(out.trace);
    sim::FingerprintSink fp;
    tracer.add_sink(jsonl);
    tracer.add_sink(fp);
    campaign.set_tracer(&tracer);

    FleetPolicy policy;
    policy.wave_size = spec.wave_size;
    policy.wave_stagger_s = spec.wave_stagger_s;
    policy.max_attempts = 3;
    if (spec.gated) {
        policy.canary_size = 2;
        policy.promote_success_rate = 0.4;
        policy.breaker_failure_rate = 0.9;
        policy.breaker_abort = false;
        policy.breaker_pause_s = 15.0;
    }
    if (spec.tune) spec.tune(policy);
    out.report = campaign.run(kAppId, policy);
    out.trace_fp = fp.fingerprint();
    out.trace_events = fp.events();
}

/// Full-fidelity comparison of a threaded run against the inline run:
/// byte-identical trace, identical trace fingerprint, identical report
/// fingerprint, plus direct spot checks so a fingerprint bug can't mask a
/// real divergence.
void expect_identical(const RunResult& ref, const RunResult& got) {
    EXPECT_FALSE(ref.trace.empty());
    EXPECT_EQ(ref.trace, got.trace);
    EXPECT_EQ(ref.trace_fp, got.trace_fp);
    EXPECT_EQ(ref.trace_events, got.trace_events);
    EXPECT_EQ(ref.report.fingerprint(), got.report.fingerprint());
    EXPECT_EQ(ref.report.succeeded, got.report.succeeded);
    EXPECT_EQ(ref.report.failed, got.report.failed);
    EXPECT_EQ(ref.report.events_processed, got.report.events_processed);
    EXPECT_EQ(ref.report.total_bytes, got.report.total_bytes);
    EXPECT_EQ(ref.report.server.requests, got.report.server.requests);
    EXPECT_DOUBLE_EQ(ref.report.makespan_s, got.report.makespan_s);
    EXPECT_DOUBLE_EQ(ref.report.total_energy_mj, got.report.total_energy_mj);
    ASSERT_EQ(ref.report.devices.size(), got.report.devices.size());
    for (std::size_t i = 0; i < ref.report.devices.size(); ++i) {
        const CampaignDeviceResult& x = ref.report.devices[i];
        const CampaignDeviceResult& y = got.report.devices[i];
        EXPECT_EQ(x.device_id, y.device_id);
        EXPECT_EQ(x.status, y.status);
        EXPECT_EQ(x.attempts, y.attempts);
        EXPECT_DOUBLE_EQ(x.end_s, y.end_s);
        EXPECT_DOUBLE_EQ(x.energy_mj, y.energy_mj);
        EXPECT_EQ(x.bytes_over_air, y.bytes_over_air);
    }
    ASSERT_EQ(ref.report.edges.size(), got.report.edges.size());
    for (std::size_t r = 0; r < ref.report.edges.size(); ++r) {
        EXPECT_EQ(ref.report.edges[r].cache.cache_hits,
                  got.report.edges[r].cache.cache_hits);
        EXPECT_EQ(ref.report.edges[r].queue.requests,
                  got.report.edges[r].queue.requests);
        EXPECT_EQ(ref.report.edges[r].fallbacks, got.report.edges[r].fallbacks);
    }
}

/// Pinned outputs of one campaign.
struct Golden {
    std::uint64_t report_fp = 0;
    std::uint64_t trace_fp = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t events_processed = 0;
};

void expect_golden(const RunResult& got, const Golden& golden) {
    EXPECT_EQ(got.report.fingerprint(), golden.report_fp);
    EXPECT_EQ(got.trace_fp, golden.trace_fp);
    EXPECT_EQ(got.trace_events, golden.trace_events);
    EXPECT_EQ(got.report.events_processed, golden.events_processed);
}

/// Runs one campaign at shard counts {0, 1, 2, 4, 8}: every run matches
/// the pins, and every threaded run matches the inline run byte for byte.
/// Returns the inline run.
RunResult run_battery(const std::function<void(unsigned, RunResult&)>& run,
                      const Golden& golden) {
    RunResult inline_run;
    run(0, inline_run);
    expect_golden(inline_run, golden);
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        RunResult got;
        run(shards, got);
        expect_identical(inline_run, got);
        expect_golden(got, golden);
    }
    return inline_run;
}

RunResult run_battery(const CampaignSpec& spec, const Golden& golden) {
    return run_battery(
        [&spec](unsigned shards, RunResult& out) {
            CampaignSpec s = spec;
            s.shards = shards;
            run_campaign(s, out);
        },
        golden);
}

// ------------------------------------------------------ golden battery

// {report fingerprint, trace fingerprint, trace events, events_processed}
constexpr Golden kGoldenPlain{0x04f557c06dc42b54ull, 0xcd10f35b1554f52cull, 146, 112};
constexpr Golden kGoldenGated{0x9e1420c46f5eece2ull, 0x9ebb1cadb263166bull, 235, 160};
constexpr Golden kGoldenTies{0x6b2835ae0620dd05ull, 0x8d2721c4f47b2225ull, 163, 126};
constexpr Golden kGoldenEmptyShards{0x31c8507c1c58cd9bull, 0xf159a0a5234c5494ull, 55, 42};
constexpr Golden kGoldenOutageEdge{0xf3d8f52bd78f0e00ull, 0x5cb69ca902e8412cull, 154, 112};
constexpr Golden kGoldenMidAttemptOutage{0xf3d8f52bd78f0e00ull, 0xd804c497bad62d4cull, 154, 112};
constexpr Golden kGoldenSynthetic{0xd5effd0f16f551efull, 0x86f90ed583ff600eull, 435, 240};

TEST(ShardDifferentialTest, PlainCampaignMatchesReferenceAtEveryShardCount) {
    CampaignSpec spec;  // 8 devices, 2 waves, lossy links, single origin
    run_battery(spec, kGoldenPlain);
}

TEST(ShardDifferentialTest, GatedChaosEdgeCampaignMatchesReference) {
    CampaignSpec spec;
    spec.devices = 12;
    spec.gated = true;
    spec.chaos = true;   // outages, loss bursts, bricks, drift
    spec.edges = 3;      // regional queues + caches + fault domains
    run_battery(spec, kGoldenGated);
}

TEST(ShardDifferentialTest, ShardedRerunsAreByteIdentical) {
    CampaignSpec spec;
    spec.devices = 10;
    spec.chaos = true;
    spec.edges = 2;
    spec.shards = 4;
    RunResult a, b;
    run_campaign(spec, a);
    run_campaign(spec, b);
    expect_identical(a, b);
    EXPECT_GT(a.report.succeeded, 0u);  // not vacuously identical
}

// ---------------------------------------------------- merge ordering

TEST(ShardMergeOrderingTest, SameInstantReleasesResolveInFleetOrder) {
    // Every device releases at t = 0 (one wave, no stagger): the campaign
    // is one long chain of same-timestamp ties that only the (time, seq)
    // merge discipline can order. All shard counts must agree with the
    // pins — and the session starts must appear in fleet order.
    CampaignSpec spec;
    spec.devices = 9;
    spec.wave_size = 0;       // one wave
    spec.wave_stagger_s = 0.0;
    const RunResult got = run_battery(spec, kGoldenTies);
    std::size_t pos = 0;
    std::uint32_t last_id = 0;
    bool in_order = true;
    unsigned starts = 0;
    while (pos < got.trace.size()) {
        const std::size_t nl = got.trace.find('\n', pos);
        const std::string line = got.trace.substr(pos, nl - pos);
        pos = nl == std::string::npos ? got.trace.size() : nl + 1;
        if (line.find("\"ev\":\"session-start\"") == std::string::npos) continue;
        const std::size_t at = line.find("\"dev\":");
        ASSERT_NE(at, std::string::npos);
        const std::uint32_t id =
            static_cast<std::uint32_t>(std::stoul(line.substr(at + 6)));
        if (starts > 0 && id <= last_id) in_order = false;
        last_id = id;
        ++starts;
        if (starts == spec.devices) break;  // first attempt of each device
    }
    EXPECT_EQ(starts, spec.devices);
    EXPECT_TRUE(in_order) << "first-attempt session starts out of fleet order";
}

TEST(ShardMergeOrderingTest, MoreShardsThanDevicesLeavesEmptyShardsHarmless) {
    CampaignSpec spec;
    spec.devices = 3;  // shards 4 and 8 leave idle workers
    run_battery(spec, kGoldenEmptyShards);
}

TEST(ShardMergeOrderingTest, RegionOutageWindowEdgeIsIdenticalAcrossEngines) {
    // An outage window whose start coincides exactly with the wave release
    // instant (t = 0): the boundary comparison (start <= t < end) must land
    // the same way at every shard count.
    CampaignSpec spec;
    spec.devices = 8;
    spec.edges = 2;
    spec.pinned_region_outage = true;
    run_battery(spec, kGoldenOutageEdge);
}

TEST(ShardMergeOrderingTest, RegionOutageOpeningMidAttemptMovesTheTransfer) {
    // Region 0 goes dark 150 ms after wave 0 releases, while its devices'
    // tokens are on the air (85–195 ms): they started their attempts on the
    // edge, find it down when the request reaches the queue, and retarget
    // the origin there. The response handoff must move the transfer's fault
    // domain to the origin too, or manifest and payload would stall in the
    // dark region.
    CampaignSpec spec;
    spec.devices = 8;
    spec.edges = 2;
    spec.pinned_region_outage = true;
    spec.pinned_outage_start_s = 0.15;
    const RunResult got = run_battery(spec, kGoldenMidAttemptOutage);
    // Not vacuous: the first fallback is wave 0's, taken mid-attempt.
    const std::size_t at = got.trace.find("\"ev\":\"edge-fallback\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t line = got.trace.rfind('\n', at) + 1;  // npos + 1 == 0
    const double t = std::stod(got.trace.substr(line + 5));  // {"t":
    EXPECT_GT(t, spec.pinned_outage_start_s);
    EXPECT_LT(t, spec.wave_stagger_s);
}

// ---------------------------------------------- rollout fault paths
//
// Each cell drives one fault-handling path of the engine and asserts that
// it got there, so a later change cannot leave its pins vacuous.

constexpr Golden kGoldenEnqueueOutage{0x6a1d92cb0b693cb2ull, 0xcfc5b5654617ca10ull, 59, 38};
constexpr Golden kGoldenRefreshOutage{0x3cb4c0ad761e960cull, 0x14b8090562bb1cc3ull, 65, 48};
constexpr Golden kGoldenFailedGate{0x255d2c877e534c58ull, 0x2f9e972e2dfaac44ull, 44, 31};
constexpr Golden kGoldenBreakerTrips{0xd05fcd192b7cdfe5ull, 0xbe039fbc18941be5ull, 169, 91};

TEST(ShardFaultPathTest, OutageOpeningDuringTheTokenUplinkRejectsAtEnqueue) {
    // The origin goes dark at 0.15 s, while each device's one token chunk
    // is on the air (0.085-0.195 s). The chunk started before the window,
    // so the transport delivers it; admission finds the origin down when it
    // lands and rejects the request. The retries after the connect timeout
    // find the origin back.
    CampaignSpec spec;
    spec.devices = 2;
    spec.faults = [](sim::ChaosPlan& plan) { plan.add_outage(0.15, 5.0); };
    const RunResult got = run_battery(spec, kGoldenEnqueueOutage);
    EXPECT_EQ(got.report.server.outage_rejections, 2u);
    EXPECT_EQ(got.report.succeeded, 2u);
    for (const CampaignDeviceResult& d : got.report.devices) EXPECT_EQ(d.attempts, 2u);
}

TEST(ShardFaultPathTest, RequestRejectedAfterATokenRefreshReconnectsAgain) {
    // The origin is down over the payload, [1, 6): the transfer times out
    // and the driver waits the outage out, then refreshes its token at
    // about 7.0 s. A second window opens at 7.08 s, while that token is on
    // the air, so the refreshed request is rejected as well. The driver
    // must spend its second resume on another reconnect round, not end the
    // attempt.
    CampaignSpec spec;
    spec.devices = 2;
    spec.faults = [](sim::ChaosPlan& plan) {
        plan.add_outage(1.0, 6.0);
        plan.add_outage(7.08, 12.0);
    };
    spec.tune = [](FleetPolicy& policy) {
        policy.transport_resumes = 2;
        policy.reconnect_backoff_s = 2.0;
    };
    const RunResult got = run_battery(spec, kGoldenRefreshOutage);
    EXPECT_EQ(got.report.server.outage_rejections, 2u);
    for (const CampaignDeviceResult& d : got.report.devices) {
        EXPECT_EQ(d.status, Status::kOk);
        EXPECT_EQ(d.attempts, 1u);  // the rejection did not end the attempt
        EXPECT_EQ(d.token_refreshes, 2u);
    }
}

TEST(ShardFaultPathTest, FailedPromotionGateAbortsTheRollout) {
    // Version 2 fails its self-test on every device, so both canaries roll
    // back. Their 0 % success rate fails the 90 % gate; with the breaker
    // off, only the gate can trip, and a failed gate always aborts: the
    // other 10 devices are never offered the update.
    CampaignSpec spec;
    spec.devices = 12;
    spec.trial_boot = true;
    spec.faults = [](sim::ChaosPlan& plan) { plan.mark_bad_version(2); };
    spec.tune = [](FleetPolicy& policy) {
        policy.canary_size = 2;
        policy.promote_success_rate = 0.9;
    };
    const RunResult got = run_battery(spec, kGoldenFailedGate);
    ASSERT_EQ(got.report.breaker_trips.size(), 1u);
    const BreakerTrip& trip = got.report.breaker_trips.front();
    EXPECT_TRUE(trip.aborted);
    EXPECT_EQ(trip.wave, 0u);
    EXPECT_DOUBLE_EQ(trip.failure_rate, 1.0);
    EXPECT_EQ(got.report.rolled_back_devices, 2u);
    EXPECT_EQ(got.report.halted_devices, 10u);
}

TEST(ShardFaultPathTest, PausingBreakerTripsUntilItEscalatesToAnAbort) {
    // A 0.6-loss burst over the first 120 s, with 3 retransmissions per
    // chunk, sinks most attempts. The breaker pauses the first wave three
    // times; the fourth trip exceeds breaker_max_trips and aborts, halting
    // the two waves never released.
    CampaignSpec spec;
    spec.devices = 12;
    spec.faults = [](sim::ChaosPlan& plan) { plan.add_loss_burst(0.0, 120.0, 0.6); };
    spec.tune = [](FleetPolicy& policy) {
        policy.max_attempts = 6;
        policy.transport_max_retries = 3;
        policy.breaker_failure_rate = 0.3;
        policy.breaker_min_failures = 1;
        policy.breaker_abort = false;
        policy.breaker_pause_s = 30.0;
    };
    const RunResult got = run_battery(spec, kGoldenBreakerTrips);
    ASSERT_EQ(got.report.breaker_trips.size(), 4u);
    for (std::size_t k = 0; k < 3; ++k) EXPECT_FALSE(got.report.breaker_trips[k].aborted);
    EXPECT_TRUE(got.report.breaker_trips[3].aborted);
    EXPECT_EQ(got.report.halted_devices, 8u);
    // The pins cover the trips: the report fingerprint mixes each one.
    CampaignReport moved = got.report;
    moved.breaker_trips[1].t += 1.0;
    EXPECT_NE(moved.fingerprint(), got.report.fingerprint());
}

TEST(ShardPoolTest, TasksOnOneShardRunInFifoOrder) {
    std::vector<std::vector<int>> seen(4);
    {
        sim::ShardPool pool(4);
        ASSERT_EQ(pool.shards(), 4u);
        for (int round = 0; round < 64; ++round) {
            for (std::size_t s = 0; s < 4; ++s) {
                pool.submit(s, [&seen, s, round] { seen[s].push_back(round); });
            }
        }
    }  // the destructor joins once every queued task has run
    for (std::size_t s = 0; s < 4; ++s) {
        ASSERT_EQ(seen[s].size(), 64u) << "shard " << s;
        EXPECT_TRUE(std::is_sorted(seen[s].begin(), seen[s].end()))
            << "shard " << s << " reordered its queue";
    }
}

TEST(ShardPoolTest, DestructorRunsEveryQueuedTask) {
    // SegmentSource::join() relies on this: destroying the pool is the
    // barrier, so no task submitted before it is dropped.
    std::atomic<int> done{0};
    {
        sim::ShardPool pool(2);
        for (int i = 0; i < 100; ++i) {
            pool.submit(i % 2, [&done] { ++done; });
        }
    }
    EXPECT_EQ(done.load(), 100);
}

// ------------------------------------------------- chaos regressions

TEST(ChaosRegionTest, RegionWindowsArePureInSeedRegionAndTime) {
    sim::ChaosSpec cs;
    cs.seed = 7;
    cs.horizon_s = 300.0;
    cs.regions = 4;
    cs.region_outages = 3;
    cs.region_outage_duration_s = 25.0;
    const sim::ChaosPlan a = sim::ChaosPlan::generate(cs);
    const sim::ChaosPlan b = sim::ChaosPlan::generate(cs);

    // Warm b up with a scrambled query order first: query history must not
    // matter — b's answers below still match a's straight sweep.
    for (unsigned r = 4; r-- > 0;) {
        for (double t = 300.0; t > 0.0; t -= 13.0) (void)b.region_down(r, t);
    }
    bool any_down = false;
    for (unsigned r = 0; r < 4; ++r) {
        for (double t = 0.0; t < 300.0; t += 7.5) {
            EXPECT_EQ(a.region_down(r, t), b.region_down(r, t));
            if (a.region_down(r, t)) any_down = true;
        }
    }
    EXPECT_TRUE(any_down) << "spec drew no regional windows at all";

    // Distinct regions draw distinct windows (overwhelmingly likely with 3
    // windows in 300 s; equality would mean the sub-streams collide).
    std::vector<std::vector<bool>> profile(4);
    for (unsigned r = 0; r < 4; ++r) {
        for (double t = 0.0; t < 300.0; t += 1.0) {
            profile[r].push_back(a.region_down(r, t));
        }
    }
    EXPECT_NE(profile[0], profile[1]);
}

TEST(ChaosRegionTest, GeneratedRegionsAreTheOnlyOnesThatGoDown) {
    // Windows are drawn for regions 0 .. regions-1 (the campaign's edge
    // count) and for no other region.
    sim::ChaosSpec cs;
    cs.seed = 7;
    cs.horizon_s = 300.0;
    cs.regions = 2;
    cs.region_outages = 6;
    cs.region_outage_duration_s = 40.0;
    const sim::ChaosPlan plan = sim::ChaosPlan::generate(cs);
    bool any_down = false;
    unsigned beyond_down = 0;  // instants some region >= 2 read down
    for (double t = 0.0; t < 400.0; t += 0.5) {
        any_down = any_down || plan.region_down(0, t) || plan.region_down(1, t);
        for (unsigned r = 2; r < 8; ++r) beyond_down += plan.region_down(r, t) ? 1 : 0;
    }
    EXPECT_TRUE(any_down) << "spec drew no regional windows at all";
    EXPECT_EQ(beyond_down, 0u);
}

TEST(ChaosRegionTest, PinnedAndGeneratedWindowsAnswerThroughOneList) {
    sim::ChaosSpec cs;
    cs.seed = 7;
    cs.horizon_s = 300.0;
    cs.regions = 2;
    cs.region_outages = 1;
    cs.region_outage_duration_s = 25.0;
    const sim::ChaosPlan generated = sim::ChaosPlan::generate(cs);
    sim::ChaosPlan pinned = generated;
    pinned.add_region_outage(1, 500.0, 510.0);  // past the horizon: no overlap
    pinned.add_region_outage(3, 20.0, 30.0);    // a region generate() left alone

    // The pinned windows answer...
    EXPECT_TRUE(pinned.region_down(1, 500.0));
    EXPECT_FALSE(pinned.region_down(1, 510.0));
    EXPECT_TRUE(pinned.region_down(3, 25.0));
    EXPECT_FALSE(generated.region_down(1, 500.0));
    EXPECT_FALSE(generated.region_down(3, 25.0));
    // ...beside the generated ones, which they leave as they were.
    bool any_down = false;
    for (unsigned r = 0; r < 2; ++r) {
        for (double t = 0.0; t < 330.0; t += 0.5) {
            EXPECT_EQ(pinned.region_down(r, t), generated.region_down(r, t))
                << "region " << r << " at t=" << t;
            any_down = any_down || generated.region_down(r, t);
        }
    }
    EXPECT_TRUE(any_down) << "spec drew no regional windows at all";
    // And both kinds are part of the plan.
    EXPECT_NE(pinned.fingerprint(), generated.fingerprint());
}

TEST(ChaosRegionTest, ClockDriftIsPurePerDeviceAndBounded) {
    sim::ChaosSpec cs;
    cs.seed = 11;
    cs.clock_drift_ppm = 50.0;
    const sim::ChaosPlan a = sim::ChaosPlan::generate(cs);
    const sim::ChaosPlan b = sim::ChaosPlan::generate(cs);
    bool varies = false;
    for (std::uint32_t id = 1; id <= 200; ++id) {
        const double rate = a.device_clock_rate(id);
        EXPECT_EQ(rate, b.device_clock_rate(id));
        EXPECT_GE(rate, 1.0 - 50.0e-6);
        EXPECT_LE(rate, 1.0 + 50.0e-6);
        if (rate != a.device_clock_rate(1)) varies = true;
    }
    EXPECT_TRUE(varies) << "every device drew the identical rate";

    // Unconfigured drift is *exactly* 1.0 — the fleet engine relies on that
    // to keep undrifted clock-view arithmetic bit-identical to pre-drift.
    sim::ChaosSpec plain;
    plain.seed = 11;
    const sim::ChaosPlan c = sim::ChaosPlan::generate(plain);
    for (std::uint32_t id = 1; id <= 50; ++id) {
        EXPECT_EQ(c.device_clock_rate(id), 1.0);
    }
}

TEST(ChaosRegionTest, LegacyPlanFingerprintUnchangedByNewKnobs) {
    sim::ChaosSpec legacy;
    legacy.seed = 21;
    legacy.outages = 2;
    legacy.loss_bursts = 1;
    const std::uint64_t base = sim::ChaosPlan::generate(legacy).fingerprint();

    // Regenerating the identical spec is stable.
    EXPECT_EQ(base, sim::ChaosPlan::generate(legacy).fingerprint());

    // Configuring regional windows or drift changes the fingerprint.
    sim::ChaosSpec regions = legacy;
    regions.regions = 2;
    regions.region_outages = 1;
    EXPECT_NE(base, sim::ChaosPlan::generate(regions).fingerprint());
    sim::ChaosSpec drift = legacy;
    drift.clock_drift_ppm = 30.0;
    EXPECT_NE(base, sim::ChaosPlan::generate(drift).fingerprint());
}

TEST(ChaosRegionTest, DriftAndRegionCampaignReplaysByteIdentically) {
    CampaignSpec spec;
    spec.devices = 8;
    spec.chaos = true;  // includes 40 ppm drift
    spec.edges = 2;
    RunResult a, b;
    run_campaign(spec, a);
    run_campaign(spec, b);
    expect_identical(a, b);
}

// ---------------------------------------------------- verify memo

/// RAII: the memo is process-global state; never leak it into other tests.
struct MemoGuard {
    ~MemoGuard() {
        crypto::set_verify_memo_enabled(false);
        crypto::verify_memo_reset();
    }
};

TEST(VerifyMemoTest, DisabledByDefaultAndInvisibleToResults) {
    MemoGuard guard;
    ASSERT_FALSE(crypto::verify_memo_enabled());

    CampaignSpec spec;
    spec.devices = 6;
    RunResult off;
    run_campaign(spec, off);
    const crypto::VerifyMemoStats before = crypto::verify_memo_stats();
    EXPECT_EQ(before.hits, 0u);  // default-off: the memo never engaged

    crypto::set_verify_memo_enabled(true);
    crypto::verify_memo_reset();
    RunResult on;
    run_campaign(spec, on);
    const crypto::VerifyMemoStats after = crypto::verify_memo_stats();
    crypto::set_verify_memo_enabled(false);

    // Identical campaign output — the memo only skips re-running a kernel
    // on a (key, digest, signature) triple it has already proven.
    expect_identical(off, on);
    EXPECT_GT(after.hits, 0u) << "fleet campaign produced no repeated verifies";
    EXPECT_GT(after.misses, 0u);
}

/// One signed claim: the (key, digest, signature) triple the memo keys on.
struct Claim {
    crypto::PreparedPublicKey key;
    crypto::Sha256Digest digest{};
    crypto::Signature sig{};
};

Claim sign_claim(const char* seed, const char* message) {
    const crypto::PrivateKey key = crypto::PrivateKey::generate(to_bytes(seed));
    Claim c{crypto::PreparedPublicKey(key.public_key()),
            crypto::Sha256::digest(to_bytes(message)), {}};
    c.sig = crypto::ecdsa_sign(key, c.digest);
    return c;
}

Claim forged(Claim c) {
    c.sig[40] ^= 0x01;  // s changes: the signature no longer verifies
    return c;
}

/// A memo-on software backend and one (vendor, server) claim pair.
class VerifyMemoPairTest : public ::testing::Test {
protected:
    VerifyMemoPairTest() {
        crypto::set_verify_memo_enabled(true);
        crypto::verify_memo_reset();
    }

    bool verify_one(const Claim& c) const { return backend_->verify(c.key, c.digest, c.sig); }

    bool verify_pair(const Claim& v, const Claim& s) const {
        return backend_->verify2(v.key, v.digest, v.sig, s.key, s.digest, s.sig);
    }

    /// Counter movement since the last mark().
    crypto::VerifyMemoStats delta() const {
        const crypto::VerifyMemoStats now = crypto::verify_memo_stats();
        return {now.hits - mark_.hits, now.misses - mark_.misses};
    }
    void mark() { mark_ = crypto::verify_memo_stats(); }

    MemoGuard guard_;
    const std::unique_ptr<crypto::CryptoBackend> backend_ = crypto::make_tinycrypt_backend();
    const Claim vendor_ = sign_claim("memo-vendor", "payload v2");
    const Claim server_ = sign_claim("memo-server", "manifest for device 7");
    crypto::VerifyMemoStats mark_;
};

TEST_F(VerifyMemoPairTest, KnownHalfMeansOnlyTheOtherIsVerified) {
    ASSERT_TRUE(verify_one(vendor_));  // the fleet-wide half, memoized
    mark();
    crypto::ct::trace_begin();
    EXPECT_TRUE(verify_pair(vendor_, server_));
    const std::vector<std::uint16_t> pair_ops = crypto::ct::trace_take();
    EXPECT_EQ(delta().hits, 1u);
    EXPECT_EQ(delta().misses, 1u);

    // The pair cost exactly one single verification of the server half:
    // the same group operations, not the four-point batch walk.
    crypto::ct::trace_begin();
    EXPECT_TRUE(crypto::ecdsa_verify(server_.key, server_.digest, server_.sig));
    const std::vector<std::uint16_t> single_ops = crypto::ct::trace_take();
    EXPECT_FALSE(single_ops.empty());
    EXPECT_EQ(pair_ops, single_ops);
}

TEST_F(VerifyMemoPairTest, ForgedServerHalfIsMemoizedAsRejected) {
    const Claim bad_server = forged(server_);
    ASSERT_TRUE(verify_one(vendor_));
    mark();
    EXPECT_FALSE(verify_pair(vendor_, bad_server));
    EXPECT_EQ(delta().hits, 1u);
    EXPECT_EQ(delta().misses, 1u);

    // The forged half's own verdict is in the memo: false, as a hit.
    EXPECT_FALSE(verify_one(bad_server));
    EXPECT_EQ(delta().hits, 2u);
    EXPECT_EQ(delta().misses, 1u);
}

TEST_F(VerifyMemoPairTest, KnownInvalidVendorHalfStillMemoizesTheServerHalf) {
    const Claim bad_vendor = forged(vendor_);
    ASSERT_FALSE(verify_one(bad_vendor));  // memoized as invalid
    mark();
    EXPECT_FALSE(verify_pair(bad_vendor, server_));
    EXPECT_EQ(delta().hits, 1u);
    EXPECT_EQ(delta().misses, 1u);

    // The server half was verified alone and memoized valid.
    EXPECT_TRUE(verify_one(server_));
    EXPECT_EQ(delta().hits, 2u);
    EXPECT_EQ(delta().misses, 1u);
}

TEST_F(VerifyMemoPairTest, ConcurrentFirstLookupsOfOneTripleCountOneMiss) {
    // Four threads verify the same unseen triple at once. When they run in
    // parallel, each misses the lookup and runs the kernel, but only the
    // insert that wins counts a miss; the others count hits.
    constexpr unsigned kThreads = 4;
    std::atomic<unsigned> ready{0};
    std::atomic<unsigned> valid{0};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) std::this_thread::yield();
            if (verify_one(vendor_)) valid.fetch_add(1);
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(valid.load(), kThreads);
    EXPECT_EQ(delta().misses, 1u);
    EXPECT_EQ(delta().hits, kThreads - 1);
}

// ------------------------------------------------- synthetic fleets

/// add_synthetic() is the bench's bulk construction path: a fresh 24-device
/// fleet provisioned at v1 on lossless links, then a campaign to v2.
void run_synthetic(unsigned shards, RunResult& out) {
    TestEnv env(4 * 1024);
    FleetCampaign campaign{env.server};
    SyntheticFleetSpec spec;
    spec.count = 24;
    spec.base = env.device_config();
    spec.link = net::ble_gatt();
    spec.app_id = kAppId;
    spec.provision_version = 1;
    ASSERT_EQ(campaign.add_synthetic(spec), Status::kOk);
    ASSERT_EQ(campaign.size(), 24u);
    env.publish_os_update(2, 31);  // published after provisioning
    campaign.set_shards(shards);
    sim::Tracer tracer;
    sim::JsonlSink jsonl(out.trace);
    sim::FingerprintSink fp;
    tracer.add_sink(jsonl);
    tracer.add_sink(fp);
    campaign.set_tracer(&tracer);
    FleetPolicy policy;
    policy.wave_size = 8;
    policy.wave_stagger_s = 2.0;
    out.report = campaign.run(kAppId, policy);
    out.trace_fp = fp.fingerprint();
    out.trace_events = fp.events();
}

TEST(SyntheticFleetTest, AddSyntheticProvisionsAndShardsAgree) {
    // Build a fresh fleet per shard count and expect the pinned outputs at
    // every one.
    const RunResult got = run_battery(run_synthetic, kGoldenSynthetic);
    EXPECT_EQ(got.report.succeeded, 24u);
    // Device identity plumbing: ids and versions came out as specified.
    EXPECT_EQ(got.report.devices.front().device_id, 0x10001u);
    EXPECT_EQ(got.report.devices.back().device_id, 0x10001u + 23u);
    for (const CampaignDeviceResult& d : got.report.devices) {
        EXPECT_EQ(d.final_version, 2u);
    }
}

/// bench/fleet_scale's device: 16 KiB of flash in 1 KiB sectors, a 4 KiB
/// bootloader region and two 6 KiB slots.
const sim::PlatformProfile& fleet_sim_profile() {
    static constexpr sim::PlatformProfile profile{
        .name = "fleet-sim",
        .cpu_mhz = 64.0,
        .internal_flash_bytes = 16 * 1024,
        .ram_bytes = 64 * 1024,
        .flash_sector_bytes = 1024,
        .flash_page_bytes = 256,
        .has_external_flash = false,
        .external_flash_bytes = 0,
        .flash_erase_sector_s = 0.085,
        .flash_write_page_s = 0.0053,
        .flash_read_bandwidth_bps = 16e6,
        .voltage = 3.0,
        .cpu_active_ma = 6.3,
        .radio_tx_ma = 16.4,
        .radio_rx_ma = 11.7,
        .flash_ma = 7.0,
        .sleep_ma = 0.003,
    };
    return profile;
}

TEST(SyntheticFleetTest, DevicesHoldOnlyTheSectorsTheyWrote) {
    // Provisioning writes 3 sectors per device, 2 of which hold the same
    // factory image on every device and point at one shared copy; the
    // rollout writes 3 more. The fleet is added in two calls, as perfbench
    // adds it in batches: the first device alone owns all 3 of its sectors
    // until later devices share 2 of them. Shard workers step devices that
    // read the same shared sectors concurrently.
    for (const unsigned shards : {0u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        TestEnv env(2 * 1024);
        FleetCampaign campaign{env.server};
        SyntheticFleetSpec spec;
        spec.count = 1;
        spec.base = env.device_config();
        spec.base.platform = &fleet_sim_profile();
        spec.base.bootloader_reserved = 4 * 1024;
        spec.base.enable_differential = false;
        spec.link = net::ble_gatt();
        spec.app_id = kAppId;
        spec.provision_version = 1;
        ASSERT_EQ(campaign.add_synthetic(spec), Status::kOk);
        EXPECT_EQ(campaign.device(0).internal_flash().resident_bytes(), 3u * 1024);
        spec.count = 63;
        spec.first_device_id += 1;
        spec.base.seed += 1;
        ASSERT_EQ(campaign.add_synthetic(spec), Status::kOk);
        ASSERT_EQ(campaign.size(), 64u);
        for (std::size_t i = 0; i < campaign.size(); ++i) {
            EXPECT_EQ(campaign.device(i).internal_flash().resident_bytes(), 1u * 1024) << i;
        }

        env.publish_os_update(2, 31);
        campaign.set_shards(shards);
        FleetPolicy policy;
        policy.wave_size = 16;
        policy.wave_stagger_s = 2.0;
        const CampaignReport report = campaign.run(kAppId, policy);
        ASSERT_EQ(report.succeeded, 64u);
        for (std::size_t i = 0; i < campaign.size(); ++i) {
            EXPECT_EQ(campaign.device(i).internal_flash().resident_bytes(), 4u * 1024) << i;
        }
    }
}

/// The fleet of the parallel-provisioning tests: 48 fleet-sim devices at
/// v1. One add_synthetic call builds them on worker threads; a call with
/// count = 1 provisions its one device alone.
constexpr std::size_t kParallelFleet = 48;

SyntheticFleetSpec parallel_spec(const TestEnv& env) {
    SyntheticFleetSpec spec;
    spec.count = kParallelFleet;
    spec.base = env.device_config();
    spec.base.platform = &fleet_sim_profile();
    spec.base.bootloader_reserved = 4 * 1024;
    spec.base.enable_differential = false;
    spec.link = net::ble_gatt();
    spec.app_id = kAppId;
    spec.provision_version = 1;
    return spec;
}

/// Adds `spec`'s devices in one call, or in one call per device with the
/// same ids and seeds.
void provision(FleetCampaign& campaign, const SyntheticFleetSpec& spec, bool one_call) {
    if (one_call) {
        ASSERT_EQ(campaign.add_synthetic(spec), Status::kOk);
        return;
    }
    for (std::size_t k = 0; k < spec.count; ++k) {
        SyntheticFleetSpec one = spec;
        one.count = 1;
        one.first_device_id = spec.first_device_id + static_cast<std::uint32_t>(k);
        one.base.seed = spec.base.seed + k;
        ASSERT_EQ(campaign.add_synthetic(one), Status::kOk);
    }
}

/// Both slots of every device, read with the flash detached from the
/// device's clock and meter, so the rollout afterwards starts from the
/// same device time.
std::vector<Bytes> slot_bytes(FleetCampaign& campaign) {
    std::vector<Bytes> out;
    for (std::size_t i = 0; i < campaign.size(); ++i) {
        Device& device = campaign.device(i);
        device.internal_flash().attach(nullptr, nullptr);
        for (const std::uint32_t id : {0u, 1u}) {
            const slots::SlotConfig* slot = device.slots().slot(id);
            Bytes bytes(slot->size);
            EXPECT_EQ(slot->device->read(slot->offset, bytes), Status::kOk);
            out.push_back(std::move(bytes));
        }
        device.internal_flash().attach(&device.clock(), &device.meter());
    }
    return out;
}

TEST(SyntheticFleetTest, ParallelProvisioningMatchesOneDeviceCalls) {
    // One add_synthetic call provisions the fleet on worker threads; 48
    // one-device calls provision it one device at a time. From the same
    // seeds both must leave the same fleet: each device's private sectors
    // and slot bytes, the server's counters, the verify-memo counters, and
    // the rollout after it, at 0 and 4 shards.
    MemoGuard guard;
    crypto::set_verify_memo_enabled(true);
    struct Provisioned {
        std::vector<std::uint64_t> resident;
        std::vector<Bytes> slots;
        server::ServerStats server;
        crypto::VerifyMemoStats memo;
        std::uint64_t fingerprint = 0;
    };
    for (const unsigned shards : {0u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        Provisioned fleets[2];
        for (const bool one_call : {true, false}) {
            TestEnv env(2 * 1024);
            FleetCampaign campaign{env.server};
            crypto::verify_memo_reset();
            provision(campaign, parallel_spec(env), one_call);
            ASSERT_EQ(campaign.size(), kParallelFleet);
            Provisioned& p = fleets[one_call ? 0 : 1];
            p.memo = crypto::verify_memo_stats();
            p.server = env.server.stats();
            for (std::size_t i = 0; i < campaign.size(); ++i) {
                EXPECT_EQ(campaign.device(i).identity().device_id, 0x10001u + i);
                p.resident.push_back(campaign.device(i).internal_flash().resident_bytes());
            }
            p.slots = slot_bytes(campaign);

            env.publish_os_update(2, 31);
            campaign.set_shards(shards);
            FleetPolicy policy;
            policy.wave_size = 16;
            policy.wave_stagger_s = 2.0;
            const CampaignReport report = campaign.run(kAppId, policy);
            EXPECT_EQ(report.succeeded, kParallelFleet);
            p.fingerprint = report.fingerprint();
        }
        const Provisioned& parallel = fleets[0];
        const Provisioned& alone = fleets[1];
        EXPECT_EQ(parallel.resident, alone.resident);
        EXPECT_TRUE(parallel.slots == alone.slots);
        EXPECT_EQ(parallel.server.requests, alone.server.requests);
        EXPECT_EQ(parallel.server.sign_ops, alone.server.sign_ops);
        EXPECT_EQ(parallel.server.response_hits, alone.server.response_hits);
        EXPECT_EQ(parallel.server.response_misses, alone.server.response_misses);
        EXPECT_EQ(parallel.server.delta_generations, alone.server.delta_generations);
        EXPECT_EQ(parallel.server.requests, kParallelFleet);
        // Each first boot looks up both halves of its double signature:
        // the one vendor triple and the device's own server triple.
        EXPECT_EQ(parallel.memo.misses, alone.memo.misses);
        EXPECT_EQ(parallel.memo.hits, alone.memo.hits);
        EXPECT_EQ(parallel.memo.misses, 1u + kParallelFleet);
        EXPECT_EQ(parallel.memo.hits, kParallelFleet - 1);
        EXPECT_EQ(parallel.fingerprint, alone.fingerprint);
    }
}

TEST(SyntheticFleetTest, FailedProvisioningKeepsOnlyTheDevicesBeforeTheFailure) {
    // The share source fails: add_synthetic returns before any worker
    // starts, so the server answered one request.
    {
        TestEnv env(2 * 1024);
        FleetCampaign campaign{env.server};
        SyntheticFleetSpec spec = parallel_spec(env);
        spec.provision_version = 9;  // never published
        EXPECT_EQ(campaign.add_synthetic(spec), Status::kNotFound);
        EXPECT_EQ(campaign.size(), 0u);
        EXPECT_EQ(env.server.stats().requests, 1u);
    }
    // Devices 5 and 9 fail on workers: their factory images come sealed to
    // a registered key and cannot boot. The call returns device 5's status,
    // as a one-device call for it does, and keeps devices 0 to 4 alone.
    const auto seal_to = [](TestEnv& env, std::uint32_t device_id) {
        env.server.set_encryption_enabled(true);
        Bytes seed = to_bytes("sealed-factory-image");
        put_le32(seed, device_id);
        env.server.register_device_key(device_id,
                                       crypto::PrivateKey::generate(seed).public_key());
    };
    TestEnv env(2 * 1024), lone(2 * 1024);
    FleetCampaign campaign{env.server}, reference{lone.server};
    SyntheticFleetSpec spec = parallel_spec(env);
    spec.count = 16;
    seal_to(env, spec.first_device_id + 5);
    seal_to(env, spec.first_device_id + 9);
    seal_to(lone, spec.first_device_id + 5);
    SyntheticFleetSpec device5 = parallel_spec(lone);
    device5.count = 1;
    device5.first_device_id += 5;
    device5.base.seed += 5;
    const Status expected = reference.add_synthetic(device5);
    ASSERT_NE(expected, Status::kOk);
    EXPECT_EQ(campaign.add_synthetic(spec), expected);
    ASSERT_EQ(campaign.size(), 5u);
    for (std::size_t i = 0; i < campaign.size(); ++i) {
        EXPECT_EQ(campaign.device(i).identity().device_id, spec.first_device_id + i);
    }
}

TEST(VerifyMemoTest, CountersMatchAtEveryShardCount) {
    // A miss is counted only by the insert that wins, so the counters are
    // a function of the campaign, not of how shard workers interleave
    // their first lookups of the shared vendor triple. That interleaving
    // depends on timing: counters that counted every failed lookup as a
    // miss pass here (and in the concurrent-lookup test above) whenever
    // the workers happen not to overlap.
    MemoGuard guard;
    crypto::set_verify_memo_enabled(true);
    for (unsigned shards : {0u, 1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        crypto::verify_memo_reset();
        RunResult run;
        run_synthetic(shards, run);
        ASSERT_EQ(run.report.succeeded, 24u);
        for (const CampaignDeviceResult& d : run.report.devices) ASSERT_EQ(d.attempts, 1u);
        // Distinct triples: the one v2 vendor signature, plus one
        // token-bound server signature per session (one per device). The
        // agent and the bootloader each check both: 4 lookups per device.
        EXPECT_EQ(run.report.verify_memo.misses, 1u + 24u);
        EXPECT_EQ(run.report.verify_memo.hits, 4u * 24u - (1u + 24u));
    }
}

}  // namespace
}  // namespace upkit::core
