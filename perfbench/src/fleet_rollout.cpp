// fleet_rollout: the fleet engine end to end. Each repetition provisions a
// fresh synthetic fleet at v1 and rolls v2 out with a gated canary and
// staged waves over two regional edges. Every device costs one server
// signature at provisioning and one at rollout, plus its device-side
// verifications, so P-256 carries much of the host time; the 2 KiB images
// keep the byte path out of the way.
//
// The timed rollout runs on the inline engine, on one thread, split into
// the host-time gaps between its trace events (GapClock). A whole rollout
// on the 4-thread sharded engine cannot be split, and on 4 shared vCPUs its
// fastest repetition moved by a quarter from run to run. The sharded engine
// runs in the traced run, for sim.shard_speedup and for the output check
// across shard counts.
#include <cstdio>

#include "core/fleet.hpp"
#include "crypto/backend.hpp"
#include "server/vendor_server.hpp"
#include "sim/firmware.hpp"
#include "sim/platform.hpp"
#include "sim/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace upkit;

namespace {

constexpr std::size_t kDevices = 1536;
/// Devices per timed provisioning batch (kDevices / 24).
constexpr std::size_t kBatchDevices = 64;
/// Consecutive devices per latency item (kDevices / 192).
constexpr std::size_t kGroupDevices = 8;
/// Shard workers of the traced run's sharded repetition: with the
/// coordinator, one thread per core on 4 cores.
constexpr unsigned kShards = 3;
constexpr unsigned kEdges = 2;
constexpr std::uint32_t kAppId = 0xF1EE7;
constexpr std::size_t kImageBytes = 2 * 1024;

/// The 16 KiB "fleet-sim" MCU of bench/fleet_scale.cpp: 4 KiB bootloader and
/// two ~6 KiB slots hold the 2 KiB images.
const sim::PlatformProfile& fleet_profile() {
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

struct Inputs {
    Bytes v1;
    Bytes v2;
    std::string vendor_seed;
    std::string server_seed;
    std::uint32_t first_device_id = 0;
    std::uint64_t device_seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
    Inputs in;
    in.v1 = sim::generate_firmware({.size = kImageBytes, .seed = derive_seed(seed, 1)});
    in.v2 = sim::mutate_app_change(in.v1, derive_seed(seed, 2), 512);
    in.vendor_seed = "perfbench-fleet-vendor-" + std::to_string(seed);
    in.server_seed = "perfbench-fleet-server-" + std::to_string(seed);
    in.first_device_id = 0x100000 + static_cast<std::uint32_t>(derive_seed(seed, 3) % 0x100000);
    in.device_seed = derive_seed(seed, 4);
    return in;
}

/// Canary of 48, then waves of 372 promoted at >= 95 % success; a breaker
/// that would pause at 25 % failures (never trips: nothing fails here).
core::FleetPolicy rollout_policy() {
    core::FleetPolicy policy;
    policy.canary_size = 48;
    policy.promote_success_rate = 0.95;
    policy.wave_size = 372;
    policy.wave_stagger_s = 5.0;
    policy.breaker_failure_rate = 0.25;
    policy.breaker_abort = false;
    return policy;
}

/// Host clock on the trace of an inline (unsharded) campaign. The inline
/// engine emits the same events in the same order in every repetition, so
/// gap k, the host time that ends in event k, is the same work in every
/// repetition: a step whose minimum StepMinima can take. The first gap
/// starts where run() is called and the last ends where it returns, so the
/// gaps add up to the whole call.
///
/// A gap is charged to the device whose event ends it (0: a campaign-level
/// event) and, with a span recorder, named: the gap that ends in
/// kServerCache right after kQueueExit is prepare_update; a gap ending in a
/// device's session or FSM event is the session step that emitted it; every
/// other gap is the engine's own work. Steps that emit no event, such as
/// payload chunks, are charged to whatever event comes next, which may be
/// another device's, so the split is approximate at the step level.
class GapClock final : public sim::TraceSink {
public:
    struct Totals {
        double prepare_s = 0.0;
        double session_s = 0.0;
        std::uint64_t prepares = 0;
    };

    /// `expected_gaps` sizes the buffers up front, so that no gap pays for
    /// their growth.
    explicit GapClock(std::size_t expected_gaps, SpanRecorder* spans = nullptr)
        : spans_(spans) {
        gaps_s_.reserve(expected_gaps + 1);
        devices_.reserve(expected_gaps + 1);
    }

    /// Starts the clock at `t`; gap spans become children of `parent`.
    void start(Clock::time_point t, std::int32_t parent) {
        last_ = t;
        parent_ = parent;
    }

    void on_event(const sim::TraceEvent& event) override {
        const Clock::time_point now = Clock::now();
        const double gap = seconds_between(last_, now);
        const char* name = "core.engine";
        switch (event.type) {
            case sim::TraceType::kServerCache:
                if (previous_ == sim::TraceType::kQueueExit) {
                    name = "server.prepare_update";
                    totals_.prepare_s += gap;
                    ++totals_.prepares;
                }
                break;
            case sim::TraceType::kSessionPhase:
            case sim::TraceType::kSessionEnd:
            case sim::TraceType::kFsmTransition:
            case sim::TraceType::kTrialBoot:
            case sim::TraceType::kTokenRefresh:
                name = "core.session_step";
                totals_.session_s += gap;
                break;
            default:
                break;
        }
        close_gap(now, gap, event.device_id, name);
        previous_ = event.type;
    }

    /// Closes the last gap at `t`, where run() returned.
    void stop(Clock::time_point t) {
        close_gap(t, seconds_between(last_, t), 0, "core.engine");
    }

    const std::vector<double>& gaps_s() const { return gaps_s_; }
    /// The device each gap is charged to (0: campaign-level).
    const std::vector<std::uint32_t>& devices() const { return devices_; }
    const Totals& totals() const { return totals_; }

private:
    void close_gap(Clock::time_point now, double gap, std::uint32_t device, const char* name) {
        gaps_s_.push_back(gap);
        devices_.push_back(device);
        if (spans_ != nullptr) {
            spans_->add(name, spans_->to_us(last_), spans_->to_us(now), parent_, device);
        }
        last_ = now;
    }

    SpanRecorder* spans_;
    Clock::time_point last_{};
    std::int32_t parent_ = -1;
    sim::TraceType previous_{};
    Totals totals_;
    std::vector<double> gaps_s_;
    std::vector<std::uint32_t> devices_;
};

struct Rep {
    /// Keys and v1, then each provisioning batch, then v2 and the engine's
    /// configuration.
    std::vector<double> setup_steps_s;
    double provision_s = 0.0;
    double run_s = 0.0;
    core::CampaignReport report;
};

/// One repetition, rebuilt from the inputs: keys, releases, fleet, rollout.
/// With a clock, the rollout is traced into it (inline engine only); with a
/// span recorder too, its gaps and the provisioning batches become spans.
Rep run_rep(const Inputs& in, unsigned shards, GapClock* clock, SpanRecorder* spans) {
    Rep rep;
    Clock::time_point t0 = Clock::now();
    // The verify memo is process-global: without a reset every repetition
    // after the first would verify nothing but memo hits.
    crypto::verify_memo_reset();
    server::VendorServer vendor(to_bytes(in.vendor_seed));
    server::UpdateServer server(to_bytes(in.server_seed));
    server.set_vendor_key(vendor.public_key());
    must(server.publish(vendor.create_release(in.v1, {.version = 1, .app_id = kAppId})),
         "publish v1");
    rep.setup_steps_s.push_back(seconds_since(t0));

    // Provisioned in equal batches, each timed on its own; batch b holds
    // devices b * kBatchDevices onwards, exactly as one add_synthetic call
    // over the whole fleet would build them.
    core::FleetCampaign campaign(server);
    core::SyntheticFleetSpec spec;
    spec.count = kBatchDevices;
    spec.base.platform = &fleet_profile();
    spec.base.layout = core::SlotLayout::kAB;
    spec.base.bootloader_reserved = 4 * 1024;
    spec.base.enable_differential = false;
    spec.base.calibrated_costs = false;  // simulated outputs stay pure in the seed
    spec.base.vendor_key = vendor.public_key();
    spec.base.server_key = server.public_key();
    spec.link = net::ble_gatt();
    spec.app_id = kAppId;
    spec.provision_version = 1;
    for (std::size_t first = 0; first < kDevices; first += kBatchDevices) {
        spec.base.seed = in.device_seed + first;
        spec.first_device_id = in.first_device_id + static_cast<std::uint32_t>(first);
        const Clock::time_point tp = Clock::now();
        must(campaign.add_synthetic(spec), "add_synthetic");
        const Clock::time_point tp_end = Clock::now();
        rep.setup_steps_s.push_back(seconds_between(tp, tp_end));
        rep.provision_s += seconds_between(tp, tp_end);
        if (spans != nullptr) {
            spans->add("core.add_synthetic", spans->to_us(tp), spans->to_us(tp_end), -1, first);
        }
    }

    t0 = Clock::now();
    must(server.publish(vendor.create_release(in.v2, {.version = 2, .app_id = kAppId})),
         "publish v2");
    // Constant service model, never ServerModel::calibrate(): simulated
    // time must not depend on how fast this host signs.
    server.set_model({.concurrency = 8, .service_time_s = 0.05});
    campaign.set_edges({.edges = kEdges,
                        .model = {.concurrency = 8, .service_time_s = 0.01},
                        .backhaul_rtt_s = 0.05,
                        .backhaul_per_kb_s = 0.001});
    campaign.set_shards(shards);
    campaign.set_event_budget(1000 * kDevices);
    sim::Tracer tracer;
    if (clock != nullptr) {
        tracer.add_sink(*clock);
        campaign.set_tracer(&tracer);
    }
    rep.setup_steps_s.push_back(seconds_since(t0));

    const std::int32_t run_span =
        spans != nullptr ? spans->begin("core.FleetCampaign::run", 0) : -1;
    const Clock::time_point t1 = Clock::now();
    if (clock != nullptr) clock->start(t1, run_span);
    rep.report = campaign.run(kAppId, rollout_policy());
    const Clock::time_point t2 = Clock::now();
    rep.run_s = seconds_between(t1, t2);
    if (clock != nullptr) clock->stop(t2);
    if (spans != nullptr) spans->end(run_span);
    return rep;
}

/// Counts devices that did not end on v2 (one operation per device).
void check_rollout(const core::CampaignReport& report, Result& result) {
    result.attempted += kDevices;
    std::uint64_t converged = 0;
    for (const core::CampaignDeviceResult& d : report.devices) {
        if (d.status == Status::kOk && d.final_version == 2) ++converged;
    }
    if (converged != kDevices) {
        result.failed += kDevices - converged;
        std::fprintf(stderr, "perfbench: fleet_rollout converged %llu of %zu devices\n",
                     static_cast<unsigned long long>(converged), kDevices);
    }
}

unsigned attempts_of(const core::CampaignReport& report) {
    unsigned attempts = 0;
    for (const core::CampaignDeviceResult& d : report.devices) attempts += d.attempts;
    return attempts;
}

Result run_untraced(const Options& options, const Inputs& in) {
    Result result;
    StepMinima setup_s;
    StepMinima gaps_s;
    std::vector<std::uint32_t> gap_devices;
    std::vector<double> run_s;
    std::vector<std::string> outputs;
    result.reps = repeat_for(options.seconds, 5, 400, [&](unsigned i) {
        GapClock clock(gap_devices.size());
        const Rep rep = run_rep(in, 0, &clock, nullptr);
        check_rollout(rep.report, result);
        outputs.push_back(hex_u64(rep.report.fingerprint()));
        gap_devices = clock.devices();
        if (i == 0) return;
        setup_s.add(rep.setup_steps_s);
        gaps_s.add(clock.gaps_s());
        run_s.push_back(rep.run_s);
    });
    check_outputs(outputs, result);

    // A device's host time is the sum of the minima of the gaps charged to
    // it; campaign-level gaps count toward the rollout only.
    const std::vector<double>& gap_min = gaps_s.minima();
    std::vector<double> device_us(kDevices, 0.0);
    double campaign_s = 0.0;
    for (std::size_t k = 0; k < gap_min.size(); ++k) {
        // Device 0 wraps past the fleet's ids, which start at 0x100000.
        const std::uint32_t index = gap_devices[k] - in.first_device_id;
        if (index < kDevices) {
            device_us[index] += 1e6 * gap_min[k];
        } else {
            campaign_s += gap_min[k];
        }
    }
    // Single devices fall into clusters by wave and by their place in the
    // interleaving, so a percentile over devices sits between two clusters
    // and jumps with the seed. The latency item is a group of consecutive
    // devices instead, as a round of four sessions is in device_sessions.
    std::vector<double> group_us(kDevices / kGroupDevices, 0.0);
    for (std::size_t d = 0; d < kDevices; ++d) group_us[d / kGroupDevices] += device_us[d];
    const double rollout_s = gaps_s.total();
    std::printf("fleet_rollout: %zu devices, inline engine, %u edges, %u repetitions\n", kDevices,
                kEdges, result.reps);
    std::printf("  rollout: sum of %zu per-gap minima %.3f s (campaign-level gaps %.3f s);"
                " whole run() min %.3f s, median %.3f s\n",
                gap_min.size(), rollout_s, campaign_s, minimum(run_s), median(run_s));
    std::printf("  host time per device: median %.1f us, 11th-slowest of %zu %.1f us\n",
                median(device_us), kDevices, tail(device_us));
    std::printf("  set-up: sum of per-step minima %.3f s\n", setup_s.total());
    const std::string groups = std::to_string(group_us.size());
    result.metrics = {
        {"setup_s", setup_s.total(), "s"},
        {"items_per_s", kDevices / rollout_s, "1/s", "devices_per_s"},
        {"item_p50_us", median(group_us), "us", "group of 8 devices, p50 of " + groups},
        {"item_tail_us", tail(group_us), "us", "group of 8 devices, p94 of " + groups},
    };
    return result;
}

Result run_traced(const Options& options, const Inputs& in) {
    Result result;
    std::vector<double> inline_s, clocked_s, sharded_s, provision_s;
    std::vector<std::string> outputs;
    std::size_t expected_gaps = 0;
    SpanRecorder spans;
    SpanRecorder best_spans;
    double best_traced_s = 0.0;
    GapClock::Totals best_totals;
    core::CampaignReport best_report;

    result.reps = repeat_for(options.seconds, 2, 100, [&](unsigned i) {
        // Bases: the inline engine untraced (the traced run's own
        // configuration), with the end-to-end run's clock alone, and the
        // sharded engine untraced.
        const Rep base = run_rep(in, 0, nullptr, nullptr);
        check_rollout(base.report, result);
        outputs.push_back(hex_u64(base.report.fingerprint()));
        GapClock clock(expected_gaps);
        const Rep clocked = run_rep(in, 0, &clock, nullptr);
        check_rollout(clocked.report, result);
        outputs.push_back(hex_u64(clocked.report.fingerprint()));
        expected_gaps = clock.gaps_s().size();
        const Rep sharded = run_rep(in, kShards, nullptr, nullptr);
        check_rollout(sharded.report, result);
        outputs.push_back(hex_u64(sharded.report.fingerprint()));

        spans.clear();
        GapClock traced_clock(expected_gaps, &spans);
        Rep traced = run_rep(in, 0, &traced_clock, &spans);
        check_rollout(traced.report, result);
        outputs.push_back(hex_u64(traced.report.fingerprint()));
        if (i == 0) return;
        inline_s.push_back(base.run_s);
        clocked_s.push_back(clocked.run_s);
        sharded_s.push_back(sharded.run_s);
        provision_s.push_back(base.provision_s);
        if (best_traced_s == 0.0 || traced.run_s < best_traced_s) {
            best_traced_s = traced.run_s;
            best_spans = spans;
            best_totals = traced_clock.totals();
            best_report = std::move(traced.report);
        }
    });
    check_outputs(outputs, result);

    const double events = static_cast<double>(best_report.events_processed);
    const double engine_s = best_traced_s - best_totals.prepare_s - best_totals.session_s;
    const unsigned attempts = attempts_of(best_report);
    const std::uint64_t memo_total =
        best_report.verify_memo.hits + best_report.verify_memo.misses;
    const server::ServerStats& stats = best_report.server_stats;

    std::printf("fleet_rollout traced: inline engine, %zu devices, %u repetitions\n", kDevices,
                result.reps);
    print_overhead("fleet_rollout inline engine, fastest repetitions", best_traced_s,
                   minimum(inline_s));
    print_overhead("fleet_rollout end-to-end clock alone, fastest repetitions",
                   minimum(clocked_s), minimum(inline_s));
    std::printf("  shard speedup: inline %.3f s / %u shards %.3f s\n", minimum(inline_s),
                kShards, minimum(sharded_s));
    std::printf("  host time split: prepare_update %.3f s (%llu calls), session steps %.3f s "
                "(%u attempts), engine %.3f s (%llu events)\n",
                best_totals.prepare_s, static_cast<unsigned long long>(best_totals.prepares),
                best_totals.session_s, attempts, engine_s,
                static_cast<unsigned long long>(best_report.events_processed));
    std::printf("  verify memo %llu hits of %llu; response cache %llu hits of %llu requests\n",
                static_cast<unsigned long long>(best_report.verify_memo.hits),
                static_cast<unsigned long long>(memo_total),
                static_cast<unsigned long long>(stats.response_hits),
                static_cast<unsigned long long>(stats.requests));
    print_span_table("fleet_rollout", best_spans);

    const auto ratio = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
    result.metrics = {
        {"core.provision_us", 1e6 * minimum(provision_s) / kDevices, "us"},
        {"server.prepare_update_us",
         1e6 * ratio(best_totals.prepare_s, static_cast<double>(best_totals.prepares)), "us"},
        {"core.session_step_us", 1e6 * ratio(best_totals.session_s, attempts), "us"},
        {"core.engine_self_us_per_event", 1e6 * ratio(engine_s, events), "us"},
        {"sim.shard_speedup", ratio(minimum(inline_s), minimum(sharded_s)), "ratio"},
        {"crypto.verify_memo_hit_ratio",
         ratio(static_cast<double>(best_report.verify_memo.hits),
               static_cast<double>(memo_total)),
         "ratio"},
        {"server.response_hit_ratio",
         ratio(static_cast<double>(stats.response_hits), static_cast<double>(stats.requests)),
         "ratio"},
        {"core.events", events, "count"},
        {"server.sign_ops", static_cast<double>(stats.sign_ops), "count"},
        {"net.bytes_over_air", static_cast<double>(best_report.total_bytes), "bytes"},
    };
    add_crypto_metrics(in.vendor_seed, in.server_seed, in.v2, kAppId,
                       {.device_id = in.first_device_id, .nonce = 1}, result);
    if (!options.spans_out.empty() && !best_spans.write_jsonl(options.spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", options.spans_out.c_str());
    }
    return result;
}

}  // namespace

Result run_fleet_rollout(const Options& options) {
    crypto::set_verify_memo_enabled(true);
    const Inputs in = make_inputs(options.seed);
    return options.trace ? run_traced(options, in) : run_untraced(options, in);
}

}  // namespace perfbench
