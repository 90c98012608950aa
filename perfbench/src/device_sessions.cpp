// device_sessions: the device byte path. The client pumps SessionDriver —
// step() / provide_response(), the loop of UpdateSession::run — for
// nRF52840 devices, cycling through the paper's four update shapes. The
// server's responses are warmed during set-up, so each session costs the
// server one signature and the host time sits in the transport, pipeline,
// codecs, SHA-256, flash, slots and the bootloader.
#include <array>
#include <cstdio>
#include <memory>
#include <string_view>

#include "core/device.hpp"
#include "core/session.hpp"
#include "net/link.hpp"
#include "net/transport.hpp"
#include "server/update_server.hpp"
#include "server/vendor_server.hpp"
#include "sim/firmware.hpp"
#include "sim/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace upkit;

namespace {

struct ShapeSpec {
    const char* name;
    /// Span name of one whole session of this shape (static storage).
    const char* span;
    std::size_t image_bytes;
    core::SlotLayout layout;
    bool pull;  // CoAP blockwise pull; otherwise BLE GATT push
    bool differential;
    bool chunked;
};

constexpr std::array<ShapeSpec, 4> kShapes{{
    {"push_full", "core.session.push_full", 256 * 1024,
     core::SlotLayout::kAB, false, false, false},
    {"pull_static", "core.session.pull_static", 128 * 1024,
     core::SlotLayout::kStaticInternal, true, false, false},
    {"diff", "core.session.diff", 192 * 1024, core::SlotLayout::kAB, true, true,
     false},
    {"chunked", "core.session.chunked", 224 * 1024, core::SlotLayout::kAB,
     false, false, true},
}};

/// Rounds per repetition. A round is one session of each shape, and it is
/// the item whose latency the benchmark reports: session times fall into
/// four tight per-shape groups, so a percentile over sessions would land on
/// a boundary between shapes, while a round's time carries every shape.
/// 100 rounds leave 10 beyond the 11th-slowest, which makes it the p90. A
/// round's devices are built and provisioned (set-up) before its sessions
/// run, which keeps at most four 1 MiB-flash devices alive at a time.
constexpr unsigned kRounds = 100;
constexpr std::uint32_t kAppBase = 0x5E550;

struct Inputs {
    std::array<Bytes, 4> v1;
    std::array<Bytes, 4> v2;
    std::string vendor_seed;
    std::string server_seed;
    std::uint32_t first_device_id = 0;
    std::uint64_t device_seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
    Inputs in;
    for (std::size_t s = 0; s < kShapes.size(); ++s) {
        in.v1[s] = sim::generate_firmware(
            {.size = kShapes[s].image_bytes, .seed = derive_seed(seed, 10 + s)});
        // An application change (~1000 bytes): small deltas and mostly
        // shared chunks for the differential and chunked shapes.
        in.v2[s] = sim::mutate_app_change(in.v1[s], derive_seed(seed, 20 + s));
    }
    in.vendor_seed = "perfbench-sessions-vendor-" + std::to_string(seed);
    in.server_seed = "perfbench-sessions-server-" + std::to_string(seed);
    in.first_device_id = 0x200000 + static_cast<std::uint32_t>(derive_seed(seed, 3) % 0x100000);
    in.device_seed = derive_seed(seed, 4);
    return in;
}

std::uint32_t app_of(std::size_t shape) { return kAppBase + static_cast<std::uint32_t>(shape); }

/// Tracks the session phase from the driver's kSessionPhase events, so the
/// pump can charge each step() to the phase it started in.
class PhaseSink final : public sim::TraceSink {
public:
    void on_event(const sim::TraceEvent& event) override {
        if (event.type == sim::TraceType::kSessionPhase) phase_ = event.to;
    }
    std::string_view phase() const { return phase_; }
    void reset() { phase_ = "start"; }

private:
    std::string_view phase_ = "start";
};

enum class PhaseGroup { kManifest, kPayload, kReboot };

/// Phase names as emitted by SessionDriver, mapped onto span names and the
/// three groups the per-layer metrics report.
struct PhaseName {
    std::string_view phase;
    const char* span;
    PhaseGroup group;
};

constexpr std::array<PhaseName, 9> kPhaseNames{{
    {"start", "core.step.start", PhaseGroup::kManifest},
    {"send-token", "core.step.send-token", PhaseGroup::kManifest},
    {"await-server", "core.step.await-server", PhaseGroup::kManifest},
    {"recv-manifest", "core.step.recv-manifest", PhaseGroup::kManifest},
    {"recv-payload", "core.step.recv-payload", PhaseGroup::kPayload},
    {"reconnect", "core.step.reconnect", PhaseGroup::kPayload},
    {"reboot", "core.step.reboot", PhaseGroup::kReboot},
    {"confirm", "core.step.confirm", PhaseGroup::kReboot},
    {"rollback", "core.step.rollback", PhaseGroup::kReboot},
}};

const PhaseName& phase_name(std::string_view phase) {
    for (const PhaseName& p : kPhaseNames) {
        if (p.phase == phase) return p;
    }
    return kPhaseNames[0];
}

/// Host time of one traced session, per phase group.
struct PhaseTimes {
    double manifest_s = 0.0;
    double payload_s = 0.0;
    double reboot_s = 0.0;
};

struct Tracing {
    SpanRecorder* spans = nullptr;
    PhaseSink* phases = nullptr;
    sim::Tracer* tracer = nullptr;
};

/// One update session, pumped like UpdateSession::run. With tracing, each
/// step() and the prepare_update call become spans under a session span.
core::SessionReport pump_session(core::Device& device, server::UpdateServer& server,
                                 std::uint32_t app_id, const net::LinkParams& link,
                                 std::uint64_t loss_seed, const char* span_name,
                                 std::uint64_t request, const Tracing& tracing,
                                 PhaseTimes* phase_times) {
    net::Transport transport(link, device.clock(), &device.meter(), loss_seed);
    const double offset = device.clock().now();
    SpanRecorder* spans = tracing.spans;
    const std::int32_t session = spans != nullptr ? spans->begin(span_name, request) : -1;
    if (tracing.tracer != nullptr) {
        tracing.phases->reset();
        device.set_tracer(tracing.tracer, offset);
    }
    core::SessionDriver driver(device, transport, tracing.tracer, offset);
    for (;;) {
        const Clock::time_point t0 = spans != nullptr ? Clock::now() : Clock::time_point{};
        const PhaseName& phase =
            spans != nullptr ? phase_name(tracing.phases->phase()) : kPhaseNames[0];
        const core::SessionDriver::StepResult step = driver.step();
        if (spans != nullptr) {
            const Clock::time_point t1 = Clock::now();
            spans->add(phase.span, spans->to_us(t0), spans->to_us(t1), session, request);
            const double d = seconds_between(t0, t1);
            switch (phase.group) {
                case PhaseGroup::kManifest: phase_times->manifest_s += d; break;
                case PhaseGroup::kPayload: phase_times->payload_s += d; break;
                case PhaseGroup::kReboot: phase_times->reboot_s += d; break;
            }
        }
        if (step.want == core::SessionDriver::Want::kFinished) break;
        if (step.want == core::SessionDriver::Want::kServer) {
            const std::int32_t call =
                spans != nullptr ? spans->begin("server.prepare_update", request, session) : -1;
            auto response = server.prepare_update(app_id, driver.token());
            if (spans != nullptr) spans->end(call);
            const double service = response
                                       ? server.model().service_seconds(response->receipt)
                                       : server.model().service_seconds(std::size_t{0});
            device.clock().advance(service);
            driver.provide_response(std::move(response));
        }
    }
    if (tracing.tracer != nullptr) device.set_tracer(nullptr);
    if (spans != nullptr) spans->end(session);
    return driver.report();
}

/// Checks one session and folds its report into the repetition digest.
void check_session(const ShapeSpec& spec, const core::SessionReport& report, Digest& digest,
                   Result& result) {
    ++result.attempted;
    const bool ok = report.status == Status::kOk && report.final_version == 2 &&
                    report.rebooted && report.differential == spec.differential &&
                    report.chunked == spec.chunked;
    if (!ok) {
        ++result.failed;
        std::fprintf(stderr,
                     "perfbench: %s session ended with status %d on v%u (diff %d, chunked %d)\n",
                     spec.name, static_cast<int>(report.status), report.final_version,
                     report.differential, report.chunked);
    }
    digest.mix(static_cast<std::uint64_t>(report.status));
    digest.mix(report.phases.propagation_s);
    digest.mix(report.phases.verification_s);
    digest.mix(report.phases.loading_s);
    digest.mix(report.bytes_over_air);
    digest.mix(static_cast<std::uint64_t>(report.final_version));
    digest.mix(static_cast<std::uint64_t>(report.differential) |
               (std::uint64_t{report.chunked} << 1) | (std::uint64_t{report.rebooted} << 2));
    digest.mix(report.energy_mj);
}

/// Flash activity of a device: bytes written and sectors erased so far.
std::pair<std::uint64_t, std::uint64_t> flash_activity(core::Device& device) {
    std::uint64_t written = device.internal_flash().bytes_written();
    std::uint64_t erases = device.internal_flash().total_erases();
    if (flash::SimFlash* ext = device.external_flash()) {
        written += ext->bytes_written();
        erases += ext->total_erases();
    }
    return {written, erases};
}

struct Rep {
    /// Keys, releases and warm-up, then each round's device builds.
    std::vector<double> setup_steps_s;
    double sessions_s = 0.0;  // summed host time of the session pumps
    /// Every session's pump time, round by round in shape order.
    std::vector<double> session_us;
    std::array<std::vector<double>, 4> shape_us;
    PhaseTimes phases;
    std::uint64_t bytes_over_air = 0;
    std::uint64_t flash_written = 0;
    std::uint64_t flash_erases = 0;
    /// Server work of the sessions themselves (factory provisioning excluded).
    std::uint64_t requests = 0;
    std::uint64_t sign_ops = 0;
    std::uint64_t response_hits = 0;
    std::string output;
};

/// One repetition, rebuilt from the inputs: keys, releases, warm server
/// responses, then kRounds rounds of fresh devices and their sessions.
Rep run_rep(const Inputs& in, const Tracing& tracing, Result& result) {
    Rep rep;
    Digest digest;
    const Clock::time_point t0 = Clock::now();
    server::VendorServer vendor(to_bytes(in.vendor_seed));
    server::UpdateServer server(to_bytes(in.server_seed));
    server.set_vendor_key(vendor.public_key());
    for (std::size_t s = 0; s < kShapes.size(); ++s) {
        for (std::uint16_t v = 1; v <= 2; ++v) {
            must(server.publish(vendor.create_release(v == 1 ? in.v1[s] : in.v2[s],
                                                      {.version = v,
                                                       .app_id = app_of(s),
                                                       .chunked = kShapes[s].chunked})),
                 "publish");
        }
        // Warm the response cache with the token shape this shape's devices
        // send, so a session's server round is one re-signed cache hit.
        manifest::DeviceToken warm{.device_id = in.first_device_id, .nonce = 0,
                                   .current_version = static_cast<std::uint16_t>(
                                       kShapes[s].differential ? 1 : 0)};
        if (kShapes[s].chunked) warm.have = have_list(in.v1[s]);
        must(server.prepare_update(app_of(s), warm).status(), "warm prepare_update");
    }
    rep.setup_steps_s.push_back(seconds_since(t0));

    for (unsigned round = 0; round < kRounds; ++round) {
        const Clock::time_point tb = Clock::now();
        std::array<std::unique_ptr<core::Device>, 4> devices;
        for (std::size_t s = 0; s < kShapes.size(); ++s) {
            const std::uint32_t index = round * 4 + static_cast<std::uint32_t>(s);
            core::DeviceConfig config;
            config.layout = kShapes[s].layout;
            config.device_id = in.first_device_id + index;
            config.app_id = app_of(s);
            config.enable_differential = kShapes[s].differential;
            config.enable_chunked = kShapes[s].chunked;
            config.calibrated_costs = false;  // simulated outputs stay pure in the seed
            config.vendor_key = vendor.public_key();
            config.server_key = server.public_key();
            config.seed = in.device_seed + index;
            devices[s] = std::make_unique<core::Device>(config);
            auto image = server.prepare_update(
                app_of(s), {.device_id = config.device_id, .nonce = 0, .current_version = 0}, 1);
            must(image.status(), "factory image");
            must(devices[s]->provision_factory(*image), "provision_factory");
        }
        rep.setup_steps_s.push_back(seconds_since(tb));

        const server::ServerStats before = server.stats();
        for (std::size_t s = 0; s < kShapes.size(); ++s) {
            core::Device& device = *devices[s];
            const auto flash_before = flash_activity(device);
            const std::uint64_t request = round * 4 + s;
            const Clock::time_point ts = Clock::now();
            const core::SessionReport report = pump_session(
                device, server, app_of(s), kShapes[s].pull ? net::coap_6lowpan() : net::ble_gatt(),
                in.device_seed ^ request, kShapes[s].span, request, tracing, &rep.phases);
            const double us = 1e6 * seconds_since(ts);
            rep.sessions_s += us / 1e6;
            rep.session_us.push_back(us);
            rep.shape_us[s].push_back(us);
            const auto flash_after = flash_activity(device);
            rep.flash_written += flash_after.first - flash_before.first;
            rep.flash_erases += flash_after.second - flash_before.second;
            rep.bytes_over_air += report.bytes_over_air;
            check_session(kShapes[s], report, digest, result);
        }
        const server::ServerStats used = stats_delta(server.stats(), before);
        rep.requests += used.requests;
        rep.sign_ops += used.sign_ops;
        rep.response_hits += used.response_hits;
    }
    rep.output = digest.hex();
    return rep;
}

constexpr unsigned kSessions = kRounds * kShapes.size();

Result run_untraced(const Options& options, const Inputs& in) {
    Result result;
    StepMinima setup_s, session_us;
    std::vector<double> sessions_s;
    std::vector<std::string> outputs;
    result.reps = repeat_for(options.seconds, 5, 400, [&](unsigned i) {
        const Rep rep = run_rep(in, Tracing{}, result);
        outputs.push_back(rep.output);
        if (i == 0) return;
        setup_s.add(rep.setup_steps_s);
        session_us.add(rep.session_us);
        sessions_s.push_back(rep.sessions_s);
    });
    check_outputs(outputs, result);

    // A round's time is the sum of its four sessions' fastest times.
    std::vector<double> round_us(kRounds, 0.0);
    for (std::size_t k = 0; k < session_us.minima().size(); ++k) {
        round_us[k / kShapes.size()] += session_us.minima()[k];
    }
    std::printf("device_sessions: %u rounds of %zu sessions (one per shape) per repetition,"
                " %u repetitions\n",
                kRounds, kShapes.size(), result.reps);
    std::printf("  session pumps: sum of per-session minima %.3f s; per repetition min %.3f s,"
                " median %.3f s\n",
                session_us.total() / 1e6, minimum(sessions_s), median(sessions_s));
    result.metrics = {
        {"setup_s", setup_s.total(), "s"},
        {"items_per_s", 1e6 * kSessions / session_us.total(), "1/s", "sessions_per_s"},
        {"item_p50_us", median(round_us), "us",
         "round (4 sessions) p50 of " + std::to_string(kRounds)},
        {"item_tail_us", tail(round_us), "us",
         "round (4 sessions) p90 of " + std::to_string(kRounds)},
    };
    return result;
}

Result run_traced(const Options& options, const Inputs& in) {
    Result result;
    std::vector<double> untraced_s;
    std::vector<std::string> outputs;
    SpanRecorder spans;
    SpanRecorder best_spans;
    Rep best;
    double best_traced_s = 0.0;
    PhaseSink phases;
    sim::Tracer tracer;
    tracer.add_sink(phases);

    result.reps = repeat_for(options.seconds, 2, 100, [&](unsigned i) {
        const Rep base = run_rep(in, Tracing{}, result);
        outputs.push_back(base.output);
        spans.clear();
        Rep traced = run_rep(in, Tracing{&spans, &phases, &tracer}, result);
        outputs.push_back(traced.output);
        if (i == 0) return;
        untraced_s.push_back(base.sessions_s);
        if (best_traced_s == 0.0 || traced.sessions_s < best_traced_s) {
            best_traced_s = traced.sessions_s;
            best_spans = spans;
            best = std::move(traced);
        }
    });
    check_outputs(outputs, result);

    std::printf("device_sessions traced: %u sessions per repetition, %u repetitions\n",
                kSessions, result.reps);
    print_overhead("device_sessions, fastest repetitions", best_traced_s, minimum(untraced_s));
    print_span_table("device_sessions", best_spans);

    double prepare_us = 0.0;
    std::uint64_t prepares = 0;
    for (const SpanRecorder::Row& row : best_spans.summarize()) {
        if (row.name == "server.prepare_update") {
            prepare_us = row.total_us;
            prepares = row.count;
        }
    }
    const double steps_s = best.phases.manifest_s + best.phases.payload_s + best.phases.reboot_s;
    const auto per_session_us = [](double s) { return 1e6 * s / kSessions; };
    result.metrics = {
        {"core.phase_manifest_us", per_session_us(best.phases.manifest_s), "us"},
        {"core.phase_payload_us", per_session_us(best.phases.payload_s), "us"},
        {"core.phase_reboot_us", per_session_us(best.phases.reboot_s), "us"},
        {"core.session_step_us", per_session_us(steps_s), "us"},
        {"core.session_push_full_us", median(best.shape_us[0]), "us"},
        {"core.session_pull_static_us", median(best.shape_us[1]), "us"},
        {"core.session_diff_us", median(best.shape_us[2]), "us"},
        {"core.session_chunked_us", median(best.shape_us[3]), "us"},
        {"net.bytes_over_air", static_cast<double>(best.bytes_over_air), "bytes"},
        {"flash.bytes_written", static_cast<double>(best.flash_written), "bytes"},
        {"flash.erases", static_cast<double>(best.flash_erases), "count"},
        {"server.prepare_update_us", prepares > 0 ? prepare_us / prepares : 0.0, "us"},
        {"server.sign_ops", static_cast<double>(best.sign_ops), "count"},
        {"server.response_hit_ratio",
         best.requests > 0 ? static_cast<double>(best.response_hits) /
                                 static_cast<double>(best.requests)
                           : 0.0,
         "ratio"},
    };

    // Crypto probe on this workload's keys and its largest image.
    add_crypto_metrics(in.vendor_seed, in.server_seed, in.v2[0], app_of(0),
                       {.device_id = in.first_device_id}, result);
    if (!options.spans_out.empty() && !best_spans.write_jsonl(options.spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", options.spans_out.c_str());
    }
    return result;
}

}  // namespace

Result run_device_sessions(const Options& options) {
    const Inputs in = make_inputs(options.seed);
    return options.trace ? run_traced(options, in) : run_untraced(options, in);
}

}  // namespace perfbench
