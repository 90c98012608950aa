// End-to-end update session: the full Fig. 2 message flow against a
// simulated device, with per-phase time accounting (propagation /
// verification / loading — the breakdown of the paper's Fig. 8a).
//
// The flow is implemented as a resumable, step-driven state machine
// (SessionDriver): every modelled delay — one chunk of airtime, the server's
// service time, the reboot — is one step, after which the driver yields.
// That is what lets a fleet campaign interleave thousands of device sessions
// on one discrete-event timeline (core/fleet.cpp) while a single-device
// experiment simply pumps the driver to completion (UpdateSession::run).
//
// The same session runs both distribution modes; only the link parameters
// differ (push = BLE via smartphone, pull = CoAP via border router), which
// is the paper's point about the architecture being distribution-agnostic.
// An optional interceptor models a compromised proxy that tampers with the
// response in transit.
#pragma once

#include <functional>

#include "core/device.hpp"
#include "net/transport.hpp"
#include "server/update_server.hpp"
#include "sim/trace.hpp"

namespace upkit::core {

struct PhaseBreakdown {
    double propagation_s = 0.0;
    double verification_s = 0.0;
    double loading_s = 0.0;

    double total() const { return propagation_s + verification_s + loading_s; }
};

struct SessionReport {
    /// Overall outcome: kOk means the device now runs the new version.
    Status status = Status::kOk;
    /// Where the update was rejected, if it was.
    bool rejected_before_download = false;
    bool rejected_after_download = false;

    PhaseBreakdown phases;
    bool differential = false;
    /// Content-addressed transfer: only the chunks missing from the device
    /// travelled over the air.
    bool chunked = false;
    /// Air chunks that failed their on-arrival digest check and were
    /// re-requested (per-chunk recovery, not a session failure).
    unsigned chunk_retries = 0;
    std::uint64_t bytes_over_air = 0;
    std::uint16_t final_version = 0;
    bool rebooted = false;
    double energy_mj = 0.0;
    /// Times the payload transfer was resumed after a connection drop.
    unsigned transport_resumes = 0;
    /// Times the device token was re-issued mid-transfer to survive a
    /// server outage window (the transfer continued, never restarted).
    unsigned token_refreshes = 0;
    /// Boot-confirm protocol: the reboot armed a trial, the self-test
    /// confirmed it, or the trial expired and the bootloader reverted.
    bool trial_boot = false;
    bool confirmed = false;
    bool rolled_back = false;
};

/// One update attempt as a resumable state machine.
///
/// Call step() repeatedly. Each call performs the next unit of work on the
/// device — advancing the device's clock and meter exactly as the work
/// costs — and reports how to continue:
///
///   kDelay    the step's virtual time is already applied to the device
///             clock; schedule the next step() at the device's new time (or
///             call immediately).
///   kServer   the device token is uploaded and the driver needs the server
///             response. The owner decides what the server round costs —
///             the fleet engine runs an admission queue and service model,
///             a standalone run charges the model's service time directly —
///             then calls provide_response() and resumes stepping.
///   kFinished report() is final.
///
/// The driver never touches the server itself: server contention is the
/// owner's concern, which is what makes the same driver serve both the
/// uncontended single-device experiments and the contended fleet engine.
class SessionDriver {
public:
    enum class Want { kDelay, kServer, kFinished };

    struct StepResult {
        Want want = Want::kDelay;
    };

    /// `transport` must outlive the driver (UpdateSession owns one; the
    /// fleet engine creates one per attempt).
    SessionDriver(Device& device, net::Transport& transport,
                  sim::Tracer* tracer = nullptr, double trace_offset = 0.0);

    /// Models a compromised smartphone/gateway mutating the response
    /// (applied when the owner provides it).
    void set_interceptor(std::function<void(server::UpdateResponse&)> interceptor) {
        interceptor_ = std::move(interceptor);
    }

    /// Connection-drop resilience: after a transport timeout mid-payload,
    /// the proxy may reconnect and continue from the agent's payload offset
    /// (it still holds the response; the FSM state and pipeline survive a
    /// link drop — only a reboot loses them). 0 disables resuming.
    void set_transport_resumes(unsigned resumes) { transport_resumes_ = resumes; }

    /// Server-outage resilience: tells the driver whether the update server
    /// is currently unreachable. With a probe set, a mid-payload timeout
    /// that coincides with an outage takes the reconnect path — back off,
    /// wait the outage out, refresh the token (fresh nonce, same version,
    /// so the server re-serves the identical payload), and resume the
    /// transfer from the agent's committed offset — instead of burning the
    /// remaining resumes against a dead server. Each reconnect consumes one
    /// transport resume. Without a probe behavior is unchanged.
    void set_outage_probe(std::function<bool()> probe) {
        outage_probe_ = std::move(probe);
    }

    /// Seconds between reconnect probes while waiting out an outage.
    void set_reconnect_backoff(double seconds) { reconnect_backoff_s_ = seconds; }

    /// Chunk-targeted fault injection: when a plan is attached, air chunks
    /// it marks for this device are corrupted on their first delivery (a
    /// local bit flip before the bytes enter the transport), exercising the
    /// agent's per-chunk re-request path. Chunked transfers only.
    void set_chunk_chaos(const sim::ChaosPlan* plan) { chunk_chaos_ = plan; }

    StepResult step();

    /// The uploaded device token; valid once step() returned kServer.
    const manifest::DeviceToken& token() const { return *token_; }

    /// Hands the driver the server's response (or its failure status).
    /// Only legal after step() returned kServer; resumes with step().
    void provide_response(Expected<server::UpdateResponse> response);

    bool finished() const { return phase_ == Phase::kDone; }
    const SessionReport& report() const { return report_; }

private:
    enum class Phase {
        kStart,         // issue the device token
        kSendToken,     // uplink token chunks
        kAwaitServer,   // waiting for provide_response()
        kRecvManifest,  // downlink manifest chunks, verify on last
        kRecvPayload,   // downlink payload chunks through the pipeline
        kReconnect,     // waiting out a server outage, then token refresh
        kReboot,        // reboot + boot-time verification + load
        kConfirm,       // trial boot armed: self-test + confirm_boot()
        kRollback,      // unhealthy: idle to the watchdog, revert on reboot
        kDone,
    };
    static std::string_view phase_name(Phase p);

    /// Sends one event for this device to the tracer, if any.
    void emit(sim::TraceType type, std::uint32_t code, double value,
              std::string_view from = {}, std::string_view to = {});
    void enter_phase(Phase next);
    /// Reboots the device and, when it boots, books the boot's
    /// verification and loading seconds into the report's phases.
    Expected<boot::BootReport> reboot();
    StepResult finish(Status status);
    static StepResult yield() { return StepResult{Want::kDelay}; }

    Device* device_;
    net::Transport* transport_;
    sim::Tracer* tracer_;
    double trace_offset_;
    std::function<void(server::UpdateResponse&)> interceptor_;
    unsigned transport_resumes_ = 0;
    std::function<bool()> outage_probe_;
    double reconnect_backoff_s_ = 5.0;
    const sim::ChaosPlan* chunk_chaos_ = nullptr;

    Phase phase_ = Phase::kStart;
    SessionReport report_;
    double t_start_ = 0.0;
    double e_start_ = 0.0;
    double verify_base_ = 0.0;
    double agent_verify_ = 0.0;

    std::optional<manifest::DeviceToken> token_;
    Bytes token_bytes_;
    std::size_t uplink_offset_ = 0;
    std::optional<server::UpdateResponse> response_;
    Status response_status_ = Status::kOk;
    BytesSink manifest_sink_;
    std::size_t manifest_offset_ = 0;
    std::size_t payload_offset_ = 0;
    unsigned resumes_left_ = 0;
    /// A token refresh is in flight: the next server response resumes the
    /// existing transfer instead of starting a new one.
    bool resuming_ = false;
    unsigned reconnect_waits_ = 0;
    /// Chunk chaos: air chunks (by air-chunk index) still awaiting their
    /// one-shot first-delivery corruption.
    std::vector<bool> chunk_poison_pending_;
};

/// Synchronous facade over SessionDriver for single-device experiments:
/// pumps the driver to completion against an uncontended server (the
/// server's service model time, if configured, is charged to the device
/// clock as waiting).
class UpdateSession {
public:
    UpdateSession(Device& device, server::UpdateServer& server, const net::LinkParams& link,
                  std::uint64_t loss_seed = 1)
        : device_(&device),
          server_(&server),
          transport_(link, device.clock(), &device.meter(), loss_seed) {}

    /// Models a compromised smartphone/gateway mutating the response.
    void set_interceptor(std::function<void(server::UpdateResponse&)> interceptor) {
        interceptor_ = std::move(interceptor);
    }

    /// See SessionDriver::set_transport_resumes.
    void set_transport_resumes(unsigned resumes) { transport_resumes_ = resumes; }

    /// See SessionDriver::set_chunk_chaos.
    void set_chunk_chaos(const sim::ChaosPlan* plan) { chunk_chaos_ = plan; }

    /// Trace session phases and FSM transitions (timeline starts at 0 when
    /// the session does).
    void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }

    /// Runs one complete update attempt for `app_id`: token, manifest,
    /// payload, reboot, boot-time verification, load. Never throws; the
    /// report carries the outcome (including early rejections).
    SessionReport run(std::uint32_t app_id);

    net::Transport& transport() { return transport_; }

private:
    Device* device_;
    server::UpdateServer* server_;
    net::Transport transport_;
    std::function<void(server::UpdateResponse&)> interceptor_;
    unsigned transport_resumes_ = 0;
    const sim::ChaosPlan* chunk_chaos_ = nullptr;
    sim::Tracer* tracer_ = nullptr;
};

}  // namespace upkit::core
