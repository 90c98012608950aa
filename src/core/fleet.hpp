// Fleet update campaigns on a discrete-event timeline.
//
// The paper's motivation is billions of deployed devices; this module rolls
// an update out to a heterogeneous fleet of simulated devices — mixed
// platforms, slot layouts, link qualities — on a single shared virtual
// timeline (sim/scheduler.hpp). Device sessions interleave: each modelled
// delay (chunk airtime, server service, backoff sleep, reboot) is one event,
// so thousands of devices progress concurrently in virtual time and contend
// for the update server, whose bounded-concurrency admission queue and
// service times (server::ServerModel) are first-class, measurable effects.
// Rollouts can be phased into waves. The aggregated report carries the true
// campaign makespan, per-device queueing delay, and server-queue statistics.
#pragma once

#include <memory>
#include <vector>

#include "core/session.hpp"
#include "crypto/backend.hpp"
#include "server/edge.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace upkit::core {

struct FleetPolicy {
    /// Update attempts per device before giving up.
    unsigned max_attempts = 3;

    /// Exponential backoff between attempts: the first retry waits
    /// initial_backoff_s, each further retry multiplies the wait by
    /// backoff_factor, capped at max_backoff_s. Deterministic per-device
    /// jitter (a ±jitter fraction of the delay) decorrelates devices whose
    /// first attempts failed at the same moment, so a paper-scale fleet
    /// does not hammer the server in lockstep. initial_backoff_s = 0
    /// disables backoff entirely.
    double initial_backoff_s = 2.0;
    double backoff_factor = 2.0;
    double max_backoff_s = 300.0;
    double jitter = 0.25;

    /// Phased rollout: devices are released in waves of `wave_size` (in the
    /// order they were added), each wave starting `wave_stagger_s` after the
    /// previous one. wave_size = 0 releases the whole fleet at t = 0.
    unsigned wave_size = 0;
    double wave_stagger_s = 0.0;

    /// Per-chunk retransmission budget before a transfer aborts (see
    /// net::Transport::set_max_retries).
    unsigned transport_max_retries = 16;
    /// Mid-payload reconnects allowed per attempt (SessionDriver).
    unsigned transport_resumes = 0;

    // --- rollout orchestration: canary, staged promotion, breaker ---------
    //
    // Every campaign releases by cohort: the canary, then waves. Setting any
    // of canary_size / promote_success_rate / breaker_failure_rate *gates*
    // the release after the canary (the hawkBit "waves" mechanism): instead
    // of at k · wave_stagger_s, each wave releases wave_stagger_s after the
    // previous cohort finished AND passed its promotion gate. A halted
    // campaign leaves unreleased devices untouched (status kCampaignHalted)
    // — containment, not failure.

    /// Devices (in add() order) released first as the canary cohort;
    /// 0 = no separate canary (waves of wave_size from the start).
    unsigned canary_size = 0;
    /// Promotion gate: fraction of a cohort's devices that must end kOk for
    /// the next wave to release. A failed gate always aborts the rollout
    /// (the cohort's devices are already terminal — pausing cannot heal
    /// them). 0 = promote unconditionally.
    double promote_success_rate = 0.0;

    /// Circuit breaker over attempt outcomes within the releasing cohort:
    /// once at least breaker_min_failures attempts failed AND the cohort's
    /// failed/completed attempt ratio exceeds breaker_failure_rate, the
    /// breaker trips. breaker_failure_rate = 0 disables the breaker.
    unsigned breaker_min_failures = 3;
    double breaker_failure_rate = 0.0;
    /// Tripping aborts the rollout (true) or pauses it for breaker_pause_s
    /// (false): retries and promotions are deferred, the failure window is
    /// reset on resume. More than breaker_max_trips total trips escalates a
    /// pausing breaker to an abort.
    bool breaker_abort = true;
    double breaker_pause_s = 60.0;
    unsigned breaker_max_trips = 3;

    /// Server-outage handling: a request that reaches a down server is
    /// rejected kUnavailable after the device's 10 s connect timeout, and a
    /// mid-transfer reconnect retries every reconnect_backoff_s until the
    /// outage window ends.
    double reconnect_backoff_s = 5.0;

    /// Whether this policy uses gated staged promotion.
    bool gated() const {
        return canary_size > 0 || promote_success_rate > 0.0 ||
               breaker_failure_rate > 0.0;
    }
};

struct FleetMember {
    Device* device = nullptr;       // non-owning
    net::LinkParams link;           // this device's radio conditions
};

/// Multi-server edge topology: `edges` regional servers front the vendor
/// origin. Devices are assigned round-robin by fleet index (region =
/// index % edges); each region has its own admission queue, payload cache,
/// and chaos outage domain (sim::ChaosPlan::down). The origin stays
/// the sole signing authority — every request's device-bound manifest is
/// prepared and signed there — so an edge caches payload bytes, not
/// envelopes; a cache miss pulls the payload over the backhaul. edges == 0
/// is the legacy single-origin deployment, byte-for-byte.
struct EdgeTopology {
    unsigned edges = 0;
    /// Service model of each regional edge (the origin keeps the
    /// UpdateServer's own model, as before).
    server::ServerModel model;
    /// Backhaul charge added to an edge's service time on a cache miss.
    double backhaul_rtt_s = 0.0;
    double backhaul_per_kb_s = 0.0;
    /// A device whose region is inside an outage window retargets the
    /// origin (counted + traced as kEdgeFallback) instead of timing out —
    /// unless the origin itself is also down.
    bool origin_fallback = true;
};

/// Bulk fleet construction for scale campaigns: `count` devices built from
/// a shared config template (per-device id and nonce seed derived by index)
/// and factory-provisioned at `provision_version` — which must already be
/// published, and may be older than the campaign version, exactly like
/// hardware that shipped before the rollout. Provisioning happens in
/// add_synthetic(), outside the campaign timeline, so run() measures the
/// rollout, not the factory. add_synthetic() builds the devices on worker
/// threads, one per host core, and adds them in index order: every device,
/// counter and later report is byte-identical at any worker count.
struct SyntheticFleetSpec {
    std::size_t count = 0;
    DeviceConfig base;
    net::LinkParams link;
    std::uint32_t first_device_id = 0x10001;
    std::uint32_t app_id = 0xA0;
    std::uint16_t provision_version = 1;
};


struct CampaignDeviceResult {
    std::uint32_t device_id = 0;
    Status status = Status::kOk;
    unsigned attempts = 0;
    std::uint16_t final_version = 0;
    bool differential = false;
    /// Final attempt used a content-addressed (chunked) transfer.
    bool chunked = false;
    /// Air chunks re-requested after on-arrival digest failures, summed
    /// over attempts (recovered, not failed).
    unsigned chunk_retries = 0;
    /// Campaign-timeline instants: when the device's wave released it and
    /// when its last attempt finished. end_s − start_s == time_s.
    double start_s = 0.0;
    double end_s = 0.0;
    /// Wave release to final outcome, on the shared timeline — includes
    /// backoff sleeps and server-queue waits (the device idles through
    /// both; no energy is charged).
    double time_s = 0.0;
    /// Virtual seconds this device spent sleeping between retry attempts.
    double backoff_s = 0.0;
    /// Virtual seconds this device's requests waited in the server's
    /// admission queue (summed over attempts).
    double queue_wait_s = 0.0;
    double energy_mj = 0.0;
    /// Device-seconds spent in the verification phase (agent early-reject
    /// checks + bootloader re-verification), summed over attempts.
    double verification_s = 0.0;
    /// Battery charge the verification seconds drew (mAh at the platform's
    /// active CPU draw plus the HSM's supply current where configured).
    double verification_mah = 0.0;
    std::uint64_t bytes_over_air = 0;
    /// Cohort this device belongs to (0 = canary when one is configured).
    unsigned wave = 0;
    /// Resilience counters summed over attempts (see SessionReport).
    unsigned transport_resumes = 0;
    unsigned token_refreshes = 0;
    /// Boot-confirm outcome of the final attempt.
    bool confirmed = false;
    bool rolled_back = false;
};

/// Per-wave rollout accounting, one entry per released cohort.
struct WaveStats {
    unsigned wave = 0;
    unsigned released = 0;     // devices released in this wave
    unsigned succeeded = 0;
    unsigned failed = 0;
    unsigned rolled_back = 0;  // devices that auto-reverted via trial boot
    double release_s = 0.0;    // campaign instant the wave released
    double complete_s = 0.0;   // instant its last device went terminal
};

/// One circuit-breaker trip.
struct BreakerTrip {
    double t = 0.0;            // campaign instant of the trip
    unsigned wave = 0;         // cohort whose failures tripped it
    unsigned failures = 0;     // failed attempts in the window
    unsigned completed = 0;    // completed attempts in the window
    unsigned released = 0;     // devices released in the cohort
    double failure_rate = 0.0;
    bool aborted = false;      // trip aborted the rollout (vs paused)
};

/// What the contended server did during the campaign.
struct ServerQueueStats {
    std::uint64_t requests = 0;      // admission requests (one per attempt)
    unsigned peak_depth = 0;         // worst admission-queue length
    unsigned peak_in_service = 0;    // worst simultaneous service slots
    double total_wait_s = 0.0;       // summed queueing delay
    double max_wait_s = 0.0;         // worst single request
    double busy_s = 0.0;             // summed service time
    std::uint64_t outage_rejections = 0;  // requests that hit a down server
};

/// Per-region accounting when an EdgeTopology is configured.
struct EdgeReport {
    unsigned region = 0;
    ServerQueueStats queue;
    server::EdgeStats cache;
    /// Requests redirected to the origin because this region was down.
    std::uint64_t fallbacks = 0;
};

struct CampaignReport {
    std::vector<CampaignDeviceResult> devices;
    unsigned succeeded = 0;
    unsigned failed = 0;
    double total_energy_mj = 0.0;
    std::uint64_t total_bytes = 0;
    /// True campaign makespan: the completion instant of the last device on
    /// the shared discrete-event timeline (waves, queueing, and backoff
    /// included). Under server contention this exceeds the slowest single
    /// device's busy time — the queue serializes what an uncontended fleet
    /// would do in parallel.
    double makespan_s = 0.0;
    /// Total device-seconds the fleet spent verifying (all devices, all
    /// attempts) — the device-side cost the verification hot path shrinks;
    /// compare before/after campaigns to see the win.
    double verification_s = 0.0;
    unsigned differential_updates = 0;
    unsigned chunked_updates = 0;
    /// Per-chunk re-requests recovered across the whole campaign.
    unsigned chunk_retries = 0;
    /// Per-wave stats and every breaker trip, in order.
    std::vector<WaveStats> waves;
    std::vector<BreakerTrip> breaker_trips;
    /// Containment accounting. exposed = devices actually released (offered
    /// the update); halted = devices the breaker protected (never released,
    /// not counted in `failed`, unlike one the event budget never reached);
    /// rolled_back / confirmed = trial-boot verdicts among the exposed.
    unsigned exposed_devices = 0;
    unsigned halted_devices = 0;
    unsigned rolled_back_devices = 0;
    unsigned confirmed_devices = 0;
    /// Fleet battery cost of verification (sum of per-device mAh).
    double verification_mah = 0.0;
    ServerQueueStats server;
    /// What the server's hot-path caches and signer did during this
    /// campaign (counters are snapshotted at run start and diffed, so
    /// provisioning traffic before the campaign is excluded).
    server::ServerStats server_stats;
    /// Device-side ECDSA verify-memo traffic during this campaign
    /// (snapshotted at run start and diffed, like server_stats). The
    /// counters match at every shard count, but they are NOT mixed into
    /// fingerprint(): the memo is a process-wide host cache, off by default,
    /// so they depend on whether it is switched on and on what earlier work
    /// in the process left in it, while every verdict, and so every
    /// simulated field, is the same either way.
    crypto::VerifyMemoStats verify_memo;
    /// Discrete events the scheduler processed for this campaign.
    std::uint64_t events_processed = 0;
    /// Per-region detail (empty without an EdgeTopology). With edges,
    /// `server` aggregates across all serving targets: requests/waits/busy
    /// sum, peaks are the worst any single target saw.
    std::vector<EdgeReport> edges;

    /// FNV-1a over every field of the report, per-device results included.
    /// Equal fingerprints == equal reports; tests/fleet_shard_test.cpp pins
    /// golden fingerprints at every shard count with this (and the bench
    /// proves the same identity across shard counts at million-device
    /// scale, where storing two full reports for a diff would be silly).
    std::uint64_t fingerprint() const;
};

class FleetCampaign {
public:
    explicit FleetCampaign(server::UpdateServer& server) : server_(&server) {}

    void add(Device& device, const net::LinkParams& link) {
        members_.push_back(FleetMember{&device, link});
    }

    /// Builds and factory-provisions `spec.count` campaign-owned devices
    /// (ids spec.first_device_id + k, nonce seeds spec.base.seed + k) from
    /// `spec.provision_version`, which must be published on the server.
    ///
    /// The campaign's first synthetic device is the share source: the
    /// sectors a later synthetic device holds equal to it point at one
    /// shared copy. When the campaign has none yet, device 0 of this call
    /// is built on the calling thread first, and its error returns before
    /// any worker starts. The rest are built on min(host cores, devices
    /// left) threads, the calling thread among them, each building one
    /// device at a time. The mutable state they share is the server and
    /// the verify memo, each behind its own mutex, and the source device's
    /// flash, which they share sectors with under a mutex this call owns.
    /// The devices are then appended in index order, so every device,
    /// server counter and memo counter, and every report run() produces
    /// afterwards, is byte-identical at any worker count.
    ///
    /// On an error, returns the status of the lowest failing index and
    /// adds no device at or after it. Workers may have requested images
    /// for devices past that index, so the server counters then count
    /// them too.
    Status add_synthetic(const SyntheticFleetSpec& spec);

    std::size_t size() const { return members_.size(); }

    /// The member at `index`, in the order members were added.
    Device& device(std::size_t index) { return *members_[index].device; }

    /// Where device sessions step. 0 — the default — steps them inline on
    /// the campaign's one coordinator thread. A non-zero count runs them on
    /// `shards` worker threads (devices are space-partitioned by fleet
    /// index, index % shards): session segments run ahead on their shard,
    /// and the coordinator replays their steps through its one heap in the
    /// same (time, sequence) order, blocking only when a shard hasn't
    /// caught up. Every shard count produces byte-identical reports and
    /// traces.
    void set_shards(unsigned shards) { shards_ = shards; }

    /// Regional edge topology (see EdgeTopology). Must be configured before
    /// run(); edges == 0 keeps the legacy single-origin path.
    void set_edges(const EdgeTopology& topology) { edges_ = topology; }

    /// Campaign events (queue enter/exit, retries, waves, plus each
    /// device's FSM and session-phase transitions) go to `tracer`.
    void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }

    /// Aborts the campaign (with devices stuck mid-session) if the event
    /// scheduler processes more than this many events; 0 = unbounded.
    void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }

    /// Rolls `app_id`'s latest version out to every member.
    CampaignReport run(std::uint32_t app_id, const FleetPolicy& policy = {});

private:
    /// Builds synthetic device `k` of `spec` and provisions it from the
    /// server. Touches nothing of the campaign, so workers call it at once.
    Expected<std::unique_ptr<Device>> build_synthetic(const SyntheticFleetSpec& spec,
                                                      std::size_t k) const;

    server::UpdateServer* server_;
    std::vector<FleetMember> members_;
    std::vector<std::unique_ptr<Device>> owned_;  // add_synthetic devices
    sim::Tracer* tracer_ = nullptr;
    std::uint64_t event_budget_ = 0;
    unsigned shards_ = 0;
    EdgeTopology edges_;
};

}  // namespace upkit::core
