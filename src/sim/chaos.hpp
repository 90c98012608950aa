// Deterministic network/server fault injection for fleet campaigns.
//
// A ChaosPlan is the network-layer sibling of core/fault_campaign.*: every
// fault the campaign will ever see — interference bursts raising chunk loss,
// latency spikes inflating protocol turnaround, in-transit chunk corruption,
// update-server outage windows, and per-device misbehavior (flaky radios,
// images that fail their post-install self-test) — is fixed up front from a
// seed, before the first event runs. Nothing is drawn at fault time, so the
// same plan against the same fleet replays byte-identically; reruns diff
// their JSONL traces to prove it. Consumers hook in at three points:
// net::Transport overlays conditions() on its link per chunk, the fleet
// engine consults server_down() before admitting requests (via the
// server::ServerModel::chaos hook), and device health hooks answer
// self_test_passes() during trial boots.
#pragma once

#include <cstdint>
#include <vector>

namespace upkit::sim {

/// Update server unreachable in [start_s, end_s) on the campaign timeline.
struct OutageWindow {
    double start_s = 0.0;
    double end_s = 0.0;
};

/// Interference burst: added chunk-loss probability while active.
struct LossBurst {
    double start_s = 0.0;
    double end_s = 0.0;
    double loss_probability = 0.0;
};

/// Congestion spike: per-chunk protocol overhead multiplied while active.
struct LatencySpike {
    double start_s = 0.0;
    double end_s = 0.0;
    double overhead_factor = 1.0;
};

/// Per-device misbehavior, derived deterministically from (seed, device_id)
/// — the plan never needs the fleet roster up front.
struct DeviceChaosProfile {
    /// Flaky radio: loss probability added for the whole campaign.
    double extra_loss = 0.0;
    /// Window in which chunks reach this device corrupted (a bit flip the
    /// transport cannot see; the digest check catches it after download).
    /// end <= start means no corruption.
    double corrupt_start_s = 0.0;
    double corrupt_end_s = 0.0;
    /// This device's hardware rejects any new image: the post-install
    /// self-test fails regardless of version (a per-device "brick").
    bool self_test_bricks = false;
};

/// Knobs for ChaosPlan::generate(): how many windows of each kind to place
/// in [0, horizon_s) and what device fractions misbehave.
struct ChaosSpec {
    std::uint64_t seed = 1;
    double horizon_s = 600.0;

    unsigned loss_bursts = 0;
    double burst_duration_s = 30.0;
    double burst_loss = 0.10;

    unsigned outages = 0;
    double outage_duration_s = 60.0;

    unsigned latency_spikes = 0;
    double spike_duration_s = 20.0;
    double spike_factor = 4.0;

    double flaky_fraction = 0.0;
    double flaky_extra_loss = 0.05;
    double corrupt_fraction = 0.0;
    double corrupt_duration_s = 10.0;
    double brick_fraction = 0.0;

    /// Chunk-targeted corruption for content-addressed transfers: the
    /// probability that any given (device, chunk-table-index) pair arrives
    /// corrupted on its first transmission. Exercises the per-chunk
    /// re-request path rather than whole-session failure.
    double chunk_corrupt_fraction = 0.0;

    /// Per-region fault domains (multi-edge topologies): each of `regions`
    /// regional edge servers gets `region_outages` outage windows of
    /// region_outage_duration_s drawn from its own sub-stream, so region
    /// r's faults never shift region r+1's (nor any of the streams above).
    unsigned regions = 0;
    unsigned region_outages = 0;
    double region_outage_duration_s = 45.0;

    /// Device oscillator drift: each device's crystal rate is drawn
    /// uniformly from 1 ± clock_drift_ppm·1e-6, a pure function of
    /// (seed, device). 0 keeps every device's rate exactly 1.0.
    double clock_drift_ppm = 0.0;
};

class ChaosPlan {
public:
    /// Channel overlay at a campaign instant, for one device.
    struct Conditions {
        double extra_loss = 0.0;
        double overhead_factor = 1.0;
        /// Delivered chunks are corrupted in transit.
        bool corrupt = false;
        /// Chunks cannot get through at all (payload streams through the
        /// server and the server is down).
        bool blocked = false;
    };

    ChaosPlan() = default;

    /// Builds a plan from the spec's seed. Same spec => same plan.
    static ChaosPlan generate(const ChaosSpec& spec);

    // Explicit construction (tests pin windows instead of drawing them).
    void add_outage(double start_s, double end_s) {
        outages_.push_back({start_s, end_s});
    }
    void add_loss_burst(double start_s, double end_s, double loss) {
        bursts_.push_back({start_s, end_s, loss});
    }
    void add_latency_spike(double start_s, double end_s, double factor) {
        spikes_.push_back({start_s, end_s, factor});
    }
    /// Marks a published version as fleet-wide bad: every device's
    /// post-install self-test fails on it (the "bad image" scenario).
    void mark_bad_version(std::uint16_t version) { bad_versions_.push_back(version); }

    /// Pins a regional outage window explicitly (tests; generate() derives
    /// windows from the region sub-streams instead).
    void add_region_outage(unsigned region, double start_s, double end_s) {
        region_outages_.push_back({region, {start_s, end_s}});
    }

    bool server_down(double t) const;

    /// Whether regional edge `region` is inside one of its fault windows at
    /// campaign instant `t`. Pure in (seed, region, t): windows are
    /// re-derived per call from the region's own sub-stream, so the answer
    /// never depends on which other regions anyone asked about.
    bool region_down(unsigned region, double t) const;
    /// End of the regional outage containing `t`; `t` itself when up.
    double region_up_at(unsigned region, double t) const;

    /// Device crystal rate: local seconds per campaign second, drawn from
    /// 1 ± clock_drift_ppm·1e-6. Pure in (seed, device); exactly 1.0 when
    /// drift is unconfigured.
    double device_clock_rate(std::uint32_t device_id) const;

    Conditions conditions(double t, std::uint32_t device_id,
                          bool payload_via_server) const {
        return conditions(t, device_id, payload_via_server, -1);
    }

    /// Region-aware overlay: `region` >= 0 means the device's payload is
    /// served by that regional edge, so `blocked` reflects the edge's fault
    /// domain instead of the origin's. -1 keeps the legacy origin check.
    Conditions conditions(double t, std::uint32_t device_id,
                          bool payload_via_server, int region) const;

    /// Deterministic per-device profile (pure function of seed + id).
    DeviceChaosProfile device_profile(std::uint32_t device_id) const;

    /// Trial-boot health verdict for `device_id` running `version`.
    bool self_test_passes(std::uint32_t device_id, std::uint16_t version) const;

    /// Chunk-targeted corruption: whether the first transmission of chunk
    /// table entry `chunk_index` to `device_id` arrives corrupted. A pure
    /// function of (seed, device, chunk) — no time dependence, so the
    /// re-requested copy always goes through and a seeded rerun replays the
    /// exact same set of poisoned chunks.
    bool payload_chunk_corrupted(std::uint32_t device_id, std::uint32_t chunk_index) const;

    /// FNV-1a over the serialized plan; equal plans => equal fingerprints
    /// (the rerun-determinism checks compare this alongside the traces).
    std::uint64_t fingerprint() const;

private:
    struct RegionOutage {
        unsigned region = 0;
        OutageWindow window;
    };

    std::vector<OutageWindow> outages_;
    std::vector<LossBurst> bursts_;
    std::vector<LatencySpike> spikes_;
    std::vector<std::uint16_t> bad_versions_;
    std::vector<RegionOutage> region_outages_;

    std::uint64_t region_seed_ = 0;
    unsigned region_outage_count_ = 0;
    double region_outage_duration_s_ = 0.0;
    double region_horizon_s_ = 0.0;

    std::uint64_t drift_seed_ = 0;
    double clock_drift_ppm_ = 0.0;

    std::uint64_t profile_seed_ = 0;
    double flaky_fraction_ = 0.0;
    double flaky_extra_loss_ = 0.0;
    double corrupt_fraction_ = 0.0;
    double corrupt_duration_s_ = 0.0;
    double corrupt_horizon_s_ = 0.0;
    double brick_fraction_ = 0.0;
    double chunk_corrupt_fraction_ = 0.0;
};

}  // namespace upkit::sim
