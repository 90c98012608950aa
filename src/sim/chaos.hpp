// Deterministic network/server fault injection for fleet campaigns.
//
// A ChaosPlan is the network-layer sibling of core/fault_campaign.*: every
// fault the campaign will ever see — interference bursts raising chunk loss,
// update-server and regional-edge outage windows, poisoned chunks, and
// versions whose post-install self-test fails — is fixed up front from a
// seed, before the first event runs. Nothing is drawn at fault time, so the
// same plan against the same fleet replays byte-identically; reruns diff
// their JSONL traces to prove it. An attempt sees the plan through its
// net::Transport's ChaosBinding: the transport overlays conditions() on its
// link per chunk, and the session driver asks the transport whether the
// serving target is down() and takes payload_chunk_corrupted() from the
// bound plan. The fleet engine consults down() before admitting requests
// (via the server::ServerModel::chaos hook), and device health hooks answer
// self_test_passes() during trial boots.
#pragma once

#include <cstdint>
#include <vector>

namespace upkit::sim {

/// Serving target `region` (-1 = the origin) unreachable in
/// [start_s, end_s) on the campaign timeline.
struct OutageWindow {
    int region = -1;
    double start_s = 0.0;
    double end_s = 0.0;
};

/// Interference burst: added chunk-loss probability while active.
struct LossBurst {
    double start_s = 0.0;
    double end_s = 0.0;
    double loss_probability = 0.0;
};

/// Knobs for ChaosPlan::generate(): how many windows of each kind to place
/// in [0, horizon_s). A loss burst lasts 30 s.
struct ChaosSpec {
    std::uint64_t seed = 1;
    double horizon_s = 600.0;

    unsigned loss_bursts = 0;
    double burst_loss = 0.10;

    unsigned outages = 0;
    double outage_duration_s = 60.0;

    /// Chunk-targeted corruption for content-addressed transfers: the
    /// probability that any given (device, chunk-table-index) pair arrives
    /// corrupted on its first transmission. Exercises the per-chunk
    /// re-request path rather than whole-session failure.
    double chunk_corrupt_fraction = 0.0;

    /// Per-region fault domains (multi-edge topologies): each of regions
    /// 0 .. `regions` - 1 (the campaign's edge count) gets `region_outages`
    /// outage windows of region_outage_duration_s drawn from its own
    /// sub-stream, so region r's faults never shift region r+1's (nor any
    /// of the streams above). Other regions are never down.
    unsigned regions = 0;
    unsigned region_outages = 0;
    double region_outage_duration_s = 45.0;
};

class ChaosPlan {
public:
    /// Channel overlay at a campaign instant.
    struct Conditions {
        double extra_loss = 0.0;
        /// Chunks cannot get through at all: the serving target (an edge,
        /// or the origin) is down.
        bool blocked = false;
    };

    ChaosPlan() = default;

    /// Builds a plan from the spec's seed. Same spec => same plan.
    static ChaosPlan generate(const ChaosSpec& spec);

    // Explicit construction (tests pin windows instead of drawing them).
    void add_outage(double start_s, double end_s) {
        outages_.push_back({-1, start_s, end_s});
    }
    void add_loss_burst(double start_s, double end_s, double loss) {
        bursts_.push_back({start_s, end_s, loss});
    }
    /// Marks a published version as fleet-wide bad: every device's
    /// post-install self-test fails on it (the "bad image" scenario).
    void mark_bad_version(std::uint16_t version) { bad_versions_.push_back(version); }

    /// Adds a regional outage window: generate() draws each region's windows
    /// through this, and tests pin extra ones the same way.
    void add_region_outage(unsigned region, double start_s, double end_s) {
        outages_.push_back({static_cast<int>(region), start_s, end_s});
    }

    /// Whether serving target `region` (a regional edge, or -1 for the
    /// origin) is inside one of its outage windows at campaign instant `t`.
    bool down(int region, double t) const;

    /// Channel overlay at campaign instant `t` for a transfer served by
    /// `region` (-1 = the origin): the active bursts' loss, and `blocked`
    /// when that target is down().
    Conditions conditions(double t, int region) const;

    /// Trial-boot health verdict for a device running `version`.
    bool self_test_passes(std::uint16_t version) const;

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
    std::vector<OutageWindow> outages_;
    std::vector<LossBurst> bursts_;
    std::vector<std::uint16_t> bad_versions_;

    /// Salt of the per-(device, chunk) and per-region draws; 0 in a plan
    /// built by hand, which poisons no chunk.
    std::uint64_t fault_seed_ = 0;
    double chunk_corrupt_fraction_ = 0.0;
};

}  // namespace upkit::sim
