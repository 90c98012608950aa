#include "sim/chaos.hpp"

#include "common/fnv1a.hpp"

namespace upkit::sim {
namespace {

/// splitmix64: the plan's only random source. Each drawn value is a pure
/// function of its predecessor, so generation order is the sole state.
std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

bool in_window(double t, double start, double end) {
    return t >= start && t < end;
}

/// How long one interference burst lasts.
constexpr double kBurstDurationS = 30.0;
/// Loss probability a flaky radio adds for the whole campaign.
constexpr double kFlakyExtraLoss = 0.05;

}  // namespace

ChaosPlan ChaosPlan::generate(const ChaosSpec& spec) {
    ChaosPlan plan;
    std::uint64_t state = spec.seed;
    // Independent sub-streams per fault class: adding a burst never shifts
    // where the outages land, which keeps scenario matrices comparable
    // across spec tweaks.
    std::uint64_t burst_state = splitmix64(state) ^ 0xB0B0B0B0B0B0B0B0ull;
    std::uint64_t outage_state = splitmix64(state) ^ 0x0A0A0A0A0A0A0A0Aull;
    (void)splitmix64(state);  // discarded: keeps profile_seed's place in the stream
    const std::uint64_t profile_seed = splitmix64(state);

    for (unsigned i = 0; i < spec.loss_bursts; ++i) {
        const double start = uniform01(burst_state) * spec.horizon_s;
        plan.add_loss_burst(start, start + kBurstDurationS, spec.burst_loss);
    }
    for (unsigned i = 0; i < spec.outages; ++i) {
        const double start = uniform01(outage_state) * spec.horizon_s;
        plan.add_outage(start, start + spec.outage_duration_s);
    }
    plan.profile_seed_ = profile_seed;
    plan.flaky_fraction_ = spec.flaky_fraction;
    plan.brick_fraction_ = spec.brick_fraction;
    // Chunk corruption, regional windows and oscillator drift are pure
    // functions of (profile_seed, device|region), salted per class: none
    // draws from `state`, so none shifts the sub-streams above.
    plan.chunk_corrupt_fraction_ = spec.chunk_corrupt_fraction;
    plan.clock_drift_ppm_ = spec.clock_drift_ppm;
    for (unsigned region = 0; region < spec.regions; ++region) {
        std::uint64_t region_state = profile_seed ^ 0x4E04E04E04E04E04ull ^
                                     (0x9E3779B97F4A7C15ull * (region + 1));
        for (unsigned i = 0; i < spec.region_outages; ++i) {
            const double start = uniform01(region_state) * spec.horizon_s;
            plan.add_region_outage(region, start, start + spec.region_outage_duration_s);
        }
    }
    return plan;
}

bool ChaosPlan::server_down(double t) const {
    for (const auto& w : outages_) {
        if (in_window(t, w.start_s, w.end_s)) return true;
    }
    return false;
}

bool ChaosPlan::region_down(unsigned region, double t) const {
    for (const auto& r : region_outages_) {
        if (r.region == region && in_window(t, r.window.start_s, r.window.end_s)) {
            return true;
        }
    }
    return false;
}

double ChaosPlan::device_clock_rate(std::uint32_t device_id) const {
    if (clock_drift_ppm_ <= 0.0) return 1.0;
    std::uint64_t state = profile_seed_ ^ 0xD21F7D21F7D21F70ull ^
                          (0x9E3779B97F4A7C15ull * (device_id + 1));
    const double u = 2.0 * uniform01(state) - 1.0;  // [-1, 1)
    return 1.0 + clock_drift_ppm_ * 1e-6 * u;
}

ChaosPlan::Conditions ChaosPlan::conditions(double t, std::uint32_t device_id,
                                            int region) const {
    Conditions c;
    for (const auto& b : bursts_) {
        if (in_window(t, b.start_s, b.end_s)) c.extra_loss += b.loss_probability;
    }
    c.extra_loss += device_profile(device_id).extra_loss;
    c.blocked = region >= 0 ? region_down(static_cast<unsigned>(region), t)
                            : server_down(t);
    return c;
}

DeviceChaosProfile ChaosPlan::device_profile(std::uint32_t device_id) const {
    DeviceChaosProfile p;
    if (profile_seed_ == 0) return p;
    std::uint64_t state = profile_seed_ ^ (0x9E3779B97F4A7C15ull * (device_id + 1));
    if (uniform01(state) < flaky_fraction_) p.extra_loss = kFlakyExtraLoss;
    (void)uniform01(state);  // discarded: keeps the brick draw's place in the stream
    p.self_test_bricks = uniform01(state) < brick_fraction_;
    return p;
}

bool ChaosPlan::payload_chunk_corrupted(std::uint32_t device_id,
                                        std::uint32_t chunk_index) const {
    if (profile_seed_ == 0 || chunk_corrupt_fraction_ <= 0.0) return false;
    std::uint64_t state = profile_seed_ ^ 0xC4C4C4C4C4C4C4C4ull ^
                          (0x9E3779B97F4A7C15ull * (device_id + 1)) ^
                          (0xD6E8FEB86659FD93ull * (chunk_index + 1));
    return uniform01(state) < chunk_corrupt_fraction_;
}

bool ChaosPlan::self_test_passes(std::uint32_t device_id, std::uint16_t version) const {
    for (const std::uint16_t bad : bad_versions_) {
        if (version == bad) return false;
    }
    return !device_profile(device_id).self_test_bricks;
}

std::uint64_t ChaosPlan::fingerprint() const {
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(outages_.size()));
    for (const auto& w : outages_) {
        h.mix(w.start_s);
        h.mix(w.end_s);
    }
    h.mix(static_cast<std::uint64_t>(bursts_.size()));
    for (const auto& b : bursts_) {
        h.mix(b.start_s);
        h.mix(b.end_s);
        h.mix(b.loss_probability);
    }
    h.mix(static_cast<std::uint64_t>(bad_versions_.size()));
    for (const std::uint16_t v : bad_versions_) h.mix(static_cast<std::uint64_t>(v));
    h.mix(static_cast<std::uint64_t>(region_outages_.size()));
    for (const auto& r : region_outages_) {
        h.mix(static_cast<std::uint64_t>(r.region));
        h.mix(r.window.start_s);
        h.mix(r.window.end_s);
    }
    h.mix(profile_seed_);
    h.mix(flaky_fraction_);
    h.mix(brick_fraction_);
    h.mix(chunk_corrupt_fraction_);
    h.mix(clock_drift_ppm_);
    return h.value();
}

}  // namespace upkit::sim
