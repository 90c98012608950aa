#include "sim/chaos.hpp"

#include <algorithm>

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

}  // namespace

ChaosPlan ChaosPlan::generate(const ChaosSpec& spec) {
    ChaosPlan plan;
    std::uint64_t state = spec.seed;
    // Independent sub-streams per fault class: adding a burst never shifts
    // where the outages land, which keeps scenario matrices comparable
    // across spec tweaks.
    std::uint64_t burst_state = splitmix64(state) ^ 0xB0B0B0B0B0B0B0B0ull;
    std::uint64_t outage_state = splitmix64(state) ^ 0x0A0A0A0A0A0A0A0Aull;
    std::uint64_t spike_state = splitmix64(state) ^ 0x5151515151515151ull;
    const std::uint64_t profile_seed = splitmix64(state);

    for (unsigned i = 0; i < spec.loss_bursts; ++i) {
        const double start = uniform01(burst_state) * spec.horizon_s;
        plan.add_loss_burst(start, start + spec.burst_duration_s, spec.burst_loss);
    }
    for (unsigned i = 0; i < spec.outages; ++i) {
        const double start = uniform01(outage_state) * spec.horizon_s;
        plan.add_outage(start, start + spec.outage_duration_s);
    }
    for (unsigned i = 0; i < spec.latency_spikes; ++i) {
        const double start = uniform01(spike_state) * spec.horizon_s;
        plan.add_latency_spike(start, start + spec.spike_duration_s, spec.spike_factor);
    }
    plan.profile_seed_ = profile_seed;
    plan.flaky_fraction_ = spec.flaky_fraction;
    plan.flaky_extra_loss_ = spec.flaky_extra_loss;
    plan.corrupt_fraction_ = spec.corrupt_fraction;
    plan.corrupt_duration_s_ = spec.corrupt_duration_s;
    plan.corrupt_horizon_s_ = spec.horizon_s;
    plan.brick_fraction_ = spec.brick_fraction;
    // No extra draw from `state`: chunk corruption derives from the profile
    // seed per (device, chunk), so adding it never shifts the existing
    // burst/outage/spike/profile sub-streams.
    plan.chunk_corrupt_fraction_ = spec.chunk_corrupt_fraction;
    // Regional fault domains and oscillator drift are pure functions of
    // (profile_seed, region|device), salted below — again no extra draw, so
    // a spec without them generates the byte-identical legacy plan.
    if (spec.regions > 0 && spec.region_outages > 0) {
        plan.region_seed_ = profile_seed;
        plan.region_outage_count_ = spec.region_outages;
        plan.region_outage_duration_s_ = spec.region_outage_duration_s;
        plan.region_horizon_s_ = spec.horizon_s;
    }
    if (spec.clock_drift_ppm > 0.0) {
        plan.drift_seed_ = profile_seed;
        plan.clock_drift_ppm_ = spec.clock_drift_ppm;
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
    if (region_seed_ != 0 && region_outage_count_ > 0) {
        std::uint64_t state = region_seed_ ^ 0x4E04E04E04E04E04ull ^
                              (0x9E3779B97F4A7C15ull * (region + 1));
        for (unsigned i = 0; i < region_outage_count_; ++i) {
            const double start = uniform01(state) * region_horizon_s_;
            if (in_window(t, start, start + region_outage_duration_s_)) return true;
        }
    }
    return false;
}

double ChaosPlan::region_up_at(unsigned region, double t) const {
    double up = t;
    // Derived and pinned windows may overlap; chase the chain.
    while (region_down(region, up)) {
        double next = up;
        for (const auto& r : region_outages_) {
            if (r.region == region && in_window(up, r.window.start_s, r.window.end_s)) {
                next = std::max(next, r.window.end_s);
            }
        }
        if (region_seed_ != 0 && region_outage_count_ > 0) {
            std::uint64_t state = region_seed_ ^ 0x4E04E04E04E04E04ull ^
                                  (0x9E3779B97F4A7C15ull * (region + 1));
            for (unsigned i = 0; i < region_outage_count_; ++i) {
                const double start = uniform01(state) * region_horizon_s_;
                if (in_window(up, start, start + region_outage_duration_s_)) {
                    next = std::max(next, start + region_outage_duration_s_);
                }
            }
        }
        if (next == up) break;  // defensive: region_down implies progress
        up = next;
    }
    return up;
}

double ChaosPlan::device_clock_rate(std::uint32_t device_id) const {
    if (drift_seed_ == 0 || clock_drift_ppm_ <= 0.0) return 1.0;
    std::uint64_t state = drift_seed_ ^ 0xD21F7D21F7D21F70ull ^
                          (0x9E3779B97F4A7C15ull * (device_id + 1));
    const double u = 2.0 * uniform01(state) - 1.0;  // [-1, 1)
    return 1.0 + clock_drift_ppm_ * 1e-6 * u;
}

ChaosPlan::Conditions ChaosPlan::conditions(double t, std::uint32_t device_id,
                                            bool payload_via_server,
                                            int region) const {
    Conditions c;
    for (const auto& b : bursts_) {
        if (in_window(t, b.start_s, b.end_s)) c.extra_loss += b.loss_probability;
    }
    for (const auto& s : spikes_) {
        if (in_window(t, s.start_s, s.end_s)) {
            c.overhead_factor = std::max(c.overhead_factor, s.overhead_factor);
        }
    }
    const DeviceChaosProfile p = device_profile(device_id);
    c.extra_loss += p.extra_loss;
    c.corrupt = in_window(t, p.corrupt_start_s, p.corrupt_end_s);
    c.blocked = payload_via_server &&
                (region >= 0 ? region_down(static_cast<unsigned>(region), t)
                             : server_down(t));
    return c;
}

DeviceChaosProfile ChaosPlan::device_profile(std::uint32_t device_id) const {
    DeviceChaosProfile p;
    if (profile_seed_ == 0) return p;
    std::uint64_t state = profile_seed_ ^ (0x9E3779B97F4A7C15ull * (device_id + 1));
    if (uniform01(state) < flaky_fraction_) p.extra_loss = flaky_extra_loss_;
    if (uniform01(state) < corrupt_fraction_) {
        p.corrupt_start_s = uniform01(state) * corrupt_horizon_s_;
        p.corrupt_end_s = p.corrupt_start_s + corrupt_duration_s_;
    }
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
    h.mix(static_cast<std::uint64_t>(spikes_.size()));
    for (const auto& s : spikes_) {
        h.mix(s.start_s);
        h.mix(s.end_s);
        h.mix(s.overhead_factor);
    }
    h.mix(static_cast<std::uint64_t>(bad_versions_.size()));
    for (const std::uint16_t v : bad_versions_) h.mix(static_cast<std::uint64_t>(v));
    h.mix(profile_seed_);
    h.mix(flaky_fraction_);
    h.mix(flaky_extra_loss_);
    h.mix(corrupt_fraction_);
    h.mix(corrupt_duration_s_);
    h.mix(corrupt_horizon_s_);
    h.mix(brick_fraction_);
    h.mix(chunk_corrupt_fraction_);
    // Regional domains and drift mix in only when configured, so a plan
    // without them keeps its pre-extension fingerprint (equal plans, equal
    // fingerprints — in both directions across builds).
    if (!region_outages_.empty() || region_outage_count_ > 0) {
        h.mix(static_cast<std::uint64_t>(region_outages_.size()));
        for (const auto& r : region_outages_) {
            h.mix(static_cast<std::uint64_t>(r.region));
            h.mix(r.window.start_s);
            h.mix(r.window.end_s);
        }
        h.mix(region_seed_);
        h.mix(static_cast<std::uint64_t>(region_outage_count_));
        h.mix(region_outage_duration_s_);
        h.mix(region_horizon_s_);
    }
    if (clock_drift_ppm_ > 0.0) {
        h.mix(drift_seed_);
        h.mix(clock_drift_ppm_);
    }
    return h.value();
}

}  // namespace upkit::sim
