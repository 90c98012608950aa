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

}  // namespace

ChaosPlan ChaosPlan::generate(const ChaosSpec& spec) {
    ChaosPlan plan;
    std::uint64_t state = spec.seed;
    // Independent sub-streams per fault class: adding a burst never shifts
    // where the outages land, which keeps scenario matrices comparable
    // across spec tweaks.
    std::uint64_t burst_state = splitmix64(state) ^ 0xB0B0B0B0B0B0B0B0ull;
    std::uint64_t outage_state = splitmix64(state) ^ 0x0A0A0A0A0A0A0A0Aull;
    (void)splitmix64(state);  // discarded: keeps fault_seed's place in the stream
    const std::uint64_t fault_seed = splitmix64(state);

    for (unsigned i = 0; i < spec.loss_bursts; ++i) {
        const double start = uniform01(burst_state) * spec.horizon_s;
        plan.add_loss_burst(start, start + kBurstDurationS, spec.burst_loss);
    }
    for (unsigned i = 0; i < spec.outages; ++i) {
        const double start = uniform01(outage_state) * spec.horizon_s;
        plan.add_outage(start, start + spec.outage_duration_s);
    }
    plan.fault_seed_ = fault_seed;
    // Chunk corruption and regional windows are pure functions of
    // (fault_seed, device|region), salted per class: neither draws from
    // `state`, so neither shifts the sub-streams above.
    plan.chunk_corrupt_fraction_ = spec.chunk_corrupt_fraction;
    for (unsigned region = 0; region < spec.regions; ++region) {
        std::uint64_t region_state = fault_seed ^ 0x4E04E04E04E04E04ull ^
                                     (0x9E3779B97F4A7C15ull * (region + 1));
        for (unsigned i = 0; i < spec.region_outages; ++i) {
            const double start = uniform01(region_state) * spec.horizon_s;
            plan.add_region_outage(region, start, start + spec.region_outage_duration_s);
        }
    }
    return plan;
}

bool ChaosPlan::down(int region, double t) const {
    for (const auto& w : outages_) {
        if (w.region == region && in_window(t, w.start_s, w.end_s)) return true;
    }
    return false;
}

ChaosPlan::Conditions ChaosPlan::conditions(double t, int region) const {
    Conditions c;
    for (const auto& b : bursts_) {
        if (in_window(t, b.start_s, b.end_s)) c.extra_loss += b.loss_probability;
    }
    c.blocked = down(region, t);
    return c;
}

bool ChaosPlan::payload_chunk_corrupted(std::uint32_t device_id,
                                        std::uint32_t chunk_index) const {
    if (fault_seed_ == 0 || chunk_corrupt_fraction_ <= 0.0) return false;
    std::uint64_t state = fault_seed_ ^ 0xC4C4C4C4C4C4C4C4ull ^
                          (0x9E3779B97F4A7C15ull * (device_id + 1)) ^
                          (0xD6E8FEB86659FD93ull * (chunk_index + 1));
    return uniform01(state) < chunk_corrupt_fraction_;
}

bool ChaosPlan::self_test_passes(std::uint16_t version) const {
    for (const std::uint16_t bad : bad_versions_) {
        if (version == bad) return false;
    }
    return true;
}

std::uint64_t ChaosPlan::fingerprint() const {
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(outages_.size()));
    for (const auto& w : outages_) {
        h.mix(static_cast<std::uint64_t>(w.region));
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
    h.mix(fault_seed_);
    h.mix(chunk_corrupt_fraction_);
    return h.value();
}

}  // namespace upkit::sim
