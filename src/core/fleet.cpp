#include "core/fleet.hpp"

#include <memory>

namespace upkit::core {

namespace {

void mix(std::uint64_t& h, std::uint64_t v) {
    // FNV-1a over the value's bytes, 8 at a time.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFFu;
        h *= 0x100000001B3ull;
    }
}

void mix(std::uint64_t& h, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    mix(h, bits);
}

void mix_queue(std::uint64_t& h, const ServerQueueStats& q) {
    mix(h, q.requests);
    mix(h, static_cast<std::uint64_t>(q.peak_depth));
    mix(h, static_cast<std::uint64_t>(q.peak_in_service));
    mix(h, q.total_wait_s);
    mix(h, q.max_wait_s);
    mix(h, q.busy_s);
    mix(h, q.outage_rejections);
}

}  // namespace

std::uint64_t CampaignReport::fingerprint() const {
    std::uint64_t h = 0xCBF29CE484222325ull;
    mix(h, static_cast<std::uint64_t>(devices.size()));
    for (const CampaignDeviceResult& d : devices) {
        mix(h, static_cast<std::uint64_t>(d.device_id));
        mix(h, static_cast<std::uint64_t>(d.status));
        mix(h, static_cast<std::uint64_t>(d.attempts));
        mix(h, static_cast<std::uint64_t>(d.final_version));
        mix(h, static_cast<std::uint64_t>(d.differential) | (std::uint64_t(d.chunked) << 1) |
                   (std::uint64_t(d.confirmed) << 2) | (std::uint64_t(d.rolled_back) << 3) |
                   (std::uint64_t(d.halted) << 4));
        mix(h, static_cast<std::uint64_t>(d.chunk_retries));
        mix(h, d.start_s);
        mix(h, d.end_s);
        mix(h, d.time_s);
        mix(h, d.backoff_s);
        mix(h, d.queue_wait_s);
        mix(h, d.energy_mj);
        mix(h, d.verification_s);
        mix(h, d.verification_mah);
        mix(h, d.bytes_over_air);
        mix(h, static_cast<std::uint64_t>(d.wave));
        mix(h, static_cast<std::uint64_t>(d.transport_resumes));
        mix(h, static_cast<std::uint64_t>(d.token_refreshes));
    }
    mix(h, static_cast<std::uint64_t>(succeeded));
    mix(h, static_cast<std::uint64_t>(failed));
    mix(h, total_energy_mj);
    mix(h, total_bytes);
    mix(h, makespan_s);
    mix(h, verification_s);
    mix(h, verification_mah);
    mix(h, static_cast<std::uint64_t>(differential_updates));
    mix(h, static_cast<std::uint64_t>(chunked_updates));
    mix(h, static_cast<std::uint64_t>(chunk_retries));
    mix(h, static_cast<std::uint64_t>(waves.size()));
    for (const WaveStats& w : waves) {
        mix(h, static_cast<std::uint64_t>(w.wave));
        mix(h, static_cast<std::uint64_t>(w.released));
        mix(h, static_cast<std::uint64_t>(w.succeeded));
        mix(h, static_cast<std::uint64_t>(w.failed));
        mix(h, static_cast<std::uint64_t>(w.rolled_back));
        mix(h, w.release_s);
        mix(h, w.complete_s);
    }
    mix(h, static_cast<std::uint64_t>(breaker_trips.size()));
    for (const BreakerTrip& b : breaker_trips) {
        mix(h, b.t);
        mix(h, static_cast<std::uint64_t>(b.wave));
        mix(h, static_cast<std::uint64_t>(b.failures));
        mix(h, static_cast<std::uint64_t>(b.completed));
        mix(h, static_cast<std::uint64_t>(b.released));
        mix(h, b.failure_rate);
        mix(h, static_cast<std::uint64_t>(b.aborted));
    }
    mix(h, static_cast<std::uint64_t>(exposed_devices));
    mix(h, static_cast<std::uint64_t>(halted_devices));
    mix(h, static_cast<std::uint64_t>(rolled_back_devices));
    mix(h, static_cast<std::uint64_t>(confirmed_devices));
    mix_queue(h, server);
    mix(h, server_stats.requests);
    mix(h, server_stats.sign_ops);
    mix(h, server_stats.delta_generations);
    mix(h, server_stats.response_hits);
    mix(h, server_stats.response_misses);
    mix(h, server_stats.response_evictions);
    mix(h, server_stats.chunked_responses);
    mix(h, server_stats.chunk_hits);
    mix(h, server_stats.chunk_misses);
    mix(h, server_stats.chunks_served);
    mix(h, server_stats.chunk_bytes_served);
    mix(h, server_stats.chunk_bytes_deduped);
    mix(h, server_stats.key_rotations);
    mix(h, events_processed);
    mix(h, static_cast<std::uint64_t>(edges.size()));
    for (const EdgeReport& e : edges) {
        mix(h, static_cast<std::uint64_t>(e.region));
        mix_queue(h, e.queue);
        mix(h, e.cache.requests);
        mix(h, e.cache.cache_hits);
        mix(h, e.cache.cache_misses);
        mix(h, e.cache.origin_fetch_bytes);
        mix(h, e.cache.bytes_served);
        mix(h, e.fallbacks);
    }
    return h;
}

Status FleetCampaign::add_synthetic(const SyntheticFleetSpec& spec) {
    owned_.reserve(owned_.size() + spec.count);
    members_.reserve(members_.size() + spec.count);
    for (std::size_t k = 0; k < spec.count; ++k) {
        DeviceConfig cfg = spec.base;
        cfg.device_id = spec.first_device_id + static_cast<std::uint32_t>(k);
        cfg.app_id = spec.app_id;
        cfg.seed = spec.base.seed + k;
        auto device = std::make_unique<Device>(cfg);
        manifest::DeviceToken token;
        token.device_id = cfg.device_id;
        token.nonce = 0;
        token.current_version = 0;
        auto image =
            server_->prepare_update(spec.app_id, token, spec.provision_version);
        if (!image) return image.status();
        UPKIT_RETURN_IF_ERROR(device->provision_factory(*image));
        members_.push_back(FleetMember{device.get(), spec.link});
        owned_.push_back(std::move(device));
    }
    return Status::kOk;
}

}  // namespace upkit::core
