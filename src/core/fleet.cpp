#include "core/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common/fnv1a.hpp"

namespace upkit::core {

namespace {

void mix_queue(Fnv1a& h, const ServerQueueStats& q) {
    h.mix(q.requests);
    h.mix(static_cast<std::uint64_t>(q.peak_depth));
    h.mix(static_cast<std::uint64_t>(q.peak_in_service));
    h.mix(q.total_wait_s);
    h.mix(q.max_wait_s);
    h.mix(q.busy_s);
    h.mix(q.outage_rejections);
}

}  // namespace

std::uint64_t CampaignReport::fingerprint() const {
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(devices.size()));
    for (const CampaignDeviceResult& d : devices) {
        h.mix(static_cast<std::uint64_t>(d.device_id));
        h.mix(static_cast<std::uint64_t>(d.status));
        h.mix(static_cast<std::uint64_t>(d.attempts));
        h.mix(static_cast<std::uint64_t>(d.final_version));
        h.mix(static_cast<std::uint64_t>(d.differential) | (std::uint64_t(d.chunked) << 1) |
                   (std::uint64_t(d.confirmed) << 2) | (std::uint64_t(d.rolled_back) << 3) |
                   (std::uint64_t(d.status == Status::kCampaignHalted) << 4));
        h.mix(static_cast<std::uint64_t>(d.chunk_retries));
        h.mix(d.start_s);
        h.mix(d.end_s);
        h.mix(d.time_s);
        h.mix(d.backoff_s);
        h.mix(d.queue_wait_s);
        h.mix(d.energy_mj);
        h.mix(d.verification_s);
        h.mix(d.verification_mah);
        h.mix(d.bytes_over_air);
        h.mix(static_cast<std::uint64_t>(d.wave));
        h.mix(static_cast<std::uint64_t>(d.transport_resumes));
        h.mix(static_cast<std::uint64_t>(d.token_refreshes));
    }
    h.mix(static_cast<std::uint64_t>(succeeded));
    h.mix(static_cast<std::uint64_t>(failed));
    h.mix(total_energy_mj);
    h.mix(total_bytes);
    h.mix(makespan_s);
    h.mix(verification_s);
    h.mix(verification_mah);
    h.mix(static_cast<std::uint64_t>(differential_updates));
    h.mix(static_cast<std::uint64_t>(chunked_updates));
    h.mix(static_cast<std::uint64_t>(chunk_retries));
    h.mix(static_cast<std::uint64_t>(waves.size()));
    for (const WaveStats& w : waves) {
        h.mix(static_cast<std::uint64_t>(w.wave));
        h.mix(static_cast<std::uint64_t>(w.released));
        h.mix(static_cast<std::uint64_t>(w.succeeded));
        h.mix(static_cast<std::uint64_t>(w.failed));
        h.mix(static_cast<std::uint64_t>(w.rolled_back));
        h.mix(w.release_s);
        h.mix(w.complete_s);
    }
    h.mix(static_cast<std::uint64_t>(breaker_trips.size()));
    for (const BreakerTrip& b : breaker_trips) {
        h.mix(b.t);
        h.mix(static_cast<std::uint64_t>(b.wave));
        h.mix(static_cast<std::uint64_t>(b.failures));
        h.mix(static_cast<std::uint64_t>(b.completed));
        h.mix(static_cast<std::uint64_t>(b.released));
        h.mix(b.failure_rate);
        h.mix(static_cast<std::uint64_t>(b.aborted));
    }
    h.mix(static_cast<std::uint64_t>(exposed_devices));
    h.mix(static_cast<std::uint64_t>(halted_devices));
    h.mix(static_cast<std::uint64_t>(rolled_back_devices));
    h.mix(static_cast<std::uint64_t>(confirmed_devices));
    mix_queue(h, server);
    h.mix(server_stats.requests);
    h.mix(server_stats.sign_ops);
    h.mix(server_stats.delta_generations);
    h.mix(server_stats.response_hits);
    h.mix(server_stats.response_misses);
    h.mix(server_stats.response_evictions);
    h.mix(server_stats.chunked_responses);
    h.mix(server_stats.chunk_hits);
    h.mix(server_stats.chunk_misses);
    h.mix(server_stats.chunks_served);
    h.mix(server_stats.chunk_bytes_served);
    h.mix(server_stats.chunk_bytes_deduped);
    h.mix(server_stats.key_rotations);
    h.mix(events_processed);
    h.mix(static_cast<std::uint64_t>(edges.size()));
    for (const EdgeReport& e : edges) {
        h.mix(static_cast<std::uint64_t>(e.region));
        mix_queue(h, e.queue);
        h.mix(e.cache.requests);
        h.mix(e.cache.cache_hits);
        h.mix(e.cache.cache_misses);
        h.mix(e.cache.origin_fetch_bytes);
        h.mix(e.cache.bytes_served);
        h.mix(e.fallbacks);
    }
    return h.value();
}

Status FleetCampaign::add_synthetic(const SyntheticFleetSpec& spec) {
    if (spec.count == 0) return Status::kOk;
    std::vector<std::unique_ptr<Device>> built(spec.count);
    std::size_t first = 0;
    if (owned_.empty()) {
        auto device = build_synthetic(spec, 0);
        if (!device) return device.status();
        built[0] = std::move(*device);
        first = 1;
    }
    // Synthetic devices carry one factory image, so most sectors they wrote
    // equal the campaign's first synthetic device's: point those at one
    // shared, immutable copy. Sharing moves the source's private sectors
    // into shared storage, so workers share one device at a time, under mu.
    flash::SimFlash& source = (owned_.empty() ? built[0] : owned_.front())->internal_flash();
    std::mutex mu;
    Status error = Status::kOk;  // the lowest failing index's status, under mu

    // Workers take the next index and build that device. Indices go out in
    // order, so once one fails, every index taken later lies past it.
    std::atomic<std::size_t> next{first};
    std::atomic<std::size_t> failed_at{spec.count};
    const auto work = [&] {
        for (std::size_t k = next++; k < failed_at.load(); k = next++) {
            auto device = build_synthetic(spec, k);
            const std::lock_guard<std::mutex> lock(mu);
            if (!device) {
                if (k < failed_at.load()) {
                    failed_at.store(k);
                    error = device.status();
                }
                return;
            }
            (*device)->internal_flash().share_sectors_with(source);
            built[k] = std::move(*device);
        }
    };
    const std::size_t workers = std::min<std::size_t>(
        std::max(std::thread::hardware_concurrency(), 1u), spec.count - first);
    {
        std::vector<std::jthread> threads;  // joined when this scope ends
        for (std::size_t t = 1; t < workers; ++t) threads.emplace_back(work);
        work();  // the calling thread is one of the workers
    }

    // Every index below failed_at was built; nothing at or after it joins.
    const std::size_t added = failed_at.load();
    owned_.reserve(owned_.size() + added);
    members_.reserve(members_.size() + added);
    for (std::size_t k = 0; k < added; ++k) {
        members_.push_back(FleetMember{built[k].get(), spec.link});
        owned_.push_back(std::move(built[k]));
    }
    return error;
}

Expected<std::unique_ptr<Device>> FleetCampaign::build_synthetic(const SyntheticFleetSpec& spec,
                                                                 std::size_t k) const {
    DeviceConfig cfg = spec.base;
    cfg.device_id = spec.first_device_id + static_cast<std::uint32_t>(k);
    cfg.app_id = spec.app_id;
    cfg.seed = spec.base.seed + k;
    auto device = std::make_unique<Device>(cfg);
    manifest::DeviceToken token;
    token.device_id = cfg.device_id;
    token.nonce = 0;
    token.current_version = 0;
    auto image = server_->prepare_update(spec.app_id, token, spec.provision_version);
    if (!image) return image.status();
    UPKIT_RETURN_IF_ERROR(device->provision_factory(*image));
    return device;
}

}  // namespace upkit::core
