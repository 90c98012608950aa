// Chunk-dedup bench: the content-addressed distribution path measured
// end-to-end, with the compatibility pin that keeps it honest.
//
// Four sections, one JSON line, nonzero exit when a gate fails:
//
//  1. store   — publish a chain of chunked releases (successive localized
//               edits of one image) and read the chunk index's dedup ratio
//               (logical bytes / unique bytes). Gate: > 1.5x.
//  2. air     — the same v1 -> v2 rollout run twice: a chunk-capable fleet
//               vs a full-image fleet. Gate: chunked bytes-on-air strictly
//               below whole-image.
//  3. chaos   — the chunked rollout under chunk-targeted corruption
//               (sim::ChaosPlan). Poisoned chunks must be detected on
//               arrival and re-requested: every session converges, retries
//               are observed, and no digest mismatch reaches flash (a
//               corrupt byte surviving to the staging slot would fail the
//               pipeline's final image-digest check and the session with
//               it, so failed sessions are the observable).
//  4. legacy  — a chunked release serving plain tokens must produce
//               byte-identical wire responses to the pre-chunk server: a
//               pinned SHA-256 over (manifest || payload) of a fixed token
//               sequence, full and differential. Cross-checked against the
//               pre-refactor tree when the constant was minted.
//
//   chunk_dedup [devices]     (default: 48)
//
// An empty, non-numeric or zero count exits 2 with the usage line.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/fleet.hpp"
#include "sim/chaos.hpp"

using namespace upkit;
using namespace upkit::bench;

namespace {

/// Pinned over: v1 48 KiB seed-4242 + v2 = mutate(v1, 9, 1200), published
/// chunked under the bench keys; eight legacy tokens alternating full /
/// differential. Matches the output of the pre-chunk-store server serving
/// the same releases unchunked — do NOT update without a wire-format bump.
constexpr const char* kLegacyFingerprint =
    "33db282de86035f67987d8668d2167309d9b64410a3493864fa57273dead37c4";

void publish_chunked(Rig& rig, std::uint16_t version, const Bytes& firmware) {
    const Status s = rig.server.publish(rig.vendor.create_release(
        firmware, {.version = version, .app_id = kAppId, .chunked = true}));
    if (s != Status::kOk) {
        std::fprintf(stderr, "chunked publish failed: %d\n", static_cast<int>(s));
        std::abort();
    }
}

struct FleetOutcome {
    core::CampaignReport report;
    std::uint64_t bytes_over_air = 0;
    unsigned converged = 0;  // succeeded AND landed on the target version
};

/// One v1 -> v2 rollout over a fresh rig; `chunked` selects the device
/// capability, everything else (image, edit, link, fleet seeds) is fixed so
/// the byte counts are comparable.
FleetOutcome run_rollout(std::size_t fleet, bool chunked, const sim::ChaosPlan* chaos) {
    Rig rig;
    const Bytes v1 = sim::generate_firmware({.size = 48 * 1024, .seed = 4242});
    publish_chunked(rig, 1, v1);

    std::vector<std::unique_ptr<core::Device>> devices;
    devices.reserve(fleet);
    core::FleetCampaign campaign(rig.server);
    for (std::size_t i = 0; i < fleet; ++i) {
        core::DeviceConfig config = rig.device_config(core::SlotLayout::kAB);
        config.device_id = 0x70000 + static_cast<std::uint32_t>(i);
        config.seed = static_cast<std::uint64_t>(i) + 1;
        config.enable_chunked = chunked;
        config.enable_differential = chunked;  // full-image fleet: neither
        auto device = std::make_unique<core::Device>(config);
        auto factory = rig.server.prepare_update(
            kAppId, {.device_id = config.device_id, .nonce = 0, .current_version = 0});
        if (!factory || device->provision_factory(*factory) != Status::kOk) {
            std::fprintf(stderr, "provisioning device %zu failed\n", i);
            std::abort();
        }
        campaign.add(*device, net::ble_gatt());
        devices.push_back(std::move(device));
    }

    publish_chunked(rig, 2, sim::mutate_app_change(v1, 9, 1200));
    if (chaos != nullptr) {
        server::ServerModel model;
        model.chaos = chaos;
        rig.server.set_model(model);
    }

    campaign.set_event_budget(1000 * fleet);
    FleetOutcome out;
    out.report = campaign.run(kAppId);
    for (const core::CampaignDeviceResult& r : out.report.devices) {
        out.bytes_over_air += r.bytes_over_air;
    }
    for (const auto& device : devices) {
        if (device->identity().installed_version == 2) ++out.converged;
    }
    return out;
}

std::string hex_digest(const crypto::Sha256Digest& digest) {
    std::string hex(2 * digest.size(), '\0');
    for (std::size_t i = 0; i < digest.size(); ++i) {
        std::snprintf(hex.data() + 2 * i, 3, "%02x", digest[i]);
    }
    return hex;
}

/// SHA-256 over the wire responses a chunked release produces for devices
/// that never advertised chunk support.
std::string legacy_fingerprint() {
    Rig rig;
    const Bytes v1 = sim::generate_firmware({.size = 48 * 1024, .seed = 4242});
    publish_chunked(rig, 1, v1);
    publish_chunked(rig, 2, sim::mutate_app_change(v1, 9, 1200));

    crypto::Sha256 hasher;
    for (std::uint32_t i = 0; i < 8; ++i) {
        const manifest::DeviceToken token{.device_id = 0x5000 + i,
                                          .nonce = 0xA0 + i,
                                          .current_version =
                                              static_cast<std::uint16_t>(i % 2)};
        auto response = rig.server.prepare_update(kAppId, token);
        if (!response) {
            std::fprintf(stderr, "legacy prepare_update %u failed\n", i);
            std::abort();
        }
        hasher.update(response->manifest_bytes);
        hasher.update(response->payload);
    }
    return hex_digest(hasher.finalize());
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t fleet = argc > 1 ? parse_count(argv[1], "chunk_dedup [devices]") : 48;

    // ---- 1. store dedup across a release chain ---------------------------
    Rig store_rig;
    Bytes image = sim::generate_firmware({.size = 48 * 1024, .seed = 4242});
    publish_chunked(store_rig, 1, image);
    for (std::uint16_t version = 2; version <= 4; ++version) {
        image = sim::mutate_app_change(image, version + 10, 1500);
        publish_chunked(store_rig, version, image);
    }
    const server::ChunkStore::Stats store = store_rig.server.chunk_store_stats();
    const double dedup_ratio =
        store.unique_bytes > 0
            ? static_cast<double>(store.logical_bytes) / static_cast<double>(store.unique_bytes)
            : 0.0;

    // ---- 2. bytes on the air: chunked vs whole-image ---------------------
    const FleetOutcome full = run_rollout(fleet, /*chunked=*/false, nullptr);
    const FleetOutcome chunked = run_rollout(fleet, /*chunked=*/true, nullptr);

    // ---- 3. chunk chaos: corruption detected before flash ----------------
    sim::ChaosSpec spec;
    spec.seed = 4207;
    spec.chunk_corrupt_fraction = 0.3;
    const sim::ChaosPlan plan = sim::ChaosPlan::generate(spec);
    const FleetOutcome chaos = run_rollout(fleet, /*chunked=*/true, &plan);
    const std::uint64_t mismatches_to_flash =
        static_cast<std::uint64_t>(fleet) - chaos.converged;

    // ---- 4. legacy wire fingerprint --------------------------------------
    const std::string fingerprint = legacy_fingerprint();
    const bool fingerprint_ok = fingerprint == kLegacyFingerprint;

    const double air_savings = full.bytes_over_air > 0
                                   ? percent_less(static_cast<double>(chunked.bytes_over_air),
                                                  static_cast<double>(full.bytes_over_air))
                                   : 0.0;
    std::printf(
        "{\"bench\":\"chunk_dedup\",\"devices\":%zu,"
        "\"store_chunks\":%llu,\"store_unique_bytes\":%llu,"
        "\"store_logical_bytes\":%llu,\"dedup_ratio\":%.2f,"
        "\"full_bytes_air\":%llu,\"chunked_bytes_air\":%llu,"
        "\"air_savings_pct\":%.1f,"
        "\"chunked_makespan_s\":%.3f,\"full_makespan_s\":%.3f,"
        "\"chaos_succeeded\":%u,\"chaos_chunk_retries\":%llu,"
        "\"chunk_digest_mismatches_to_flash\":%llu,"
        "\"legacy_fingerprint\":\"%s\",\"legacy_fingerprint_ok\":%s}\n",
        fleet, static_cast<unsigned long long>(store.chunks),
        static_cast<unsigned long long>(store.unique_bytes),
        static_cast<unsigned long long>(store.logical_bytes), dedup_ratio,
        static_cast<unsigned long long>(full.bytes_over_air),
        static_cast<unsigned long long>(chunked.bytes_over_air), air_savings,
        chunked.report.makespan_s, full.report.makespan_s, chaos.report.succeeded,
        static_cast<unsigned long long>(chaos.report.chunk_retries),
        static_cast<unsigned long long>(mismatches_to_flash), fingerprint.c_str(),
        fingerprint_ok ? "true" : "false");

    bool failed = false;
    if (dedup_ratio <= 1.5) {
        std::fprintf(stderr, "chunk_dedup: dedup ratio %.2fx under the 1.5x bar\n",
                     dedup_ratio);
        failed = true;
    }
    if (full.converged != fleet || chunked.converged != fleet) {
        std::fprintf(stderr, "chunk_dedup: rollout did not converge (%u / %u of %zu)\n",
                     full.converged, chunked.converged, fleet);
        failed = true;
    }
    if (chunked.bytes_over_air >= full.bytes_over_air) {
        std::fprintf(stderr,
                     "chunk_dedup: chunked air bytes %llu not below whole-image %llu\n",
                     static_cast<unsigned long long>(chunked.bytes_over_air),
                     static_cast<unsigned long long>(full.bytes_over_air));
        failed = true;
    }
    if (chaos.converged != fleet || mismatches_to_flash != 0) {
        std::fprintf(stderr,
                     "chunk_dedup: %llu device(s) failed under chunk chaos — a chunk "
                     "digest mismatch reached flash or the session died\n",
                     static_cast<unsigned long long>(mismatches_to_flash));
        failed = true;
    }
    if (chaos.report.chunk_retries == 0) {
        std::fprintf(stderr, "chunk_dedup: chaos campaign observed zero chunk retries — "
                             "the corruption plan did not bite\n");
        failed = true;
    }
    if (!fingerprint_ok) {
        std::fprintf(stderr,
                     "chunk_dedup: legacy wire fingerprint drifted\n  got      %s\n"
                     "  expected %s\n",
                     fingerprint.c_str(), kLegacyFingerprint);
        failed = true;
    }
    return failed ? 1 : 0;
}
