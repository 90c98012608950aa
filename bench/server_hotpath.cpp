// Server hot-path bench: the two accelerations PR'd together — fixed-base
// comb scalar multiplication (ECDSA signing) and the response envelope
// cache — measured in isolation and end-to-end.
//
// Micro section: mul_base via the comb table vs the generic double-and-add
// ladder of P256Oracle (tests/support/; ops/s and speedup, cross-checked
// for agreement), plus ECDSA sign
// throughput. Macro section: the same differential fleet campaign run twice,
// once under the historical constant service-time model and once under the
// measured model, where per-request cost reflects what the server actually
// did (1 delta generation, N-1 cache hits). The measured model's
// per-operation costs are committed host medians, so both makespans are
// pure functions of the arguments; `sign_us` is this host's live reading of
// the sign cost beside the committed `model_sign_us`. Emits one
// machine-readable JSON line; CI runs it as a smoke step:
//
//   server_hotpath [devices] [server_concurrency]     (defaults: 1000, 8)
//
// An empty, non-numeric or zero count exits 2 with the usage line.
//
// Exits nonzero when the comb speedup falls under 5x, the constant-time
// Booth path (mul_base_ct, what signing uses on secret nonces) falls under
// 4x, a fleet fails to converge, or the measured-model makespan fails to
// beat the constant one. Both speedups are medians over five readings,
// each of which times comb, ladder and CT back to back, so one burst of
// host noise cannot fail the gate alone.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256x4.hpp"
#include "diff/cdc.hpp"
#include "support/oracles.hpp"

using namespace upkit;
using namespace upkit::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct FleetOutcome {
    core::CampaignReport report;
    bool ok = false;
};

/// One differential fleet rollout (v1 -> v2) under the given server model.
FleetOutcome run_fleet(std::size_t fleet, const server::ServerModel& model) {
    Rig rig;
    rig.publish(1, sim::generate_firmware({.size = 4 * 1024, .seed = 40}));

    std::vector<std::unique_ptr<core::Device>> devices;
    devices.reserve(fleet);
    core::FleetCampaign campaign(rig.server);
    for (std::size_t i = 0; i < fleet; ++i) {
        core::DeviceConfig config = rig.device_config(core::SlotLayout::kAB);
        config.device_id = 0x30000 + static_cast<std::uint32_t>(i);
        config.seed = static_cast<std::uint64_t>(i) + 1;
        config.enable_differential = true;  // the delta cache is the point
        auto device = std::make_unique<core::Device>(config);
        auto factory = rig.server.prepare_update(
            kAppId, {.device_id = config.device_id, .nonce = 0, .current_version = 0});
        if (!factory || device->provision_factory(*factory) != Status::kOk) {
            std::fprintf(stderr, "provisioning device %zu failed\n", i);
            return {};
        }
        campaign.add(*device, net::ble_gatt());
        devices.push_back(std::move(device));
    }

    rig.publish(2, sim::mutate_app_change(
                       sim::generate_firmware({.size = 4 * 1024, .seed = 40}), 41, 256));
    rig.server.set_model(model);

    core::FleetPolicy policy;
    policy.wave_size = static_cast<unsigned>(std::max<std::size_t>(fleet / 4, 1));
    policy.wave_stagger_s = 5.0;
    campaign.set_event_budget(1000 * fleet);
    FleetOutcome out;
    out.report = campaign.run(kAppId, policy);
    out.ok = out.report.succeeded == fleet;
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    constexpr const char* kUsage = "server_hotpath [devices] [server_concurrency]";
    const std::size_t fleet = argc > 1 ? parse_count(argv[1], kUsage) : 1000;
    const unsigned concurrency =
        argc > 2 ? static_cast<unsigned>(parse_count(argv[2], kUsage)) : 8;

    // ---- micro: comb vs ladder ------------------------------------------
    const crypto::P256& curve = crypto::P256::instance();
    Rng rng(0x40717A7);
    std::vector<crypto::U256> scalars(64);
    for (auto& k : scalars) {
        for (auto& limb : k.w) limb = rng.next_u64();
    }
    (void)curve.mul_base(scalars[0]);  // warm the singleton + table

    // Each of the kReadings readings times comb, ladder and the
    // constant-time Booth path (mul_base_ct, what ecdsa_sign uses for the
    // secret nonce) back to back; the speedups and their gates read the
    // median ratio. The full-row-scan Booth walk pays for its secrecy, but
    // it must stay comfortably ahead of the generic ladder or signing
    // regressed: its gate is 4x (vs 5x for the public-input comb).
    volatile std::uint64_t sink = 0;
    constexpr int kCombIters = 512;
    constexpr int kLadderIters = 64;
    constexpr int kCtIters = 256;
    Readings comb_s{}, ladder_s{}, ct_s{};
    for (int r = 0; r < kReadings; ++r) {
        auto t0 = Clock::now();
        for (int i = 0; i < kCombIters; ++i) {
            sink = sink + curve.mul_base(scalars[i % scalars.size()])->x.w[0];
        }
        comb_s[r] = seconds_since(t0) / kCombIters;

        t0 = Clock::now();
        for (int i = 0; i < kLadderIters; ++i) {
            sink = sink +
                   crypto::P256Oracle::mul_base_generic(scalars[i % scalars.size()])->x.w[0];
        }
        ladder_s[r] = seconds_since(t0) / kLadderIters;

        t0 = Clock::now();
        for (int i = 0; i < kCtIters; ++i) {
            sink = sink + curve.mul_base_ct(scalars[i % scalars.size()])->x.w[0];
        }
        ct_s[r] = seconds_since(t0) / kCtIters;
    }
    const double speedup = median_ratio(ladder_s, comb_s);
    const double ct_speedup = median_ratio(ladder_s, ct_s);

    // Agreement spot-check: a bench that outruns a wrong answer is worthless.
    for (const auto& k : scalars) {
        const auto a = curve.mul_base(k);
        const auto b = crypto::P256Oracle::mul_base_generic(k);
        const auto c = curve.mul_base_ct(k);
        if (!a || !b || !c || !(a->x == b->x) || !(a->y == b->y) ||
            !(c->x == b->x) || !(c->y == b->y)) {
            std::fprintf(stderr, "comb/ladder/ct disagreement\n");
            return 1;
        }
    }

    const crypto::PrivateKey key = crypto::PrivateKey::generate(to_bytes("hotpath-key"));
    crypto::Sha256Digest digest = crypto::Sha256::digest(to_bytes("hotpath"));
    constexpr int kSignIters = 256;
    auto t0 = Clock::now();
    for (int i = 0; i < kSignIters; ++i) {
        digest[0] = static_cast<std::uint8_t>(i);
        sink = sink + crypto::ecdsa_sign(key, digest)[0];
    }
    const double sign_s = seconds_since(t0) / kSignIters;

    // ---- micro: chunk-ingest digest throughput ---------------------------
    // Publish-time chunk validation digests every chunk of the image
    // once. Before: one Sha256::digest call per chunk. After:
    // the same slices through the multi-buffer kernel, four lanes at a
    // time. Same chunk table both ways, digests cross-checked. On a host
    // with SHA extensions both sides run the one hardware kernel, so the
    // ratio reads about 1x there; UPKIT_FORCE_SCALAR_SHA=1 measures the
    // generic SWAR lanes against the generic single-stream kernel.
    const Bytes ingest_image = sim::generate_firmware({.size = 256 * 1024, .seed = 42});
    const std::vector<manifest::ChunkRef> ingest_table =
        diff::chunk_image(ByteSpan(ingest_image));
    std::vector<ByteSpan> ingest_slices(ingest_table.size());
    for (std::size_t i = 0; i < ingest_table.size(); ++i) {
        ingest_slices[i] =
            ByteSpan(ingest_image.data() + ingest_table[i].offset, ingest_table[i].length);
    }
    std::vector<crypto::Sha256Digest> ingest_digests(ingest_table.size());
    constexpr int kIngestIters = 24;
    t0 = Clock::now();
    for (int i = 0; i < kIngestIters; ++i) {
        for (std::size_t c = 0; c < ingest_slices.size(); ++c) {
            ingest_digests[c] = crypto::Sha256::digest(ingest_slices[c]);
        }
        sink = sink + ingest_digests[0][0];
    }
    const double ingest_seq_s = seconds_since(t0) / kIngestIters;
    for (std::size_t c = 0; c < ingest_table.size(); ++c) {
        if (ingest_digests[c] != ingest_table[c].digest) {
            std::fprintf(stderr, "chunk-ingest sequential digest disagreement\n");
            return 1;
        }
    }
    t0 = Clock::now();
    for (int i = 0; i < kIngestIters; ++i) {
        crypto::sha256_multi(ingest_slices.data(), ingest_digests.data(),
                             ingest_slices.size());
        sink = sink + ingest_digests[0][0];
    }
    const double ingest_multi_s = seconds_since(t0) / kIngestIters;
    for (std::size_t c = 0; c < ingest_table.size(); ++c) {
        if (ingest_digests[c] != ingest_table[c].digest) {
            std::fprintf(stderr, "chunk-ingest multi-buffer digest disagreement\n");
            return 1;
        }
    }
    const double ingest_mb = static_cast<double>(ingest_image.size()) / 1e6;

    // ---- macro: constant vs measured service model ----------------------
    const FleetOutcome constant = run_fleet(
        fleet, {.concurrency = concurrency, .service_time_s = 0.05});
    // Per-operation costs: medians of 21 host micro-measurements (cache-index
    // probe, payload copy per KB, ECDSA sign, bsdiff+LZSS per KB of input)
    // on a 4-vCPU Intel Xeon VM, RelWithDebInfo.
    const server::ServerModel measured{.concurrency = concurrency,
                                       .service_time_s = 8.3e-9,
                                       .service_per_kb_s = 28.6e-9,
                                       .sign_s = 110e-6,
                                       .delta_gen_per_kb_s = 30.2e-6};
    const FleetOutcome hot = run_fleet(fleet, measured);
    if (!constant.ok || !hot.ok) {
        std::fprintf(stderr, "server_hotpath: fleet did not converge (%u / %u of %zu)\n",
                     constant.report.succeeded, hot.report.succeeded, fleet);
        return 1;
    }

    const server::ServerStats& s = hot.report.server_stats;
    const double requests = static_cast<double>(s.requests);
    const double hit_ratio =
        requests > 0 ? static_cast<double>(s.response_hits) / requests : 0.0;

    std::printf(
        "{\"bench\":\"server_hotpath\",\"devices\":%zu,\"server_concurrency\":%u,"
        "\"mul_base_comb_ops_s\":%.1f,\"mul_base_ladder_ops_s\":%.1f,"
        "\"mul_base_ct_ops_s\":%.1f,"
        "\"comb_speedup\":%.2f,\"ct_speedup\":%.2f,\"ecdsa_sign_ops_s\":%.1f,"
        "\"sign_us\":%.1f,\"model_sign_us\":%.1f,"
        "\"chunk_ingest_chunks\":%zu,\"chunk_ingest_seq_mb_s\":%.1f,"
        "\"chunk_ingest_multi_mb_s\":%.1f,\"chunk_ingest_digest_speedup\":%.2f,"
        "\"sha256x4_impl\":\"%s\","
        "\"makespan_const_s\":%.3f,\"makespan_measured_s\":%.3f,"
        "\"makespan_improvement\":%.2f,"
        "\"requests\":%llu,\"delta_generations\":%llu,"
        "\"response_hits\":%llu,\"cache_hit_ratio\":%.3f,"
        "\"server_busy_const_s\":%.3f,\"server_busy_measured_s\":%.3f}\n",
        fleet, concurrency, ops_s(comb_s), ops_s(ladder_s), ops_s(ct_s), speedup,
        ct_speedup, 1.0 / sign_s,
        sign_s * 1e6, measured.sign_s * 1e6, ingest_table.size(),
        ingest_mb / ingest_seq_s, ingest_mb / ingest_multi_s,
        ingest_seq_s / ingest_multi_s,
        crypto::sha256_impl_name(crypto::sha256_impl()), constant.report.makespan_s,
        hot.report.makespan_s, constant.report.makespan_s / hot.report.makespan_s,
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.delta_generations),
        static_cast<unsigned long long>(s.response_hits), hit_ratio,
        constant.report.server.busy_s, hot.report.server.busy_s);

    if (speedup < 5.0) {
        std::fprintf(stderr, "server_hotpath: comb speedup %.2fx under the 5x bar\n",
                     speedup);
        return 1;
    }
    if (ct_speedup < 4.0) {
        std::fprintf(stderr, "server_hotpath: CT mul_base speedup %.2fx under the 4x bar\n",
                     ct_speedup);
        return 1;
    }
    if (hot.report.makespan_s >= constant.report.makespan_s) {
        std::fprintf(stderr,
                     "server_hotpath: measured makespan %.3f s did not beat the "
                     "constant model's %.3f s\n",
                     hot.report.makespan_s, constant.report.makespan_s);
        return 1;
    }
    return 0;
}
