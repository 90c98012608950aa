// Device-side verification hot-path bench: the three accelerations PR'd
// together — width-5 wNAF variable-base scalar multiplication, per-key
// precomputed (interleaved) tables, and the unrolled SHA-256 kernel —
// measured in isolation and end to end.
//
// Micro section: variable-base mul via the generic ladder vs a per-key
// precomputed table (ops/s and speedup, cross-checked for agreement); the
// prepared ECDSA verify against the pre-PR kernel reconstructed from its
// halves (the comb u1*G that already existed plus the generic ladder that
// used to serve u2*P); SHA-256's generic unrolled kernel vs the rolled
// reference (MB/s), named explicitly so the reading describes the committed
// speedup on any host, whatever kernel the process dispatches to.
// The ladder, the ladder-based reference verify and the rolled SHA-256 are
// the oracles of tests/support/. Every micro quantity is the median of five
// readings, and one reading times all sides of a ratio back to back, so a
// burst of host noise lands on both sides instead of one. verify_speedup,
// verify2_speedup and sha256_speedup are this host's live readings of the
// three speedups that calibrate_software_costs() commits. The field layer
// is reported as ns per Montgomery mul, add and sub on p and on n, without
// a gate. mul on p runs the reduction specialised to the P-256 prime's
// shape and mul on n generic CIOS, so mont_mul_n_ns - mont_mul_p_ns reads
// the specialisation's gain on the host at hand. Macro section:
// the same full-image fleet campaign run twice, once under the
// paper-anchored tinycrypt cost model and once under
// calibrate_software_costs(), showing the campaign's device-side
// verification seconds drop; both campaigns are simulated, so their
// numbers are the same on every host. Emits one machine-readable JSON
// line; CI runs it as a smoke step:
//
//   device_verify [devices] [iters]     (defaults: 48, 64)
//
// An empty, non-numeric or zero count exits 2 with the usage line.
//
// Exits nonzero when the precomputed-table wNAF speedup falls under 2.5x,
// prepared verification fails to beat the pre-PR kernel, verify2 falls
// under 1.5x two prepared verifies, the generic SHA-256x4 lanes fall under
// 2x the reference, SHA-256 falls under the throughput floor, any fast
// path disagrees with the reference, or the calibrated campaign fails to
// cut verification time.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "crypto/backend.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/modular.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256x4.hpp"
#include "support/oracles.hpp"

using namespace upkit;
using namespace upkit::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kWnafGate = 2.5;     // precomputed wNAF vs generic ladder
constexpr double kShaFloorMbS = 150;  // unrolled kernel, host RelWithDebInfo
constexpr double kBatch2Gate = 1.5;   // verify2 vs two sequential prepared verifies
constexpr double kShaX4Gate = 2.0;    // generic 4-lane sha256x4 vs sha256_reference

struct FleetOutcome {
    core::CampaignReport report;
    bool ok = false;
};

/// One full-image fleet rollout (v1 -> v2); `calibrated` switches the
/// device backends onto the calibrated cost model (committed speedups).
FleetOutcome run_fleet(std::size_t fleet, bool calibrated) {
    Rig rig;
    rig.publish(1, sim::generate_firmware({.size = 8 * 1024, .seed = 50}));

    std::vector<std::unique_ptr<core::Device>> devices;
    devices.reserve(fleet);
    core::FleetCampaign campaign(rig.server);
    for (std::size_t i = 0; i < fleet; ++i) {
        core::DeviceConfig config = rig.device_config(core::SlotLayout::kAB);
        config.device_id = 0x40000 + static_cast<std::uint32_t>(i);
        config.seed = static_cast<std::uint64_t>(i) + 1;
        config.enable_differential = false;  // full image: maximum digest work
        config.calibrated_costs = calibrated;
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
                       sim::generate_firmware({.size = 8 * 1024, .seed = 50}), 51, 256));

    core::FleetPolicy policy;
    campaign.set_event_budget(1000 * fleet);
    FleetOutcome out;
    out.report = campaign.run(kAppId, policy);
    out.ok = out.report.succeeded == fleet;
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    constexpr const char* kUsage = "device_verify [devices] [iters]";
    const std::size_t fleet = argc > 1 ? parse_count(argv[1], kUsage) : 48;
    const int iters = argc > 2 ? static_cast<int>(parse_count(argv[2], kUsage)) : 64;

    const crypto::P256& curve = crypto::P256::instance();
    Rng rng(0xDE7153);
    std::vector<crypto::U256> scalars(64);
    for (auto& k : scalars) {
        for (auto& limb : k.w) limb = rng.next_u64();
    }
    const crypto::PrivateKey priv = crypto::PrivateKey::generate(to_bytes("device-verify"));
    const crypto::PublicKey pub = priv.public_key();
    const crypto::AffinePoint point = pub.point();
    const crypto::P256::Precomputed table = curve.precompute(point);
    (void)curve.mul_base(scalars[0]);  // warm the singleton + comb table

    // Agreement first: a bench that outruns a wrong answer is worthless.
    for (const auto& k : scalars) {
        const auto ladder = crypto::P256Oracle::mul_generic(k, point);
        const auto pre = curve.mul(k, table);
        if (!ladder || !pre || !(ladder->x == pre->x) || !(ladder->y == pre->y)) {
            std::fprintf(stderr, "wNAF/ladder disagreement\n");
            return 1;
        }
    }

    // ---- agreement: the verify entry points on valid and forged pairs ----
    crypto::Sha256Digest digest = crypto::Sha256::digest(to_bytes("device-verify-msg"));
    const crypto::Signature sig = crypto::ecdsa_sign(priv, digest);
    const crypto::PreparedPublicKey prepared(pub);
    if (!crypto::ecdsa_verify(prepared, digest, sig) ||
        !crypto::ecdsa_verify_generic(pub, digest, sig)) {
        std::fprintf(stderr, "verify path disagreement on a valid signature\n");
        return 1;
    }
    // UpKit's double signature: two distinct keys (vendor + server), one
    // message digest each, verified as a pair — sequentially through the
    // prepared hot path vs in one Strauss 4-point batch pass.
    const crypto::PrivateKey priv2 = crypto::PrivateKey::generate(to_bytes("device-verify-2"));
    const crypto::PublicKey pub2 = priv2.public_key();
    const crypto::PreparedPublicKey prepared2(pub2);
    const crypto::Sha256Digest digest2 = crypto::Sha256::digest(to_bytes("device-verify-msg-2"));
    const crypto::Signature sig2 = crypto::ecdsa_sign(priv2, digest2);
    crypto::Signature bad_sig = sig;
    bad_sig[17] ^= 0x40;
    if (!crypto::ecdsa_verify2(prepared, digest, ByteSpan(sig), prepared2, digest2,
                               ByteSpan(sig2)) ||
        crypto::ecdsa_verify2(prepared, digest, ByteSpan(bad_sig), prepared2, digest2,
                              ByteSpan(sig2)) ||
        crypto::ecdsa_verify2(prepared, digest, ByteSpan(sig), prepared2, digest,
                              ByteSpan(sig2))) {
        std::fprintf(stderr, "verify2 disagreement with the sequential verdicts\n");
        return 1;
    }

    // ---- micro: scalar multiplication and the ECDSA verify entry points --
    volatile std::uint64_t sink = 0;
    auto time_ops = [&](int n, auto&& op) {
        const auto t0 = Clock::now();
        for (int i = 0; i < n; ++i) sink = sink + op(i);
        return seconds_since(t0) / n;
    };
    auto scalar = [&](int i) -> const crypto::U256& {
        return scalars[static_cast<std::size_t>(i) % scalars.size()];
    };

    Readings ladder_s{}, pre_s{}, comb_s{};
    Readings verify_prepared_s{}, verify_prepr_s{};
    Readings verify_seq_pair_s{}, verify2_s{};
    for (int r = 0; r < kReadings; ++r) {
        ladder_s[r] = time_ops(iters / 4 + 1, [&](int i) {
            return crypto::P256Oracle::mul_generic(scalar(i), point)->x.w[0];
        });
        pre_s[r] = time_ops(iters * 2, [&](int i) { return curve.mul(scalar(i), table)->x.w[0]; });
        comb_s[r] = time_ops(iters * 2, [&](int i) { return curve.mul_base(scalar(i))->x.w[0]; });
        verify_prepared_s[r] = time_ops(iters, [&](int) {
            return static_cast<std::uint64_t>(
                crypto::ecdsa_verify(prepared, digest, ByteSpan(sig)));
        });
        // The pre-PR verify kernel was comb(u1*G) + generic ladder(u2*P); its
        // dominant cost is reconstructed from those two measured halves (the
        // shared mod-n work is excluded, which biases the baseline *down* —
        // the reported improvement is conservative).
        verify_prepr_s[r] = comb_s[r] + ladder_s[r];
        verify_seq_pair_s[r] = time_ops(iters, [&](int) {
            return static_cast<std::uint64_t>(
                crypto::ecdsa_verify(prepared, digest, ByteSpan(sig)) &&
                crypto::ecdsa_verify(prepared2, digest2, ByteSpan(sig2)));
        });
        verify2_s[r] = time_ops(iters, [&](int) {
            return static_cast<std::uint64_t>(crypto::ecdsa_verify2(
                prepared, digest, ByteSpan(sig), prepared2, digest2, ByteSpan(sig2)));
        });
    }
    // ---- micro: the field layer, ns per Montgomery operation ---------------
    // mul, add and sub on the field prime p and the group order n, each a
    // dependent chain, so a reading is the latency the group law sees. Host
    // fields only: no gate reads them.
    const crypto::Montgomery* const moduli[2] = {&curve.field(), &curve.order()};
    const int mont_iters = iters * 1024;
    Readings mont_s[2][3]{};  // [p, n][mul, add, sub]
    for (int r = 0; r < kReadings; ++r) {
        for (int m = 0; m < 2; ++m) {
            const crypto::Montgomery& mont = *moduli[m];
            const crypto::U256 x = mont.reduce(scalars[1]);
            crypto::U256 acc = mont.reduce(scalars[0]);
            mont_s[m][0][r] = time_ops(mont_iters, [&](int) {
                acc = mont.mul(acc, x);
                return acc.w[0];
            });
            mont_s[m][1][r] = time_ops(mont_iters, [&](int) {
                acc = mont.add(acc, x);
                return acc.w[0];
            });
            mont_s[m][2][r] = time_ops(mont_iters, [&](int) {
                acc = mont.sub(acc, x);
                return acc.w[0];
            });
        }
    }
    auto mont_ns = [&](int m, int op) { return median(mont_s[m][op]) * 1e9; };

    const double wnaf_pre_speedup = median_ratio(ladder_s, pre_s);
    const double verify_speedup = median_ratio(verify_prepr_s, verify_prepared_s);
    const double verify2_speedup = median_ratio(verify_seq_pair_s, verify2_s);

    // ---- micro: SHA-256 generic unrolled kernel vs rolled reference ------
    // kSha256Speedup and kShaFloorMbS describe the generic kernel, so it is
    // timed by name: the dispatched sha256_compress may be SHA-NI or NEON.
    // 1 MiB is 16384 whole blocks; the reference also pads one more block,
    // which moves the ratio by under 0.01 %.
    Bytes buf(1024 * 1024);
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 31 + 7);
    if (crypto::Sha256::digest(buf) != crypto::sha256_reference(buf)) {
        std::fprintf(stderr, "sha256 kernel disagreement\n");
        return 1;
    }
    const int sha_iters = iters / 4 + 4;
    Readings sha_s{}, sha_ref_s{};
    for (int r = 0; r < kReadings; ++r) {
        sha_s[r] = time_ops(sha_iters, [&](int i) {
            buf[0] = static_cast<std::uint8_t>(i);
            std::array<std::uint32_t, 8> state = crypto::kSha256Init;
            crypto::sha256_compress_generic(state, buf.data(),
                                            buf.size() / crypto::kSha256BlockSize);
            return static_cast<std::uint64_t>(state[0]);
        });
        sha_ref_s[r] = time_ops(sha_iters, [&](int i) {
            buf[0] = static_cast<std::uint8_t>(i);
            return static_cast<std::uint64_t>(crypto::sha256_reference(buf)[0]);
        });
    }
    const double sha_mb_s = static_cast<double>(buf.size()) / median(sha_s) / 1e6;
    const double sha_ref_mb_s = static_cast<double>(buf.size()) / median(sha_ref_s) / 1e6;

    // ---- micro: multi-buffer SHA-256 -------------------------------------
    // Four independent 1 MiB lanes (the server's publish/ingest shape) vs
    // four sequential reference digests. The gate counts the always-present
    // generic SWAR lanes (sha256x4_digest_generic); the dispatched entry is
    // reported alongside, and on a host with SHA extensions it runs the
    // lanes in turn through the hardware kernel.
    Bytes lane_bufs[4];
    ByteSpan lanes[4];
    crypto::Sha256Digest lane_out[4];
    for (std::size_t i = 0; i < 4; ++i) {
        lane_bufs[i] = buf;
        lane_bufs[i][1] = static_cast<std::uint8_t>(i);
        lanes[i] = ByteSpan(lane_bufs[i]);
    }
    using LaneDigest = void (*)(const ByteSpan*, crypto::Sha256Digest*, std::size_t);
    for (const LaneDigest digest : {&crypto::sha256x4_digest, &crypto::sha256x4_digest_generic}) {
        digest(lanes, lane_out, 4);
        for (std::size_t i = 0; i < 4; ++i) {
            if (lane_out[i] != crypto::sha256_reference(lane_bufs[i])) {
                std::fprintf(stderr, "sha256x4 lane %zu disagreement\n", i);
                return 1;
            }
        }
    }
    auto time_sha_lanes = [&](int n, LaneDigest digest) {
        const auto t0 = Clock::now();
        for (int i = 0; i < n; ++i) {
            lane_bufs[0][0] = static_cast<std::uint8_t>(i);
            digest(lanes, lane_out, 4);
            sink = sink + lane_out[0][0];
        }
        return seconds_since(t0) / n;
    };
    Readings sha_x4_s{}, sha_x4_generic_s{}, sha_x4_ref_s{};
    for (int r = 0; r < kReadings; ++r) {
        sha_x4_s[r] = time_sha_lanes(sha_iters, &crypto::sha256x4_digest);
        sha_x4_generic_s[r] = time_sha_lanes(sha_iters, &crypto::sha256x4_digest_generic);
        sha_x4_ref_s[r] = time_ops(sha_iters, [&](int i) {
            lane_bufs[0][0] = static_cast<std::uint8_t>(i);
            std::uint64_t acc = 0;
            for (const auto& lane : lane_bufs) acc += crypto::sha256_reference(lane)[0];
            return acc;
        });
    }
    const double lane_bytes = 4.0 * static_cast<double>(buf.size());
    const double sha_x4_mb_s = lane_bytes / median(sha_x4_s) / 1e6;
    const double sha_x4_generic_mb_s = lane_bytes / median(sha_x4_generic_s) / 1e6;
    const double sha_x4_generic_speedup = median_ratio(sha_x4_ref_s, sha_x4_generic_s);
    const double sha_x4_speedup = median_ratio(sha_x4_ref_s, sha_x4_s);

    // ---- calibrated cost model ------------------------------------------
    const crypto::BackendCosts paper = crypto::make_tinycrypt_backend()->costs();
    const crypto::BackendCosts calibrated = crypto::calibrate_software_costs(paper);

    // ---- macro: campaign verification seconds, before vs after ----------
    const FleetOutcome baseline = run_fleet(fleet, /*calibrated=*/false);
    const FleetOutcome hot = run_fleet(fleet, /*calibrated=*/true);
    if (!baseline.ok || !hot.ok) {
        std::fprintf(stderr, "device_verify: fleet did not converge (%u / %u of %zu)\n",
                     baseline.report.succeeded, hot.report.succeeded, fleet);
        return 1;
    }

    std::printf(
        "{\"bench\":\"device_verify\",\"devices\":%zu,\"iters\":%d,"
        "\"mul_ladder_ops_s\":%.1f,\"mul_wnaf_precomputed_ops_s\":%.1f,"
        "\"wnaf_precomputed_speedup\":%.2f,\"verify_prepared_ops_s\":%.1f,"
        "\"verify_prepared_reconstruction_ops_s\":%.1f,\"verify_speedup\":%.2f,"
        "\"verify_sequential_pair_ops_s\":%.1f,\"verify2_ops_s\":%.1f,"
        "\"verify2_speedup\":%.2f,"
        "\"mont_mul_p_ns\":%.1f,\"mont_add_p_ns\":%.1f,\"mont_sub_p_ns\":%.1f,"
        "\"mont_mul_n_ns\":%.1f,\"mont_add_n_ns\":%.1f,\"mont_sub_n_ns\":%.1f,"
        "\"sha256_mb_s\":%.1f,\"sha256_reference_mb_s\":%.1f,"
        "\"sha256_speedup\":%.2f,"
        "\"sha256x4_impl\":\"%s\",\"sha256x4_mb_s\":%.1f,"
        "\"sha256x4_generic_mb_s\":%.1f,\"sha256x4_speedup\":%.2f,"
        "\"sha256x4_generic_speedup\":%.2f,"
        "\"tinycrypt_verify_s\":%.4f,\"tinycrypt_verify_calibrated_s\":%.4f,"
        "\"tinycrypt_verify2_calibrated_s\":%.4f,"
        "\"tinycrypt_sha_s_per_kb\":%.6f,\"tinycrypt_sha_calibrated_s_per_kb\":%.6f,"
        "\"campaign_verification_baseline_s\":%.3f,"
        "\"campaign_verification_calibrated_s\":%.3f,"
        "\"campaign_verification_improvement\":%.2f,"
        "\"makespan_baseline_s\":%.3f,\"makespan_calibrated_s\":%.3f}\n",
        fleet, iters, ops_s(ladder_s), ops_s(pre_s), wnaf_pre_speedup,
        ops_s(verify_prepared_s),
        ops_s(verify_prepr_s), verify_speedup, ops_s(verify_seq_pair_s), ops_s(verify2_s),
        verify2_speedup, mont_ns(0, 0), mont_ns(0, 1), mont_ns(0, 2), mont_ns(1, 0),
        mont_ns(1, 1), mont_ns(1, 2), sha_mb_s, sha_ref_mb_s, median_ratio(sha_ref_s, sha_s),
        crypto::sha256_impl_name(crypto::sha256_impl()), sha_x4_mb_s, sha_x4_generic_mb_s,
        sha_x4_speedup, sha_x4_generic_speedup, paper.verify_seconds, calibrated.verify_seconds,
        calibrated.verify2_seconds, paper.sha256_seconds_per_kb,
        calibrated.sha256_seconds_per_kb, baseline.report.verification_s,
        hot.report.verification_s,
        baseline.report.verification_s / hot.report.verification_s,
        baseline.report.makespan_s, hot.report.makespan_s);

    if (wnaf_pre_speedup < kWnafGate) {
        std::fprintf(stderr, "device_verify: precomputed wNAF speedup %.2fx under the %.1fx bar\n",
                     wnaf_pre_speedup, kWnafGate);
        return 1;
    }
    if (verify_speedup <= 1.0) {
        std::fprintf(stderr,
                     "device_verify: prepared verify (%.1f ops/s) did not beat the "
                     "pre-PR kernel (%.1f ops/s)\n",
                     ops_s(verify_prepared_s), ops_s(verify_prepr_s));
        return 1;
    }
    if (verify2_speedup < kBatch2Gate) {
        std::fprintf(stderr,
                     "device_verify: batched double verification %.2fx under the "
                     "%.1fx bar (batch %.1f pairs/s, sequential %.1f pairs/s)\n",
                     verify2_speedup, kBatch2Gate, ops_s(verify2_s), ops_s(verify_seq_pair_s));
        return 1;
    }
    if (sha_x4_generic_speedup < kShaX4Gate) {
        std::fprintf(stderr,
                     "device_verify: generic multi-buffer SHA-256 %.2fx under the "
                     "%.1fx bar (%.1f MB/s vs reference %.1f MB/s)\n",
                     sha_x4_generic_speedup, kShaX4Gate, sha_x4_generic_mb_s,
                     lane_bytes / median(sha_x4_ref_s) / 1e6);
        return 1;
    }
    if (sha_mb_s < kShaFloorMbS) {
        std::fprintf(stderr, "device_verify: sha256 %.1f MB/s under the %.0f MB/s floor\n",
                     sha_mb_s, kShaFloorMbS);
        return 1;
    }
    if (hot.report.verification_s >= baseline.report.verification_s) {
        std::fprintf(stderr,
                     "device_verify: calibrated campaign verification %.3f s did not "
                     "beat the baseline's %.3f s\n",
                     hot.report.verification_s, baseline.report.verification_s);
        return 1;
    }
    return 0;
}
