// Fleet-scale campaign bench: sweeps campaign size × engine shards × edge
// servers and emits one machine-readable JSON line per cell (wall clock,
// makespan, completion percentiles, campaign fingerprint, verify-memo
// counters). Within a sweep, every (devices, edges) group is run at each
// shard count, and the campaign fingerprints and the verify-memo hit and
// miss counts must match exactly — the bench exits nonzero on a mismatch,
// so CI's smoke cell doubles as a determinism gate at scale.
//
//   fleet_scale [devices_csv] [shards_csv] [edges_csv] [max_run_seconds]
//   defaults:    1000,100000,1000000  1,8   1,4        0 (no gate)
//
// Devices are synthetic (FleetCampaign::add_synthetic) on a deliberately
// tiny platform profile, and provisioning happens outside the timed
// region, so run_wall_s measures the rollout engine, not the factory.
// add_synthetic provisions on every host core; provision_wall_s times that
// call alone, setup_wall_s everything before the rollout. Simulated flash
// stores only the sectors a device wrote, and the factory image's sectors
// are shared across the fleet: peak_rss_mb (the process maximum so far, so
// run one process per fleet size to read a slope) grew 7.6 kB per device
// from 10^4 to 4x10^4 devices on a 4-core x86-64 host (g++ 12, Release;
// 7.8 kB with serial provisioning), which extrapolates to about 7.6 GB for
// a million devices. The process-global ECDSA verify memo is enabled: the vendor
// signature over the shared payload verifies once per campaign instead of
// once per device, which is what makes million-device cells tractable on
// one host (and is proven invisible to results by the shard test battery).
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/fleet.hpp"
#include "crypto/backend.hpp"
#include "sim/platform.hpp"

using namespace upkit;
using namespace upkit::bench;

namespace {

/// Peak resident set of this process so far, in MB (10^6 bytes). It never
/// falls, so a per-device memory slope needs one process per fleet size.
double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

/// Completion percentile over per-device end instants (nearest-rank).
double percentile(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const std::size_t rank = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5));
    return sorted[rank];
}

/// Small simulated MCU for scale runs: 16 KiB of flash (4 KiB bootloader +
/// two ~6 KiB slots) holds the 2 KiB bench firmware, and its 1 KiB sectors
/// keep each sector a device writes cheap: provisioning and one rollout
/// write 6 of the 16, 2 of them shared across the fleet.
const sim::PlatformProfile& fleet_profile() {
    static constexpr sim::PlatformProfile profile{
        .name = "fleet-sim",
        .cpu_mhz = 64.0,
        .internal_flash_bytes = 16 * 1024,
        .ram_bytes = 64 * 1024,
        .flash_sector_bytes = 1024,
        .flash_page_bytes = 256,
        .has_external_flash = false,
        .external_flash_bytes = 0,
        .flash_erase_sector_s = 0.085,
        .flash_write_page_s = 0.0053,
        .flash_read_bandwidth_bps = 16e6,
        .voltage = 3.0,
        .cpu_active_ma = 6.3,
        .radio_tx_ma = 16.4,
        .radio_rx_ma = 11.7,
        .flash_ma = 7.0,
        .sleep_ma = 0.003,
    };
    return profile;
}

/// Parses a comma-separated list of decimal counts. An empty or
/// non-numeric token prints the usage line and exits 2.
std::vector<std::size_t> parse_csv(const char* arg) {
    std::vector<std::size_t> out;
    for (const char* s = arg;;) {
        char* end = nullptr;
        if (std::isdigit(static_cast<unsigned char>(*s))) {
            out.push_back(std::strtoull(s, &end, 10));
        }
        if (end == nullptr || (*end != ',' && *end != '\0')) {
            std::fprintf(stderr,
                         "fleet_scale: bad count list '%s'\n"
                         "usage: fleet_scale [devices_csv] [shards_csv] [edges_csv] "
                         "[max_run_seconds]\n",
                         arg);
            std::exit(2);
        }
        if (*end == '\0') return out;
        s = end + 1;
    }
}

struct CellResult {
    core::CampaignReport report;
    double setup_wall_s = 0.0;
    double provision_wall_s = 0.0;  // the add_synthetic call alone
    double run_wall_s = 0.0;
    crypto::VerifyMemoStats memo;
};

/// Builds a fresh fleet and runs one campaign cell. setup_wall_s times
/// everything before the rollout (rig, both publishes, provisioning),
/// provision_wall_s the add_synthetic call alone, and run_wall_s the
/// rollout itself.
int run_cell(std::size_t devices, unsigned shards, unsigned edges, CellResult& out) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();

    Rig rig;
    rig.publish(1, sim::generate_firmware({.size = 2 * 1024, .seed = 30}));

    core::FleetCampaign campaign(rig.server);
    core::SyntheticFleetSpec spec;
    spec.count = devices;
    spec.base = rig.device_config(core::SlotLayout::kAB);
    spec.base.platform = &fleet_profile();
    spec.base.bootloader_reserved = 4 * 1024;
    spec.base.enable_differential = false;  // scale bench, not a bsdiff bench
    spec.link = net::ble_gatt();
    spec.first_device_id = 0x20000;
    spec.app_id = kAppId;
    spec.provision_version = 1;
    const auto tp = clock::now();
    if (campaign.add_synthetic(spec) != Status::kOk) {
        std::fprintf(stderr, "fleet_scale: provisioning %zu devices failed\n",
                     devices);
        return 1;
    }
    out.provision_wall_s = std::chrono::duration<double>(clock::now() - tp).count();

    rig.publish(2, sim::generate_firmware({.size = 2 * 1024, .seed = 31}));
    rig.server.set_model({.concurrency = 8, .service_time_s = 0.05});
    if (edges > 0) {
        campaign.set_edges({.edges = edges,
                            .model = {.concurrency = 8, .service_time_s = 0.01},
                            .backhaul_rtt_s = 0.05,
                            .backhaul_per_kb_s = 0.001});
    }
    campaign.set_shards(shards);
    campaign.set_event_budget(1000 * devices);  // a stuck engine fails, not hangs

    core::FleetPolicy policy;
    policy.wave_size = static_cast<unsigned>(std::max<std::size_t>(devices / 4, 1));
    policy.wave_stagger_s = 5.0;

    crypto::verify_memo_reset();
    const auto t1 = clock::now();
    out.report = campaign.run(kAppId, policy);
    const auto t2 = clock::now();
    out.setup_wall_s = std::chrono::duration<double>(t1 - t0).count();
    out.run_wall_s = std::chrono::duration<double>(t2 - t1).count();
    out.memo = crypto::verify_memo_stats();
    return 0;
}

void print_cell(std::size_t devices, unsigned shards, unsigned edges,
                const CellResult& cell) {
    const core::CampaignReport& report = cell.report;
    std::vector<double> completions;
    completions.reserve(report.devices.size());
    for (const core::CampaignDeviceResult& r : report.devices) {
        if (r.status == Status::kOk) completions.push_back(r.end_s);
    }
    std::sort(completions.begin(), completions.end());

    std::printf(
        "{\"bench\":\"fleet_scale\",\"devices\":%zu,\"shards\":%u,\"edges\":%u,"
        "\"succeeded\":%u,\"failed\":%u,"
        "\"makespan_s\":%.3f,\"completion_p50_s\":%.3f,\"completion_p99_s\":%.3f,"
        "\"total_bytes\":%llu,\"server_requests\":%llu,\"events\":%llu,"
        "\"fingerprint\":\"%016llx\","
        "\"setup_wall_s\":%.3f,\"provision_wall_s\":%.3f,\"run_wall_s\":%.3f,"
        "\"peak_rss_mb\":%.1f,"
        "\"verify_memo_hits\":%llu,\"verify_memo_misses\":%llu}\n",
        devices, shards, edges, report.succeeded, report.failed, report.makespan_s,
        percentile(completions, 0.50), percentile(completions, 0.99),
        static_cast<unsigned long long>(report.total_bytes),
        static_cast<unsigned long long>(report.server.requests),
        static_cast<unsigned long long>(report.events_processed),
        static_cast<unsigned long long>(report.fingerprint()), cell.setup_wall_s,
        cell.provision_wall_s, cell.run_wall_s, peak_rss_mb(), static_cast<unsigned long long>(cell.memo.hits),
        static_cast<unsigned long long>(cell.memo.misses));
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::size_t> device_counts =
        parse_csv(argc > 1 ? argv[1] : "1000,100000,1000000");
    const std::vector<std::size_t> shard_counts = parse_csv(argc > 2 ? argv[2] : "1,8");
    const std::vector<std::size_t> edge_counts = parse_csv(argc > 3 ? argv[3] : "1,4");
    const double max_run_s = argc > 4 ? std::strtod(argv[4], nullptr) : 0.0;

    crypto::set_verify_memo_enabled(true);

    int rc = 0;
    for (const std::size_t devices : device_counts) {
        for (const std::size_t edges : edge_counts) {
            std::uint64_t group_fp = 0;
            crypto::VerifyMemoStats group_memo;
            bool group_fp_set = false;
            for (const std::size_t shards : shard_counts) {
                CellResult cell;
                if (run_cell(devices, static_cast<unsigned>(shards),
                             static_cast<unsigned>(edges), cell) != 0) {
                    return 1;
                }
                print_cell(devices, static_cast<unsigned>(shards),
                           static_cast<unsigned>(edges), cell);

                // Smoke criteria: the fleet converges, the wall-clock gate
                // holds, and every shard count reproduces the same campaign.
                if (cell.report.succeeded != devices) {
                    std::fprintf(stderr, "fleet_scale: %u/%zu devices updated\n",
                                 cell.report.succeeded, devices);
                    rc = 1;
                }
                if (max_run_s > 0.0 && cell.run_wall_s > max_run_s) {
                    std::fprintf(stderr,
                                 "fleet_scale: %zu-device run took %.1f s "
                                 "(gate %.1f s)\n",
                                 devices, cell.run_wall_s, max_run_s);
                    rc = 1;
                }
                const std::uint64_t fp = cell.report.fingerprint();
                if (!group_fp_set) {
                    group_fp = fp;
                    group_memo = cell.memo;
                    group_fp_set = true;
                    continue;
                }
                if (fp != group_fp) {
                    std::fprintf(stderr,
                                 "fleet_scale: fingerprint diverged at "
                                 "devices=%zu edges=%zu shards=%zu: "
                                 "%016llx != %016llx\n",
                                 devices, edges, shards,
                                 static_cast<unsigned long long>(fp),
                                 static_cast<unsigned long long>(group_fp));
                    rc = 1;
                }
                // The memo counts a miss per distinct triple and a hit per
                // other lookup, so its counters are shard-independent too.
                if (cell.memo.hits != group_memo.hits ||
                    cell.memo.misses != group_memo.misses) {
                    std::fprintf(stderr,
                                 "fleet_scale: verify memo diverged at "
                                 "devices=%zu edges=%zu shards=%zu: "
                                 "%llu/%llu hits/misses != %llu/%llu\n",
                                 devices, edges, shards,
                                 static_cast<unsigned long long>(cell.memo.hits),
                                 static_cast<unsigned long long>(cell.memo.misses),
                                 static_cast<unsigned long long>(group_memo.hits),
                                 static_cast<unsigned long long>(group_memo.misses));
                    rc = 1;
                }
            }
        }
    }

    // ---- host-parallel speedup curve ------------------------------------
    // The shard workers are real threads, so the main sweep proves
    // determinism but says nothing about parallelism (on a small host every
    // shard count serializes onto the same cores). When the host actually
    // has cores to spread over, sweep shards 1,2,4,... up to the core count
    // on one campaign and report wall-clock speedup against the 1-shard
    // run. Single- and dual-core runners emit a skip marker instead of a
    // meaningless flat curve.
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores > 2) {
        const std::size_t par_devices = std::min<std::size_t>(
            *std::max_element(device_counts.begin(), device_counts.end()), 100000);
        double base_wall = 0.0;
        std::uint64_t base_fp = 0;
        for (unsigned shards = 1; shards <= std::min(cores, 16u); shards *= 2) {
            CellResult cell;
            if (run_cell(par_devices, shards, 0, cell) != 0) return 1;
            const std::uint64_t fp = cell.report.fingerprint();
            if (shards == 1) {
                base_wall = cell.run_wall_s;
                base_fp = fp;
            }
            if (cell.report.succeeded != par_devices || fp != base_fp) {
                std::fprintf(stderr,
                             "fleet_scale: parallel cell diverged at shards=%u\n",
                             shards);
                rc = 1;
            }
            std::printf(
                "{\"bench\":\"fleet_scale_parallel\",\"cores\":%u,\"devices\":%zu,"
                "\"shards\":%u,\"run_wall_s\":%.3f,\"peak_rss_mb\":%.1f,"
                "\"speedup_vs_1_shard\":%.2f,\"fingerprint\":\"%016llx\"}\n",
                cores, par_devices, shards, cell.run_wall_s, peak_rss_mb(),
                cell.run_wall_s > 0.0 ? base_wall / cell.run_wall_s : 0.0,
                static_cast<unsigned long long>(fp));
            std::fflush(stdout);
        }
    } else {
        std::printf(
            "{\"bench\":\"fleet_scale_parallel\",\"cores\":%u,\"skipped\":true,"
            "\"reason\":\"needs more than 2 hardware threads\"}\n",
            cores);
        std::fflush(stdout);
    }
    return rc;
}
