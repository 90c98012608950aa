// Shared scaffolding for the table/figure benches: servers, provisioned
// devices, and fixed-width table printing with paper-vs-measured columns.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/device.hpp"
#include "core/session.hpp"
#include "net/link.hpp"
#include "server/update_server.hpp"
#include "server/vendor_server.hpp"
#include "sim/firmware.hpp"

namespace upkit::bench {

inline constexpr std::uint32_t kAppId = 0xB0B;
inline constexpr std::uint32_t kDeviceId = 0x2002;

struct Rig {
    server::VendorServer vendor{to_bytes("bench-vendor-key")};
    server::UpdateServer server{to_bytes("bench-server-key")};

    void publish(std::uint16_t version, const Bytes& firmware) {
        const Status s = server.publish(
            vendor.create_release(firmware, {.version = version, .app_id = kAppId}));
        if (s != Status::kOk && s != Status::kAlreadyExists) {
            std::fprintf(stderr, "publish failed: %d\n", static_cast<int>(s));
            std::abort();
        }
    }

    core::DeviceConfig device_config(core::SlotLayout layout) const {
        core::DeviceConfig config;
        config.layout = layout;
        config.device_id = kDeviceId;
        config.app_id = kAppId;
        config.vendor_key = vendor.public_key();
        config.server_key = server.public_key();
        // Figure/ablation benches model the optimized verification hot path
        // (the committed wNAF, verify2 and unrolled-SHA speedups). The costs
        // are constants, so the simulated outputs are the same on every
        // host and BENCH_fig8.json pins them exactly.
        config.calibrated_costs = true;
        return config;
    }

    /// Device provisioned with whatever version is currently latest.
    std::unique_ptr<core::Device> make_device(core::DeviceConfig config) {
        auto device = std::make_unique<core::Device>(config);
        auto image = server.prepare_update(
            kAppId, {.device_id = kDeviceId, .nonce = 0, .current_version = 0});
        if (!image || device->provision_factory(*image) != Status::kOk) {
            std::fprintf(stderr, "factory provisioning failed\n");
            std::abort();
        }
        return device;
    }
};

inline void print_header(const char* title) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title);
    std::printf("================================================================\n");
}

inline void print_note(const char* note) { std::printf("%s\n", note); }

/// Parses a positive decimal count argument. An empty, non-numeric or zero
/// count prints `usage` and exits 2, so it is never mistaken for a failed
/// gate (exit 1).
inline std::size_t parse_count(const char* arg, const char* usage) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(arg, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*arg)) || *end != '\0' || n == 0) {
        std::fprintf(stderr, "bad count '%s' (want a positive decimal integer)\nusage: %s\n",
                     arg, usage);
        std::exit(2);
    }
    return static_cast<std::size_t>(n);
}

/// "who wins / by how much" helper.
inline double percent_less(double smaller, double larger) {
    return 100.0 * (1.0 - smaller / larger);
}

}  // namespace upkit::bench
