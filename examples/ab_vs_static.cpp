// A/B vs static slot configurations, including recovery from a power loss
// in the middle of the update — the scenario that motivates the
// bootloader-side half of UpKit's double verification.
#include <cstdio>

#include "core/device.hpp"
#include "core/session.hpp"
#include "net/link.hpp"
#include "server/update_server.hpp"
#include "server/vendor_server.hpp"
#include "sim/firmware.hpp"

using namespace upkit;

namespace {

constexpr std::uint32_t kApp = 0xAB;
constexpr std::uint32_t kDev = 0xABAB;

std::unique_ptr<core::Device> provision(server::VendorServer& vendor,
                                        server::UpdateServer& server,
                                        core::SlotLayout layout) {
    core::DeviceConfig config;
    config.layout = layout;
    config.device_id = kDev;
    config.app_id = kApp;
    config.vendor_key = vendor.public_key();
    config.server_key = server.public_key();
    auto device = std::make_unique<core::Device>(config);
    auto factory =
        server.prepare_update(kApp, {.device_id = kDev, .nonce = 0, .current_version = 0});
    if (!factory || device->provision_factory(*factory) != Status::kOk) std::abort();
    return device;
}

}  // namespace

int main() {
    std::printf("== UpKit slot configurations: A/B vs static ==\n\n");

    server::VendorServer vendor(to_bytes("vendor-key"));
    server::UpdateServer server(to_bytes("server-key"));
    const Bytes v1 = sim::generate_firmware({.size = 100 * 1024, .seed = 1});
    server.publish(vendor.create_release(v1, {.version = 1, .app_id = kApp}));

    auto ab_device = provision(vendor, server, core::SlotLayout::kAB);
    auto static_device = provision(vendor, server, core::SlotLayout::kStaticInternal);

    server.publish(vendor.create_release(sim::mutate_os_version(v1, 2),
                                         {.version = 2, .app_id = kApp}));

    // ------------------------------------------------------- normal update
    for (auto* entry : {&ab_device, &static_device}) {
        core::Device& device = **entry;
        const bool is_ab = device.config().layout == core::SlotLayout::kAB;
        core::UpdateSession session(device, server, net::ble_gatt());
        const core::SessionReport report = session.run(kApp);
        if (report.status != Status::kOk) {
            std::fprintf(stderr, "update failed\n");
            return 1;
        }
        std::printf("%-18s loading %5.2f s  (total %5.1f s)  -> v%u from slot %u\n",
                    is_ab ? "A/B (jump):" : "static (swap):", report.phases.loading_s,
                    report.phases.total(), report.final_version, device.installed_slot());
    }
    std::printf("\nA/B eliminates the swap: the paper reports 92%% less loading time.\n");

    // ------------------------------------------ power loss mid-propagation
    std::printf("\n-- power loss while the update streams in --\n");
    server.publish(vendor.create_release(sim::mutate_os_version(v1, 3),
                                         {.version = 3, .app_id = kApp}));
    core::Device& device = *ab_device;
    agent::UpdateAgent& agent = device.agent();
    auto token = agent.request_device_token();
    auto response = server.prepare_update(kApp, *token);
    if (!response || agent.offer_manifest(response->manifest_bytes) != Status::kOk) {
        std::fprintf(stderr, "manifest exchange failed\n");
        return 1;
    }
    // Half the payload arrives, then the battery dies mid flash write.
    const std::size_t half = response->payload.size() / 2;
    for (std::size_t off = 0; off < half; off += 4096) {
        const std::size_t len = std::min<std::size_t>(4096, half - off);
        (void)agent.offer_payload(ByteSpan(response->payload).subspan(off, len));
    }
    device.internal_flash().schedule_power_loss_range({0});
    const Status cut = agent.offer_payload(
        ByteSpan(response->payload).subspan(half, std::min<std::size_t>(4096, response->payload.size() - half)));
    std::printf("power cut during flash write: %s\n", std::string(to_string(cut)).c_str());

    // On reboot the bootloader finds a torn image in the target slot,
    // rejects it, and boots the intact previous version.
    auto report = device.reboot();
    if (!report) {
        std::fprintf(stderr, "device bricked?! (this must not happen)\n");
        return 1;
    }
    std::printf("rebooted: running v%u (torn update discarded, device not bricked)\n",
                report->booted.version);

    // The next attempt completes normally.
    core::UpdateSession retry(device, server, net::ble_gatt());
    const core::SessionReport retry_report = retry.run(kApp);
    std::printf("retry after power loss: %s -> v%u\n",
                std::string(to_string(retry_report.status)).c_str(),
                retry_report.final_version);
    if (retry_report.status != Status::kOk) return 1;

    // ------------------------------------------------ power loss mid-swap
    // The static configuration's weak spot: the swap rewrites the slot the
    // device boots from, so a power cut in the middle used to mean a brick.
    // The flash-backed swap journal lets the bootloader resume instead.
    std::printf("\n-- power loss in the middle of the static swap --\n");
    core::Device& sdev = *static_device;
    agent::UpdateAgent& sagent = sdev.agent();
    auto stoken = sagent.request_device_token();
    auto sresponse = server.prepare_update(kApp, *stoken);
    if (!sresponse || sagent.offer_manifest(sresponse->manifest_bytes) != Status::kOk) {
        std::fprintf(stderr, "manifest exchange failed\n");
        return 1;
    }
    for (std::size_t off = 0; off < sresponse->payload.size(); off += 4096) {
        const std::size_t len =
            std::min<std::size_t>(4096, sresponse->payload.size() - off);
        if (sagent.offer_payload(ByteSpan(sresponse->payload).subspan(off, len)) !=
            Status::kOk) {
            std::fprintf(stderr, "staging failed\n");
            return 1;
        }
    }
    // The v3 image is fully staged; the battery dies while the bootloader
    // swaps it into the executable slot.
    sdev.internal_flash().schedule_power_loss_range({40});
    auto swap_cut = sdev.reboot();
    std::printf("power cut mid-swap: %s\n",
                swap_cut ? "swap finished before the cut?!"
                         : std::string(to_string(swap_cut.status())).c_str());
    auto recovered = sdev.reboot();
    if (!recovered) {
        std::fprintf(stderr, "device bricked?! (this must not happen)\n");
        return 1;
    }
    std::printf("rebooted: journal %s, running v%u\n",
                recovered->resumed_interrupted_swap ? "resumed the interrupted swap"
                                                    : "had nothing pending",
                recovered->booted.version);
    return recovered->resumed_interrupted_swap && recovered->booted.version == 3 ? 0 : 1;
}
