#include "core/fault_campaign.hpp"

#include "server/vendor_server.hpp"
#include "sim/firmware.hpp"

namespace upkit::core {

namespace {

constexpr std::uint32_t kAppId = 0xFA;
constexpr std::uint32_t kDeviceId = 0x2001;

/// Reboots allowed before a still-dark device counts as bricked. Each
/// injected cut costs at most one extra reboot, so 2 + plan size is already
/// generous.
constexpr unsigned kMaxRebootAttempts = 8;

/// Safety bound on the sweep in case self-termination never triggers.
constexpr std::uint64_t kMaxOps = 4096;

}  // namespace

bool FaultCampaign::run_case(std::vector<std::uint64_t> plan,
                             FaultCampaignReport& report) {
    ++report.cases;

    // A fresh world per case: the sweep must not inherit wear, journal
    // residue, or server nonce state from earlier cuts.
    server::VendorServer vendor(to_bytes("fault-campaign-vendor"));
    server::UpdateServer server(to_bytes("fault-campaign-server"));
    const Bytes v1 = sim::generate_firmware({.size = config_.firmware_bytes, .seed = 7});
    // Setup failures count against convergence so a broken harness can never
    // report a clean sweep.
    if (server.publish(vendor.create_release(v1, {.version = 1, .app_id = kAppId})) !=
        Status::kOk) {
        ++report.retry_failures;
        return false;
    }

    DeviceConfig device_config;
    device_config.platform = config_.platform;
    device_config.layout = config_.layout;
    device_config.device_id = kDeviceId;
    device_config.app_id = kAppId;
    device_config.vendor_key = vendor.public_key();
    device_config.server_key = server.public_key();
    Device device(device_config);
    auto factory = server.prepare_update(
        kAppId, {.device_id = kDeviceId, .nonce = 0, .current_version = 0});
    if (!factory || device.provision_factory(*factory) != Status::kOk) {
        ++report.retry_failures;
        return false;
    }

    // v2 goes up only after the device is running v1 (otherwise the factory
    // image would already be the latest and the session a stale no-op).
    if (server.publish(vendor.create_release(sim::mutate_os_version(v1, 9),
                                             {.version = 2, .app_id = kAppId})) !=
        Status::kOk) {
        ++report.retry_failures;
        return false;
    }

    flash::SimFlash& internal = device.internal_flash();
    internal.schedule_power_loss_range(std::move(plan));

    UpdateSession session(device, server, config_.link);
    (void)session.run(kAppId);

    // Reboot until the device comes back. A cut during boot (including one
    // during recovery itself) returns a power-loss status; the next reboot
    // revives flash and resumes. Only kNotFound — no valid image anywhere —
    // is a brick.
    bool alive = false;
    for (unsigned attempt = 0; attempt < kMaxRebootAttempts && !alive; ++attempt) {
        auto boot = device.reboot();
        if (boot) {
            if (boot->resumed_interrupted_swap) ++report.swap_resumes;
            alive = boot->booted.version == 1 || boot->booted.version == 2;
            if (!alive) break;  // booted something that was never published
        } else if (boot.status() == Status::kNotFound) {
            break;  // no valid image anywhere: bricked
        }
    }
    report.cuts_fired += internal.power_cuts();
    if (!alive) {
        ++report.bricks;
        return false;
    }

    // Convergence: one clean retry must land the new version.
    internal.disarm_power_loss();
    if (device.identity().installed_version != 2) {
        UpdateSession retry(device, server, config_.link);
        (void)retry.run(kAppId);
    }
    if (device.identity().installed_version != 2) {
        ++report.retry_failures;
        return false;
    }
    return true;
}

FaultCampaignReport FaultCampaign::run() {
    FaultCampaignReport report;
    for (std::uint64_t op = 0; op < kMaxOps; ++op) {
        const std::uint64_t cuts_before = report.cuts_fired;
        const std::uint64_t failures_before = report.bricks + report.retry_failures;
        const bool ok = run_case({op}, report);
        if (ok && report.cuts_fired == cuts_before) {
            // Op index past the end of the scenario: nothing left to cut.
            report.complete = true;
            break;
        }
        for (const std::uint64_t recovery_op : config_.recovery_cuts) {
            run_case({op, recovery_op}, report);
        }
        if (failures_before == 0 && report.bricks + report.retry_failures > 0) {
            report.first_failure_op = op;
        }
    }
    return report;
}

}  // namespace upkit::core
