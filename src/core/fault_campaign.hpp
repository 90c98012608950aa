// Exhaustive power-loss fault-injection campaign.
//
// For every flash-operation index N — spanning the whole update session AND
// the post-update boot-time install (the static-mode swap) — the campaign
// builds a fresh vendor/server/device world, arms a power cut at op N, runs
// the update, and then drives reboots until the device comes back up. The
// never-brick property demands the device boots either the old or the new
// version; the convergence property demands one retry session lands the new
// one. Optional `recovery_cuts` arm a SECOND cut during the recovery that
// follows the first — the journal must survive crashes of its own repair.
//
// The sweep self-terminates: the first N at which no cut fires lies past
// every flash op the scenario performs, so the op space has been covered.
#pragma once

#include <vector>

#include "core/device.hpp"
#include "core/session.hpp"

namespace upkit::core {

struct FaultCampaignConfig {
    SlotLayout layout = SlotLayout::kStaticInternal;
    const sim::PlatformProfile* platform = &sim::nrf52840();
    net::LinkParams link = net::ble_gatt();
    std::size_t firmware_bytes = 48 * 1024;

    /// For each entry R, every sweep index N additionally runs a double-fault
    /// case: cut at op N, then a second cut R ops into the recovery that
    /// follows. Empty = single-fault sweep only.
    std::vector<std::uint64_t> recovery_cuts;
};

struct FaultCampaignReport {
    std::uint64_t cases = 0;          ///< scenarios executed
    std::uint64_t cuts_fired = 0;     ///< power cuts that actually triggered
    std::uint64_t swap_resumes = 0;   ///< boots that completed a journaled swap
    std::uint64_t bricks = 0;         ///< reboot loop never found a bootable image
    std::uint64_t retry_failures = 0; ///< retry did not converge to the new version
    bool complete = false;            ///< swept past the last op that can fire
    std::uint64_t first_failure_op = 0;  ///< earliest op index that failed

    bool clean() const { return bricks == 0 && retry_failures == 0; }
};

class FaultCampaign {
public:
    explicit FaultCampaign(const FaultCampaignConfig& config) : config_(config) {}

    /// Runs the whole sweep. Deterministic: same config, same outcome.
    FaultCampaignReport run();

private:
    /// One scenario: power cuts at the given op offsets (entry 0 from the
    /// start of the update, entry i>0 from the i-th post-cut revive).
    /// Returns false on a violated property (brick / failed convergence).
    bool run_case(std::vector<std::uint64_t> plan, FaultCampaignReport& report);

    FaultCampaignConfig config_;
};

}  // namespace upkit::core
