// UpKit's bootloader (paper Sect. III-D, IV).
//
// After reboot it re-verifies the stored image through the shared verifier
// (verify::read_image_header, check_compatibility, verify_signatures,
// digest_slot) — the second half of the double verification; the agent's
// check cannot cover reboots mid-propagation or power loss before
// verification — and then loads it:
//   static mode  one bootable slot; a staged image is swapped in from the
//                non-bootable slot (the old image becomes the rollback)
//   A/B mode     two bootable slots; the bootloader jumps to the newest
//                valid one, no copying at all (the 92% loading-time saving
//                of Fig. 8c)
// Invalid images are invalidated and the previous image boots (rollback).
// The bootloader itself is never updated (a failure would brick the
// device); bugs in *verification* are mitigated by updating the agent's
// copy of the verifier, which rejects bad images before they reach us.
#pragma once

#include <optional>
#include <vector>

#include "agent/fsm.hpp"
#include "manifest/manifest.hpp"
#include "sim/clock.hpp"
#include "sim/energy.hpp"
#include "sim/platform.hpp"
#include "verify/verifier.hpp"

namespace upkit::boot {

struct BootConfig {
    /// Slots the MCU can execute from, in preference order.
    std::vector<std::uint32_t> bootable_slots;
    /// Non-bootable staging slot (static mode only).
    std::optional<std::uint32_t> staging_slot;
    /// Device facts for compatibility checks (installed_version unused).
    verify::DeviceIdentity identity;
    /// MCU reset + clock/peripheral init before our code runs.
    double reboot_seconds = 0.25;

    /// Boot-confirm protocol (MCUboot test-swap style): booting a version
    /// that was never confirmed arms a trial. Unless the application
    /// confirms within `confirm_window_s` (self-test passed), the watchdog
    /// reboots the device and the *next* boot reverts to the previous
    /// image — a bad update can never strand the device.
    bool trial_boot = false;
    double confirm_window_s = 30.0;
};

struct BootReport {
    std::uint32_t booted_slot = 0;
    manifest::Manifest booted;
    /// True when a staged image was installed (swap) during this boot.
    bool installed_from_staging = false;
    /// True when an install interrupted by power loss was completed from the
    /// swap journal before slot selection.
    bool resumed_interrupted_swap = false;
    /// Slots whose images failed verification and were invalidated.
    std::vector<std::uint32_t> invalidated;
    /// This boot armed a trial: an unconfirmed version is now running and
    /// must be confirmed before the window expires.
    bool trial_boot = false;
    /// This boot reverted an unconfirmed trial image before slot selection
    /// (the previous boot's trial expired without confirmation).
    bool rolled_back = false;
    /// Device-seconds this boot spent verifying candidates (signatures +
    /// streamed re-digest); the session driver books the rest of the boot
    /// as loading (the Fig. 8a phase split).
    double verification_seconds = 0.0;
};

class Bootloader {
public:
    Bootloader(const BootConfig& config, slots::SlotManager& slots,
               const verify::Verifier& verifier, const sim::PlatformProfile& platform,
               sim::VirtualClock& clock, sim::EnergyMeter& meter)
        : config_(config),
          slots_(&slots),
          verifier_(&verifier),
          platform_(&platform),
          clock_(&clock),
          meter_(&meter) {}

    /// Performs a full boot: scan, verify, install-if-needed, "jump".
    /// Returns kNotFound when no valid image exists anywhere.
    Expected<BootReport> boot();

    /// Confirms the armed trial (application self-test passed). Returns
    /// kFailedPrecondition with no trial armed, kTimeout past the window
    /// (the trial stays armed — the watchdog revert is already inevitable),
    /// kOk on success (the running version becomes the confirmed one).
    Status confirm_boot();

    agent::TrialState trial_state() const { return trial_.state; }
    /// Device-clock instant the armed trial's window expires (the modelled
    /// watchdog fires here). Meaningful only while a trial is armed.
    double trial_deadline() const { return trial_.deadline_s; }
    /// Last version that passed boot confirmation (0 = none yet; the first
    /// booted version — the factory image — is trusted implicitly).
    std::uint16_t confirmed_version() const { return confirmed_version_; }

private:
    /// An image found in a slot, in either wire encoding.
    struct Candidate {
        std::uint32_t slot_id = 0;
        verify::ImageHeader header;
    };

    std::optional<Candidate> read_candidate(std::uint32_t slot_id) const;
    /// The second half of the double verification, through the shared
    /// verifier. `scratch` is the boot-wide sector buffer reused across
    /// candidates.
    Status verify_slot_image(const Candidate& candidate, Bytes& scratch);
    void charge_cpu(double seconds);

    BootConfig config_;
    slots::SlotManager* slots_;
    const verify::Verifier* verifier_;
    const sim::PlatformProfile* platform_;
    sim::VirtualClock* clock_;
    sim::EnergyMeter* meter_;

    /// Trial bookkeeping. On real hardware this lives in a flash trailer
    /// (MCUboot's image trailer); here the Bootloader object survives the
    /// simulated Device's reboots, which models the same persistence.
    struct TrialRecord {
        agent::TrialState state = agent::TrialState::kNone;
        std::uint16_t version = 0;
        std::uint32_t slot = 0;
        double deadline_s = 0.0;
    };
    TrialRecord trial_;
    std::uint16_t confirmed_version_ = 0;
};

}  // namespace upkit::boot
