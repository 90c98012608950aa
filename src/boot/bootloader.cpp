#include "boot/bootloader.hpp"

#include <algorithm>

namespace upkit::boot {

void Bootloader::charge_cpu(double seconds) {
    sim::charge_cpu(*platform_, *clock_, *meter_, seconds,
                    verifier_->backend().costs().active_current_ma);
}

std::optional<Bootloader::Candidate> Bootloader::read_candidate(std::uint32_t slot_id) const {
    const slots::SlotConfig* slot = slots_->slot(slot_id);
    if (slot == nullptr) return std::nullopt;
    auto header = verify::read_image_header(*slot);
    if (!header) return std::nullopt;
    return Candidate{slot_id, std::move(*header)};
}

Status Bootloader::verify_slot_image(const Candidate& candidate, Bytes& scratch) {
    const slots::SlotConfig& slot = *slots_->slot(candidate.slot_id);
    const verify::ImageHeader& header = candidate.header;
    const crypto::BackendCosts& costs = verifier_->backend().costs();

    // No token exists after reboot, so the freshness fields are not
    // re-checked: the server signature bound them, and it is re-verified.
    UPKIT_RETURN_IF_ERROR(verifier_->check_compatibility(header, config_.identity, slot));
    // Both ECDSA verifications, priced as one batched pass when the cost
    // model is calibrated for it.
    charge_cpu(crypto::double_verify_seconds(costs));
    UPKIT_RETURN_IF_ERROR(verifier_->verify_signatures(header));

    const std::uint32_t size = header.manifest.firmware_size;
    const auto digest = verify::digest_slot(slot, header.firmware_offset, size, scratch);
    if (!digest) return digest.status();
    charge_cpu(costs.sha256_seconds_per_kb * static_cast<double>(size) / 1024.0);
    return verifier_->verify_firmware_digest(header.manifest, *digest);
}

Expected<BootReport> Bootloader::boot() {
    charge_cpu(config_.reboot_seconds);  // MCU reset + init

    BootReport report;

    // Crash recovery first: a power cut mid-swap leaves both slots partial;
    // the journal knows the last durable step and the swap is completed
    // before any image is examined. A second cut in here simply repeats
    // this on the next boot.
    auto resumed = slots_->resume_swap();
    if (!resumed) return resumed.status();
    report.resumed_interrupted_swap = *resumed;

    // Trial revert next: the previous boot armed a trial that was never
    // confirmed — whatever ended that boot (watchdog at window expiry,
    // crash, power cycle), the unconfirmed image must not run again. Drop
    // it before slot selection so the previous image boots below.
    if (config_.trial_boot && trial_.state == agent::TrialState::kArmed) {
        if (slots_->invalidate(trial_.slot) == Status::kFlashPowerLoss) {
            return Status::kFlashPowerLoss;
        }
        report.invalidated.push_back(trial_.slot);
        report.rolled_back = true;
        trial_.state = agent::TrialState::kRolledBack;
    }

    // Gather parseable images from every slot we know about.
    std::vector<Candidate> candidates;
    for (const std::uint32_t id : config_.bootable_slots) {
        if (auto c = read_candidate(id)) candidates.push_back(std::move(*c));
    }
    if (config_.staging_slot) {
        if (auto c = read_candidate(*config_.staging_slot)) {
            candidates.push_back(std::move(*c));
        }
    }
    // Newest first; bootable slots win ties (no pointless install).
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                         return a.header.manifest.version > b.header.manifest.version;
                     });

    // One sector-sized digest buffer shared by every candidate this boot
    // scans (a real bootloader reuses one static buffer, and malloc churn
    // per candidate would be pure waste).
    Bytes scratch;
    for (const Candidate& candidate : candidates) {
        const Status verdict = [&] {
            const sim::PhaseTimer timer(*clock_, report.verification_seconds);
            return verify_slot_image(candidate, scratch);
        }();

        if (verdict == Status::kFlashPowerLoss) {
            // The flash died mid-verification: this is not a bad image, the
            // MCU is browning out. Report it so the next reset retries —
            // and do NOT invalidate a slot we could not even read.
            return verdict;
        }
        if (verdict != Status::kOk) {
            // Rollback: drop the bad image and fall through to the next.
            if (slots_->invalidate(candidate.slot_id) == Status::kFlashPowerLoss) {
                return Status::kFlashPowerLoss;
            }
            report.invalidated.push_back(candidate.slot_id);
            continue;
        }

        const bool is_bootable =
            std::find(config_.bootable_slots.begin(), config_.bootable_slots.end(),
                      candidate.slot_id) != config_.bootable_slots.end();
        std::uint32_t boot_slot = candidate.slot_id;

        if (!is_bootable) {
            // Static mode: swap the staged image into the bootable slot so
            // the previous image survives as the rollback target.
            boot_slot = config_.bootable_slots.front();
            std::uint64_t used =
                candidate.header.firmware_offset + candidate.header.manifest.firmware_size;
            if (const auto old = read_candidate(boot_slot)) {
                used = std::max<std::uint64_t>(
                    used, old->header.firmware_offset + old->header.manifest.firmware_size);
            }
            UPKIT_RETURN_IF_ERROR(slots_->swap(candidate.slot_id, boot_slot, used));
            report.installed_from_staging = true;
        }

        // "Jump": transfer of control to the application image.
        charge_cpu(0.001);

        if (config_.trial_boot) {
            if (confirmed_version_ == 0) {
                // First ever boot: the factory image is trusted implicitly
                // (there is nothing to roll back to).
                confirmed_version_ = candidate.header.manifest.version;
                trial_.state = agent::TrialState::kNone;
            } else if (candidate.header.manifest.version != confirmed_version_) {
                trial_ = TrialRecord{
                    .state = agent::TrialState::kArmed,
                    .version = candidate.header.manifest.version,
                    .slot = boot_slot,
                    .deadline_s = clock_->now() + config_.confirm_window_s};
                report.trial_boot = true;
            } else if (trial_.state != agent::TrialState::kRolledBack) {
                trial_.state = agent::TrialState::kNone;
            }
        }

        report.booted_slot = boot_slot;
        report.booted = candidate.header.manifest;
        return report;
    }
    // Distinguish "no valid image anywhere" (a true brick: device stays in
    // ROM) from "the flash lost power while we were scanning": unreadable
    // slots come back after the next reset.
    for (const std::uint32_t id : config_.bootable_slots) {
        const slots::SlotConfig* slot = slots_->slot(id);
        std::uint8_t probe = 0;
        if (slot != nullptr && slot->device->read(slot->offset, MutByteSpan(&probe, 1)) ==
                                   Status::kFlashPowerLoss) {
            return Status::kFlashPowerLoss;
        }
    }
    return Status::kNotFound;  // nothing valid anywhere: device stays in ROM
}

Status Bootloader::confirm_boot() {
    if (trial_.state != agent::TrialState::kArmed) return Status::kFailedPrecondition;
    if (clock_->now() > trial_.deadline_s) {
        // Too late: the watchdog window has already closed. The trial stays
        // armed so the revert still happens at the next boot.
        return Status::kTimeout;
    }
    trial_.state = agent::TrialState::kConfirmed;
    confirmed_version_ = trial_.version;
    return Status::kOk;
}

}  // namespace upkit::boot
