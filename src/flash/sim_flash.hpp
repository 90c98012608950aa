// In-memory flash simulation with datasheet-true semantics.
//
// Beyond the bit-level program/erase rules, SimFlash models what the
// evaluation needs: per-operation latency and energy (charged to a virtual
// clock / energy meter), per-sector wear counters, and power-loss fault
// injection — a scheduled cut that leaves a partially-programmed page
// behind, exercising the recovery paths of agent and bootloader.
//
// Storage is sparse: a sector that holds only the erased value owns no
// bytes, so a device costs the sectors it wrote, not its geometry. A sector
// may also point at an immutable copy shared with other devices holding the
// same bytes there (a fleet's factory image); the device copies it into its
// own storage before its first program or erase of that sector, so every
// fault acts on private bytes.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "flash/flash_device.hpp"
#include "sim/clock.hpp"
#include "sim/energy.hpp"

namespace upkit::flash {

struct FlashTimings {
    double erase_sector_s = 0.085;
    double write_page_s = 0.0053;
    double read_bandwidth_bps = 16e6;
};

class SimFlash final : public FlashDevice {
public:
    SimFlash(const FlashGeometry& geometry, const FlashTimings& timings);

    /// Attaches the device to the simulation; subsequent operations advance
    /// the clock and charge the meter. Both may be null (pure functional use).
    void attach(sim::VirtualClock* clock, sim::EnergyMeter* meter) {
        clock_ = clock;
        meter_ = meter;
    }

    const FlashGeometry& geometry() const override { return geometry_; }
    Status read(std::uint64_t offset, MutByteSpan out) override;
    Status write(std::uint64_t offset, ByteSpan data) override;
    Status erase_sector(std::uint64_t sector_index) override;

    // --- fault injection -------------------------------------------------

    /// Cuts power after `ops` further write/erase operations: that operation
    /// completes only partially and every following access fails with
    /// kFlashPowerLoss until revive() is called (the "reboot"). One-shot:
    /// revive() cancels it even if it never fired.
    void schedule_power_loss(std::uint64_t ops) { power_loss_in_ = ops; }

    /// Arms a multi-cut plan that, unlike schedule_power_loss(), survives
    /// revive(): plan[0] cuts power after that many further destructive ops
    /// counted from now — across any intervening reboots, so a sweep can
    /// reach the boot-time install — and each later entry is re-armed by the
    /// revive() following its predecessor's cut, placing a second cut inside
    /// the crash *recovery* itself. disarm_power_loss() cancels what's left.
    void schedule_power_loss_range(std::vector<std::uint64_t> plan);

    /// Cancels every scheduled cut (one-shot and plan alike).
    void disarm_power_loss();

    void revive();
    bool dead() const { return dead_; }

    /// Cuts that actually fired over the device's lifetime.
    std::uint64_t power_cuts() const { return power_cuts_; }

    // --- telemetry -------------------------------------------------------

    std::uint64_t erase_count(std::uint64_t sector_index) const;
    std::uint64_t total_erases() const { return total_erases_; }
    std::uint64_t total_writes() const { return total_writes_; }
    std::uint64_t bytes_written() const { return bytes_written_; }

    /// Sector storage this device owns privately, in bytes: erased sectors
    /// and sectors shared with other devices cost it nothing.
    std::uint64_t resident_bytes() const;

    // --- sharing ---------------------------------------------------------

    /// Points every sector whose bytes equal `other`'s (same geometry) at one
    /// immutable copy shared by both, freeing this device's private bytes
    /// there; `other`'s private sector becomes that shared copy the first
    /// time it matches. Contents read back unchanged. Not thread-safe
    /// against either device, since it moves `other`'s sectors: call it
    /// before the devices run, and serialize calls that share one `other`
    /// (FleetCampaign::add_synthetic's workers share with the campaign's
    /// source device under one mutex). Once shared, a copy is immutable, so
    /// devices on different threads may read it at once.
    void share_sectors_with(SimFlash& other);

private:
    struct Sector {
        std::unique_ptr<std::uint8_t[]> own;          // this device's bytes
        std::shared_ptr<const std::uint8_t[]> shared;  // or a shared copy
    };

    bool consume_op_budget();  // false => power was cut by this operation
    void charge(double seconds);
    /// The sector's bytes, or nullptr while it is erased.
    const std::uint8_t* sector_data(std::uint64_t index) const;
    /// The sector's private bytes, copying a shared sector or filling an
    /// erased one first.
    std::uint8_t* own_sector(std::uint64_t index);

    FlashGeometry geometry_;
    FlashTimings timings_;
    std::vector<Sector> sectors_;
    std::vector<std::uint64_t> wear_;

    sim::VirtualClock* clock_ = nullptr;
    sim::EnergyMeter* meter_ = nullptr;

    std::optional<std::uint64_t> power_loss_in_;
    std::vector<std::uint64_t> plan_;
    std::size_t plan_next_ = 0;
    std::optional<std::uint64_t> plan_countdown_;
    bool dead_ = false;
    std::uint64_t power_cuts_ = 0;
    Rng fault_rng_{0xFA017};  // garbage left behind by torn writes/erases

    std::uint64_t total_erases_ = 0;
    std::uint64_t total_writes_ = 0;
    std::uint64_t bytes_written_ = 0;
};

}  // namespace upkit::flash
