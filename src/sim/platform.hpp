// MCU platform profiles for the three boards the paper evaluates on.
//
// Numbers are taken from the public datasheets (nRF52840, CC2650, CC2538):
// memory geometry drives the slot layouts, the current draws drive the
// energy model, and the CPU clock scales the crypto runtimes, which are
// calibrated for a 64 MHz Cortex-M4.
#pragma once

#include <cstdint>
#include <string_view>

namespace upkit::sim {

class EnergyMeter;
class VirtualClock;

struct PlatformProfile {
    std::string_view name;

    // Compute.
    double cpu_mhz;

    // Memory geometry.
    std::size_t internal_flash_bytes;
    std::size_t ram_bytes;
    std::size_t flash_sector_bytes;   // erase unit
    std::size_t flash_page_bytes;     // write unit
    bool has_external_flash;
    std::size_t external_flash_bytes;

    // Flash timing (per datasheet typicals).
    double flash_erase_sector_s;
    double flash_write_page_s;
    double flash_read_bandwidth_bps;

    // Current draws in mA at `voltage` volts.
    double voltage;
    double cpu_active_ma;
    double radio_tx_ma;
    double radio_rx_ma;
    double flash_ma;
    double sleep_ma;

    /// Scales a runtime calibrated for a 64 MHz Cortex-M4 to this platform.
    double cpu_scale() const { return 64.0 / cpu_mhz; }
};

/// Charges `seconds` of CPU work, calibrated for a 64 MHz Cortex-M4, on
/// `platform`: advances `clock` by the scaled time and bills it to `meter`
/// as HSM time when `hsm_ma` > 0 (an attached secure element draws that
/// current while it runs the crypto), else as CPU time.
void charge_cpu(const PlatformProfile& platform, VirtualClock& clock, EnergyMeter& meter,
                double seconds, double hsm_ma);

/// Nordic nRF52840: 1 MB flash / 256 kB RAM, BLE + 802.15.4.
const PlatformProfile& nrf52840();

/// TI CC2650: 128 kB flash / 20 kB RAM; too small for two internal slots —
/// UpKit stores the non-bootable slot on its external SPI flash (Sect. V).
const PlatformProfile& cc2650();

/// TI CC2538: 512 kB flash / 32 kB RAM.
const PlatformProfile& cc2538();

}  // namespace upkit::sim
