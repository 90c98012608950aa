#include "sim/platform.hpp"

#include "sim/clock.hpp"
#include "sim/energy.hpp"

namespace upkit::sim {

void charge_cpu(const PlatformProfile& platform, VirtualClock& clock, EnergyMeter& meter,
                double seconds, double hsm_ma) {
    const double scaled = seconds * platform.cpu_scale();
    clock.advance(scaled);
    if (hsm_ma > 0) {
        meter.charge(Component::kHsm, scaled, hsm_ma);
    } else {
        meter.charge(Component::kCpu, scaled);
    }
}

const PlatformProfile& nrf52840() {
    static constexpr PlatformProfile profile{
        .name = "nrf52840",
        .cpu_mhz = 64.0,
        .internal_flash_bytes = 1024 * 1024,
        .ram_bytes = 256 * 1024,
        .flash_sector_bytes = 4096,
        .flash_page_bytes = 512,
        .has_external_flash = false,
        .external_flash_bytes = 0,
        .flash_erase_sector_s = 0.085,   // nRF52840: page erase 85 ms max
        .flash_write_page_s = 0.0053,    // ~41 us per 32-bit word
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

const PlatformProfile& cc2650() {
    static constexpr PlatformProfile profile{
        .name = "cc2650",
        .cpu_mhz = 48.0,
        .internal_flash_bytes = 128 * 1024,
        .ram_bytes = 20 * 1024,
        .flash_sector_bytes = 4096,
        .flash_page_bytes = 256,
        .has_external_flash = true,
        .external_flash_bytes = 1024 * 1024,  // on-board SPI flash (SensorTag/LaunchPad)
        .flash_erase_sector_s = 0.008,
        .flash_write_page_s = 0.0008,
        .flash_read_bandwidth_bps = 8e6,
        .voltage = 3.0,
        .cpu_active_ma = 2.9,
        .radio_tx_ma = 9.1,
        .radio_rx_ma = 5.9,
        .flash_ma = 8.0,
        .sleep_ma = 0.001,
    };
    return profile;
}

const PlatformProfile& cc2538() {
    static constexpr PlatformProfile profile{
        .name = "cc2538",
        .cpu_mhz = 32.0,
        .internal_flash_bytes = 512 * 1024,
        .ram_bytes = 32 * 1024,
        .flash_sector_bytes = 2048,
        .flash_page_bytes = 256,
        .has_external_flash = false,
        .external_flash_bytes = 0,
        .flash_erase_sector_s = 0.020,
        .flash_write_page_s = 0.0020,
        .flash_read_bandwidth_bps = 8e6,
        .voltage = 3.0,
        .cpu_active_ma = 13.0,
        .radio_tx_ma = 24.0,
        .radio_rx_ma = 20.0,
        .flash_ma = 10.0,
        .sleep_ma = 0.0004,
    };
    return profile;
}

}  // namespace upkit::sim
