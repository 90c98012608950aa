// Link parameter sets for the two distribution paths the paper evaluates.
//
// UpKit itself is agnostic to the network configuration; what the time and
// energy results depend on is chunking, goodput, per-chunk protocol
// overhead, and loss. The BLE profile models a GATT-based push (smartphone
// proxy, 244-byte ATT payloads, connection-interval-bound turnaround); the
// CoAP profile models a blockwise pull over 802.15.4/6LoWPAN through a
// border router. Both are calibrated to the effective application goodputs
// behind the paper's Fig. 8a (~2.1 kB/s push, ~2.4 kB/s pull).
#pragma once

#include <cstdint>
#include <string_view>

namespace upkit::net {

struct LinkParams {
    std::string_view name;
    std::size_t mtu = 244;             // application payload per chunk
    double raw_bps = 1e6;              // on-air bit rate
    double per_chunk_overhead_s = 0.0; // protocol turnaround per chunk
    double loss_probability = 0.0;     // independent chunk-loss probability

    double chunk_seconds(std::size_t payload_bytes) const {
        return static_cast<double>(payload_bytes) * 8.0 / raw_bps + per_chunk_overhead_s;
    }

    /// Effective goodput for full-MTU chunks, bytes/second.
    double goodput_Bps() const {
        return static_cast<double>(mtu) / chunk_seconds(mtu);
    }
};

/// BLE GATT push path (nRF52840 + smartphone): 244 B notifications paced by
/// the connection interval and ATT round trips.
inline LinkParams ble_gatt() {
    return LinkParams{.name = "ble-gatt",
                      .mtu = 244,
                      .raw_bps = 1e6,
                      .per_chunk_overhead_s = 0.110,
                      .loss_probability = 0.0};
}

/// CoAP blockwise pull over IEEE 802.15.4 / 6LoWPAN via a border router.
inline LinkParams coap_6lowpan() {
    return LinkParams{.name = "coap-6lowpan",
                      .mtu = 64,
                      .raw_bps = 250e3,
                      .per_chunk_overhead_s = 0.0235,
                      .loss_probability = 0.0};
}

}  // namespace upkit::net
