// Simulated transport between the update source and the device.
//
// Moves bytes in MTU-sized chunks, advancing the device's virtual clock and
// charging its radio energy; lossy links retransmit (each attempt costs
// airtime). The transport does not interpret the data — proxies in between
// (smartphone, border router) forward without modifying, exactly the
// passive role the paper assigns them.
#pragma once

#include "common/rng.hpp"
#include "common/sink.hpp"
#include "net/link.hpp"
#include "sim/chaos.hpp"
#include "sim/clock.hpp"
#include "sim/energy.hpp"

namespace upkit::net {

/// An attempt's one view of a seeded chaos plan. The plan speaks campaign
/// time while the transport advances the device's own clock;
/// `campaign_offset` is the device's DeviceClockView offset (campaign_t =
/// device_t - offset). Every transfer streams through its serving target,
/// so an outage window of that target blocks it entirely, and the session
/// driver asks the transport (target_down, chaos_plan) rather than holding
/// a plan of its own.
struct ChaosBinding {
    const sim::ChaosPlan* plan = nullptr;
    double campaign_offset = 0.0;
    /// Regional edge serving this device's payload, or -1 when the vendor
    /// origin serves it directly: the fault domain sim::ChaosPlan::down
    /// reads.
    int region = -1;
};

class Transport {
public:
    Transport(const LinkParams& link, sim::VirtualClock& clock, sim::EnergyMeter* meter,
              std::uint64_t loss_seed = 1)
        : link_(link), clock_(&clock), meter_(meter), rng_(loss_seed) {}

    const LinkParams& link() const { return link_; }

    /// Transfers `data` to the device, delivering each received chunk to
    /// `sink` (the agent). The device's radio listens for the duration.
    Status to_device(ByteSpan data, ByteSink& sink);

    /// Transfers `data` from the device (token, CoAP requests, ACKs).
    Status from_device(ByteSpan data);

    // --- chunk-level stepping (the discrete-event engine's entry points) ---
    //
    // One call moves exactly one MTU-sized chunk and advances the clock by
    // that chunk's airtime (including retransmissions), so a session driver
    // can yield to the event scheduler between chunks. `offset` is the
    // caller's cursor into `data`; it advances only when the chunk gets
    // through. On kTimeout (retransmission budget exhausted) the airtime
    // was still spent and charged.

    /// Downlink step: on success the chunk is delivered to `sink`.
    Status chunk_to_device(ByteSpan data, std::size_t& offset, ByteSink& sink);

    /// Uplink step (token, CoAP requests, ACKs).
    Status chunk_from_device(ByteSpan data, std::size_t& offset);

    std::uint64_t bytes_to_device() const { return bytes_down_; }
    std::uint64_t bytes_from_device() const { return bytes_up_; }
    std::uint64_t chunks_retransmitted() const { return retransmissions_; }

    /// Caps retransmissions per chunk before the transfer aborts.
    void set_max_retries(unsigned retries) { max_retries_ = retries; }

    /// Overlays a chaos plan on every subsequent chunk. Without a binding
    /// the same transfer loop runs under neutral conditions: no extra loss,
    /// and one rng draw per attempt iff the link is lossy.
    void set_chaos(const ChaosBinding& binding) { chaos_ = binding; }

    /// The bound plan, or null.
    const sim::ChaosPlan* chaos_plan() const { return chaos_.plan; }

    /// Whether the bound plan has the serving target down at the device's
    /// current instant (false without a plan).
    bool target_down() const {
        return chaos_.plan != nullptr &&
               chaos_.plan->down(chaos_.region, clock_->now() - chaos_.campaign_offset);
    }

private:
    /// Moves one chunk of `payload_bytes`, retransmitting lost attempts:
    /// advances the clock by every attempt's airtime and bills it to
    /// `radio`. kTimeout once the retransmission budget is exhausted.
    Status send_chunk(std::size_t payload_bytes, sim::Component radio);

    LinkParams link_;
    sim::VirtualClock* clock_;
    sim::EnergyMeter* meter_;
    Rng rng_;
    unsigned max_retries_ = 16;
    ChaosBinding chaos_;

    std::uint64_t bytes_down_ = 0;
    std::uint64_t bytes_up_ = 0;
    std::uint64_t retransmissions_ = 0;
};

}  // namespace upkit::net
