// Behavioural models of the state-of-the-art update stack the paper
// compares against (Sect. II): mcumgr (push distribution, no verification,
// no freshness), LwM2M (pull distribution, freshness only via transport
// security — void when a proxy terminates the connection), and mcuboot
// (verification deferred entirely to boot time). Plus the CRC-only
// verification of Sparrow/Deluge, which the paper calls out as insufficient
// against tampering.
//
// These exist so the experiments can demonstrate the two architectural
// claims: (1) without agent-side verification an invalid image costs a full
// download *and* a reboot; (2) without the double signature a replayed
// outdated image installs successfully.
#pragma once

#include "core/device.hpp"
#include "net/transport.hpp"
#include "server/update_server.hpp"

namespace upkit::baselines {

/// Sparrow/Deluge-style integrity check: CRC-32 over the image. Passes for
/// any attacker who recomputes the CRC — no key involved.
bool crc_only_verify(ByteSpan image, std::uint32_t expected_crc);

/// mcumgr-style update agent: chunks the image into the staging slot over
/// the transport. No token, no manifest verification, no early rejection.
class McumgrAgent {
public:
    explicit McumgrAgent(core::Device& device) : device_(&device) {}

    /// "img upload": stores manifest+payload blindly into the target slot.
    Status upload(const server::UpdateResponse& image, net::Transport& transport);

private:
    core::Device* device_;
};

/// LwM2M-style pull agent: same blind store, but models the transport-layer
/// freshness the standard relies on — `end_to_end_tls` is false whenever a
/// gateway/smartphone terminates the secure channel (the paper's scenario).
class Lwm2mAgent {
public:
    Lwm2mAgent(core::Device& device, bool end_to_end_tls)
        : device_(&device), end_to_end_tls_(end_to_end_tls) {}

    /// With end-to-end TLS the server's version bookkeeping prevents
    /// replays; through a proxy an attacker can splice any captured image.
    Status download(const server::UpdateResponse& image, net::Transport& transport,
                    bool attacker_in_path);

private:
    core::Device* device_;
    bool end_to_end_tls_;
};

/// mcuboot-style bootloader model: verification happens only here, and only
/// the vendor signature + digest are checked — no request binding, no
/// version-freshness (the default configuration the paper compares with).
class McubootModel {
public:
    explicit McubootModel(core::Device& device) : device_(&device) {}

    /// Boots: if the staging/target slot holds a valid image, installs it
    /// (swap) regardless of its version; otherwise boots the current one.
    Expected<boot::BootReport> boot();

private:
    Status verify_image(std::uint32_t slot_id, const manifest::Manifest& m);
    /// Advances the device clock by `seconds` of 64 MHz Cortex-M4 work
    /// scaled to its platform, billed like the UpKit bootloader's.
    void charge_cpu(double seconds);

    core::Device* device_;
};

}  // namespace upkit::baselines
