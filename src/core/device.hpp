// Simulated IoT device running UpKit — the harness every experiment uses.
//
// Owns the platform's flash devices, the slot layout (Fig. 6 configurations
// A and B), the crypto backend (software or HSM), the verifier shared by
// agent and bootloader, a virtual clock, and an energy meter. reboot()
// plays the role of the MCU reset: it revives flash after an injected power
// loss, runs the bootloader, and brings up a fresh update agent configured
// for the slot the device now runs from.
#pragma once

#include <memory>

#include "agent/update_agent.hpp"
#include "boot/bootloader.hpp"
#include "crypto/hsm.hpp"
#include "flash/sim_flash.hpp"
#include "server/update_server.hpp"
#include "sim/platform.hpp"
#include "slots/slot.hpp"
#include "verify/verifier.hpp"

namespace upkit::core {

enum class SlotLayout {
    kAB,              // two bootable internal slots (Fig. 6, configuration A)
    kStaticInternal,  // bootable + non-bootable staging, both internal
    kStaticExternal,  // bootable internal + staging on external flash (CC2650)
};

enum class BackendKind { kTinyDtls, kTinyCrypt, kCryptoAuthLib };

struct DeviceConfig {
    const sim::PlatformProfile* platform = &sim::nrf52840();
    SlotLayout layout = SlotLayout::kAB;
    BackendKind backend = BackendKind::kTinyCrypt;

    std::uint32_t device_id = 0x1001;
    std::uint32_t app_id = 0xA0;
    bool enable_differential = true;

    /// Content-addressed chunk transfer: the agent advertises the chunks of
    /// its installed image in each device token and the server streams only
    /// the missing ones. Off by default — legacy campaigns are byte-for-byte
    /// unaffected.
    bool enable_chunked = false;

    /// Confidentiality extension: the device carries a long-term P-256
    /// encryption key pair (register its public half with the update
    /// server) and accepts ChaCha20-encrypted payloads.
    bool enable_encryption = false;

    /// When true, the software backends' paper-anchored cost profile is
    /// rescaled by crypto::calibrate_software_costs() — committed speedups
    /// of this repo's own verification kernels (wNAF + precomputed-key
    /// ECDSA, batched verify2, unrolled SHA-256) — so campaigns and energy
    /// accounting reflect the optimized hot path. Either way the costs are
    /// fixed constants, identical on every host. Ignored for the HSM
    /// backend (its verify runs in fixed-function hardware).
    bool calibrated_costs = false;

    /// Pipeline buffer bytes; 0 = the platform's flash sector size.
    std::size_t pipeline_buffer = 0;
    /// Slot capacity; 0 = auto-size from the platform's flash geometry.
    std::uint64_t slot_size = 0;
    /// Flash reserved for the (never-updated) bootloader itself.
    std::uint64_t bootloader_reserved = 32 * 1024;

    /// Trust anchors, as the handles their servers prepared (copying a
    /// config copies the handles, not the tables). The default is the
    /// invalid handle: an unset key fails every verification closed.
    crypto::PreparedPublicKey vendor_key;
    crypto::PreparedPublicKey server_key;

    std::uint64_t seed = 1;  // nonce DRBG seeding (deterministic replay)

    /// Boot-confirm protocol: arm a trial on every boot of an unconfirmed
    /// version; the agent's self-test must confirm within
    /// boot::kConfirmWindowSeconds or the bootloader reverts at the next
    /// boot (see boot::BootConfig).
    bool trial_boot = false;
};

class Device {
public:
    explicit Device(const DeviceConfig& config);

    /// Factory provisioning: writes a doubly-signed image straight into the
    /// primary bootable slot (no timing) and boots it.
    Status provision_factory(const server::UpdateResponse& image);

    /// Reboots: revives flash (power-loss recovery), runs the bootloader,
    /// restarts the agent against the newly-active slot.
    Expected<boot::BootReport> reboot();

    /// The update agent of the running boot. It is built on first use from
    /// what that boot left (slots, identity, boot count, health hook), so a
    /// device that runs no session holds none, and the agent is allocated
    /// by the thread that first steps the device, not by whichever thread
    /// provisioned it.
    agent::UpdateAgent& agent();
    boot::Bootloader& bootloader() { return *bootloader_; }
    slots::SlotManager& slots() { return slot_manager_; }
    flash::SimFlash& internal_flash() { return *internal_; }
    flash::SimFlash* external_flash() { return external_.get(); }
    sim::VirtualClock& clock() { return clock_; }
    sim::EnergyMeter& meter() { return meter_; }
    const verify::Verifier& verifier() const { return *verifier_; }
    const verify::DeviceIdentity& identity() const { return identity_; }
    const DeviceConfig& config() const { return config_; }

    /// Slot currently executing / slot updates are staged into.
    std::uint32_t installed_slot() const { return installed_slot_; }
    std::uint32_t target_slot() const { return target_slot_; }

    /// The HSM, when the CryptoAuthLib backend is configured.
    crypto::Atecc508* hsm() { return hsm_.get(); }

    /// Public half of the device's encryption key (enable_encryption only).
    crypto::PublicKey encryption_public_key() const {
        return encryption_key_ ? encryption_key_->public_key() : crypto::PublicKey{};
    }

    /// Attaches a trace sink (FSM transitions and session events for this
    /// device). `campaign_offset` maps the device clock onto the campaign
    /// timeline (device time − offset = campaign time); the binding
    /// survives reboots (each boot's agent picks it up when it is built).
    void set_tracer(sim::Tracer* tracer, double campaign_offset = 0.0) {
        tracer_ = tracer;
        trace_offset_ = campaign_offset;
        if (agent_ != nullptr) agent_->set_tracer(tracer, campaign_offset);
    }
    sim::Tracer* tracer() const { return tracer_; }
    double trace_offset() const { return trace_offset_; }

    /// External health verdict for the post-install self-test (fleet
    /// campaigns wire this to the chaos plan). Takes effect from the next
    /// reboot — exactly when the self-test can first run. Survives reboots
    /// like the tracer binding.
    void set_health_hook(std::function<bool(std::uint16_t)> hook) {
        health_hook_ = std::move(hook);
    }

private:
    void build_slots();
    /// Drops the running agent and records the boot its successor starts
    /// from; agent() builds that successor on first use.
    void restart_agent();
    void start_agent();

    DeviceConfig config_;
    sim::VirtualClock clock_;
    sim::EnergyMeter meter_;

    std::unique_ptr<flash::SimFlash> internal_;
    std::unique_ptr<flash::SimFlash> external_;
    slots::SwapJournal swap_journal_;
    slots::SlotManager slot_manager_;

    std::shared_ptr<crypto::Atecc508> hsm_;
    std::unique_ptr<crypto::CryptoBackend> backend_;
    std::unique_ptr<verify::Verifier> verifier_;
    std::unique_ptr<crypto::PrivateKey> encryption_key_;

    verify::DeviceIdentity identity_;
    std::uint32_t installed_slot_ = 0;
    std::uint32_t target_slot_ = 1;
    std::uint64_t boot_count_ = 0;

    std::unique_ptr<agent::UpdateAgent> agent_;  // null until agent() after each boot
    std::uint64_t agent_boot_ = 0;                  // boot_count_ the agent starts from
    std::function<bool(std::uint16_t)> agent_hook_;  // health_hook_ at that boot
    std::unique_ptr<boot::Bootloader> bootloader_;

    sim::Tracer* tracer_ = nullptr;
    double trace_offset_ = 0.0;
    std::function<bool(std::uint16_t)> health_hook_;
};

}  // namespace upkit::core
