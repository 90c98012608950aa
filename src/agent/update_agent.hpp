// The update agent (paper Sect. IV) — the firmware-resident half of UpKit
// that talks to the outside world.
//
// An FSM coordinates the update independently of whether chunks arrive over
// a push (BLE) or pull (CoAP) connection: callers simply feed bytes. The
// agent issues device tokens (with a DRBG-fresh nonce), verifies the
// manifest *before* accepting any firmware (UpKit's early rejection: an
// invalid or stale update costs one manifest, not a full download and a
// reboot), streams the payload through the pipeline into the target slot,
// and verifies the reconstructed firmware's digest at the end.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "agent/fsm.hpp"
#include "crypto/hmac_drbg.hpp"
#include "manifest/manifest.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/clock.hpp"
#include "sim/energy.hpp"
#include "sim/platform.hpp"
#include "sim/trace.hpp"
#include "verify/verifier.hpp"

namespace upkit::agent {

struct AgentConfig {
    /// Device facts, including whether differential support (which costs
    /// agent flash/RAM) is built in.
    verify::DeviceIdentity identity;

    /// Slot the new image is stored into.
    std::uint32_t target_slot = 1;
    /// Slot holding the currently-running image (differential base).
    std::uint32_t installed_slot = 0;

    /// Content-addressed chunk support: when set, device tokens advertise
    /// the digest prefixes of chunks present in the installed image (the
    /// have-list) and the agent accepts chunked manifests, pulling only the
    /// missing chunks over the air.
    bool enable_chunked = false;

    /// Pipeline buffer size; match the flash sector size.
    std::size_t pipeline_buffer = 4096;

    /// Long-term encryption key for the confidentiality extension; null
    /// means encrypted payloads are rejected at the manifest.
    const crypto::PrivateKey* encryption_key = nullptr;

    /// External health verdict for the running version; unset means the
    /// self-test passes. Fleet campaigns wire this to the chaos plan's
    /// per-device brick/bad-version verdicts.
    std::function<bool(std::uint16_t version)> self_test_hook;
};

/// Counters the evaluation reads out.
struct AgentStats {
    std::uint64_t tokens_issued = 0;
    std::uint64_t tokens_refreshed = 0;     // mid-transfer re-issues (outage resume)
    std::uint64_t self_tests_run = 0;       // post-install health checks
    std::uint64_t manifests_rejected = 0;   // early rejections, no download
    std::uint64_t firmwares_rejected = 0;   // digest failures after download
    std::uint64_t updates_staged = 0;       // stored + verified, pre-reboot
    std::uint64_t payload_bytes_received = 0;
    std::uint64_t chunks_rejected = 0;      // per-chunk digest failures (re-requested)
    std::uint64_t chunk_bytes_local = 0;    // image bytes sourced from the installed slot
    /// Virtual-clock seconds spent in the agent's verification steps
    /// (manifest signatures + firmware digest) — the phase accounting of
    /// the paper's Fig. 8a reads this.
    double verification_seconds = 0.0;
};

class UpdateAgent {
public:
    UpdateAgent(const AgentConfig& config, slots::SlotManager& slots,
                const verify::Verifier& verifier, const sim::PlatformProfile& platform,
                sim::VirtualClock& clock, sim::EnergyMeter& meter, ByteSpan nonce_seed);

    // ---- propagation-phase entry points (push and pull both use these) ----

    /// Paper step 4/5: issues a device token with a fresh nonce and arms the
    /// FSM. Valid in kWaiting or kCleaning (a new request supersedes).
    Expected<manifest::DeviceToken> request_device_token();

    /// Re-issues the in-flight token with a fresh nonce, leaving the
    /// partially-written target slot and pipeline untouched. Used when the
    /// update server becomes reachable again mid-transfer: the old nonce is
    /// spent server-side, but the download can resume from payload_offset()
    /// instead of restarting — request_device_token() would invalidate the
    /// slot. Valid only in kReceiveFirmware with a token outstanding.
    Expected<manifest::DeviceToken> refresh_token();

    /// Runs the post-install self-test against the currently-running
    /// version (boot-confirm protocol): charges its CPU time and returns the
    /// health verdict (self_test_hook, default healthy).
    bool run_self_test(std::uint16_t running_version);

    /// Paper step 8: feeds manifest bytes. On the 200th byte the agent
    /// verifies the manifest (step 9); on success it erases/opens the target
    /// slot and stands up the pipeline. A non-kOk result means the update
    /// was rejected early — nothing was downloaded, no reboot needed.
    Status offer_manifest(ByteSpan chunk);

    /// SUIT interop: accepts a complete SUIT/CBOR envelope instead of the
    /// native manifest and verifies it on the same path (the same field
    /// checks, then the double signature over the envelope's TBS bytes).
    /// The envelope is stored in a fixed header region ahead of the
    /// firmware, so the slot-fit check counts that region, and the
    /// bootloader re-verifies the envelope after reboot.
    Status offer_suit_manifest(ByteSpan envelope_bytes);

    /// Paper step 12: feeds payload bytes through the pipeline. After the
    /// last expected byte the firmware digest is verified (step 13).
    Status offer_payload(ByteSpan chunk);

    /// True once an update is fully stored and verified (step 14): the
    /// device may reboot to install it.
    bool update_ready() const { return state_ == FsmState::kReadyToReboot; }

    FsmState state() const { return state_; }
    const AgentStats& stats() const { return stats_; }

    /// Payload bytes accepted for the in-flight update — the resume offset
    /// a proxy should continue from after a connection drop (mcumgr-style
    /// `off` semantics; valid in kReceiveFirmware).
    std::uint64_t payload_offset() const { return payload_received_; }
    const std::optional<manifest::Manifest>& pending_manifest() const { return manifest_; }
    const AgentConfig& config() const { return config_; }

    /// True when the accepted manifest is chunked (have/want transfer).
    bool chunked_transfer() const { return chunk_plan_.has_value(); }

    /// Wire layout of the air chunks for the in-flight chunked update —
    /// what the session driver streams (and the chaos plan targets). Empty
    /// for legacy transfers; valid after the manifest is accepted.
    const std::vector<pipeline::AirChunk>& air_chunks() const { return air_chunks_; }

    /// Abandons any in-flight update and invalidates the target slot.
    void clean();

    /// Attaches a trace sink; every FSM transition is emitted with a
    /// timestamp of (device clock − campaign_offset), i.e. on the campaign
    /// timeline when the fleet engine supplies the device's clock offset.
    void set_tracer(sim::Tracer* tracer, double campaign_offset = 0.0) {
        tracer_ = tracer;
        trace_offset_ = campaign_offset;
    }

private:
    Status fail(Status status);
    /// Every state change goes through here: the transition is checked
    /// against the Fig. 4 table (fsm.hpp) and emitted to the tracer.
    void set_state(FsmState next);
    Status verify_firmware_now();
    /// Common tail of both manifest paths: verification (step 9),
    /// capability checks, differential base lookup, header write (native
    /// manifest or padded SUIT envelope), pipeline arming. `header_bytes`
    /// is what lands at the slot's start; the firmware follows it.
    Status verify_and_accept(verify::ImageHeader header, ByteSpan header_bytes);
    void charge_cpu(double seconds);
    /// Next token nonce: four DRBG bytes, little-endian.
    std::uint32_t draw_nonce();

    /// Header of the image in the installed slot (either wire encoding) —
    /// the differential base and the chunk have-list both start here.
    Expected<verify::ImageHeader> read_installed_header() const;

    /// Chunks the installed image and fills the token's have-list; keeps
    /// the prefix → (offset, length) map so the install plan built at
    /// manifest-accept time matches what the server was told.
    void prepare_chunk_state(manifest::DeviceToken& token);

    AgentConfig config_;
    slots::SlotManager* slots_;
    const verify::Verifier* verifier_;
    const sim::PlatformProfile* platform_;
    sim::VirtualClock* clock_;
    sim::EnergyMeter* meter_;
    crypto::HmacDrbg nonce_drbg_;
    sim::Tracer* tracer_ = nullptr;
    double trace_offset_ = 0.0;

    FsmState state_ = FsmState::kWaiting;
    AgentStats stats_;

    std::optional<manifest::DeviceToken> token_;
    Bytes manifest_buffer_;
    std::optional<manifest::Manifest> manifest_;

    slots::SlotHandle target_handle_;
    std::optional<slots::SlotReader> old_firmware_;
    std::unique_ptr<pipeline::Pipeline> pipeline_;
    std::uint64_t payload_received_ = 0;

    // Chunked-transfer state. The installed-chunk map is rebuilt whenever a
    // token is issued (the have-list is derived from its keys); the plan is
    // built when a chunked manifest is accepted and owns the entries the
    // pipeline's ChunkStage reads.
    struct InstalledChunk {
        std::uint64_t offset = 0;
        std::uint32_t length = 0;
    };
    std::map<std::uint64_t, InstalledChunk> installed_chunks_;
    std::uint64_t installed_fw_offset_ = 0;
    std::uint32_t installed_fw_size_ = 0;
    std::optional<pipeline::ChunkPlan> chunk_plan_;
    std::vector<pipeline::AirChunk> air_chunks_;
};

}  // namespace upkit::agent
