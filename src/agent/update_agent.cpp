#include "agent/update_agent.hpp"

#include "common/endian.hpp"
#include "diff/cdc.hpp"

namespace upkit::agent {

namespace {

/// CPU cost of running the differential pipeline (LZSS + bspatch) per
/// kilobyte of payload, calibrated for a 64 MHz Cortex-M4 (Stolikj et al.
/// report patching throughput close to flash write speed).
constexpr double kPipelineCpuSecondsPerKb = 0.0012;

/// ChaCha20 decryption cost per kilobyte on the same MCU class.
constexpr double kDecryptCpuSecondsPerKb = 0.0005;

}  // namespace

UpdateAgent::UpdateAgent(const AgentConfig& config, slots::SlotManager& slots,
                         const verify::Verifier& verifier, const sim::PlatformProfile& platform,
                         sim::VirtualClock& clock, sim::EnergyMeter& meter, ByteSpan nonce_seed)
    : config_(config),
      slots_(&slots),
      verifier_(&verifier),
      platform_(&platform),
      clock_(&clock),
      meter_(&meter),
      nonce_drbg_(nonce_seed, to_bytes("upkit-agent-nonce")) {}

void UpdateAgent::charge_cpu(double seconds) {
    sim::charge_cpu(*platform_, *clock_, *meter_, seconds,
                    verifier_->backend().costs().active_current_ma);
}

std::uint32_t UpdateAgent::draw_nonce() {
    std::array<std::uint8_t, 4> nonce_bytes{};
    nonce_drbg_.generate(MutByteSpan(nonce_bytes));
    return load_le32(nonce_bytes);
}

void UpdateAgent::set_state(FsmState next) {
    if (next == state_) return;
    assert(transition_allowed(state_, next) && "illegal FSM transition");
    if (tracer_ != nullptr) {
        tracer_->emit(sim::TraceEvent{
            .t = clock_->now() - trace_offset_,
            .device_id = config_.identity.device_id,
            .type = sim::TraceType::kFsmTransition,
            .from = to_string(state_),
            .to = to_string(next),
            .code = 0,
            .value = 0.0});
    }
    state_ = next;
}

Status UpdateAgent::fail(Status status) {
    // Cleaning state (paper): invalidate the used slot, reset all variables.
    target_handle_.close();
    pipeline_.reset();  // must go before the chunk plan it points into
    chunk_plan_.reset();
    air_chunks_.clear();
    old_firmware_.reset();
    manifest_.reset();
    manifest_buffer_.clear();
    payload_received_ = 0;
    token_.reset();
    (void)slots_->invalidate(config_.target_slot);
    set_state(FsmState::kCleaning);
    return status;
}

Expected<manifest::DeviceToken> UpdateAgent::request_device_token() {
    if (state_ != FsmState::kWaiting && state_ != FsmState::kCleaning) {
        return Status::kFsmBadState;
    }
    manifest::DeviceToken token;
    token.device_id = config_.identity.device_id;
    token.nonce = draw_nonce();
    token.current_version =
        config_.identity.supports_differential ? config_.identity.installed_version : 0;
    prepare_chunk_state(token);
    token_ = token;
    ++stats_.tokens_issued;

    // Start-update state (Fig. 4): the token is issued and the target slot
    // is being prepared — make room in the slot holding the oldest firmware
    // (our configured target). The manifest sector is erased now — so a
    // stale image can never boot half-overwritten — and the rest is erased
    // lazily by SEQUENTIAL_REWRITE as the image streams in, keeping an
    // early-rejected update nearly free of flash wear and erase time.
    set_state(FsmState::kStartUpdate);
    if (const Status s = slots_->invalidate(config_.target_slot); s != Status::kOk) {
        return fail(s);
    }
    auto handle = slots_->open(config_.target_slot, slots::OpenMode::kSequentialRewrite);
    if (!handle) return fail(handle.status());
    target_handle_ = std::move(*handle);

    manifest_buffer_.clear();
    set_state(FsmState::kReceiveManifest);
    return token;
}

Expected<manifest::DeviceToken> UpdateAgent::refresh_token() {
    // Only mid-download: earlier there is nothing worth resuming, later the
    // image is already staged. The slot, pipeline, and manifest survive —
    // only the nonce changes, so the server (which binds responses to the
    // device's current_version, not the nonce) re-serves the same payload
    // and the transfer continues from payload_offset().
    if (state_ != FsmState::kReceiveFirmware || !token_.has_value()) {
        return Status::kFsmBadState;
    }
    token_->nonce = draw_nonce();
    ++stats_.tokens_refreshed;
    return *token_;
}

bool UpdateAgent::run_self_test(std::uint16_t running_version) {
    // Sensor sanity sweep, watchdog kick and app-level health probes before
    // boot confirmation: CPU seconds on a 64 MHz Cortex-M4.
    constexpr double kSelfTestSeconds = 0.25;
    charge_cpu(kSelfTestSeconds);
    ++stats_.self_tests_run;
    if (config_.self_test_hook) return config_.self_test_hook(running_version);
    return true;
}

Status UpdateAgent::offer_manifest(ByteSpan chunk) {
    if (state_ != FsmState::kReceiveManifest) return Status::kFsmBadState;
    // The frame is parsed when it ends (end_manifest); until then it only
    // has to fit the bytes its header occupies in the slot, which the
    // first bytes of either encoding pin down.
    append(manifest_buffer_, chunk);
    const std::size_t size = verify::header_size(manifest_buffer_);
    if (size != 0 && manifest_buffer_.size() > size) {
        ++stats_.manifests_rejected;
        return fail(Status::kSizeExceeded);
    }
    return Status::kOk;
}

Expected<verify::ImageHeader> UpdateAgent::read_installed_header() const {
    const slots::SlotConfig* installed = slots_->slot(config_.installed_slot);
    if (installed == nullptr) return Status::kNotFound;
    return verify::read_image_header(*installed);
}

void UpdateAgent::prepare_chunk_state(manifest::DeviceToken& token) {
    installed_chunks_.clear();
    installed_fw_offset_ = 0;
    installed_fw_size_ = 0;
    if (!config_.enable_chunked) return;
    // No (readable) installed image means nothing to advertise — the token
    // stays legacy and the server serves a whole image.
    auto info = read_installed_header();
    if (!info || info->manifest.firmware_size == 0) return;
    const slots::SlotConfig* installed = slots_->slot(config_.installed_slot);
    Bytes firmware(info->manifest.firmware_size);
    if (installed->device->read(installed->offset + info->firmware_offset,
                                MutByteSpan(firmware)) != Status::kOk) {
        return;
    }
    // One content-defined chunking pass over the installed image — the same
    // cut points the server computed when it ingested this version, so both
    // sides agree on what the device holds. Costed as a SHA-256 sweep (the
    // gear hash is cheap next to the per-chunk digests).
    charge_cpu(verifier_->backend().costs().sha256_seconds_per_kb *
               static_cast<double>(firmware.size()) / 1024.0);
    for (const manifest::ChunkRef& ref : diff::chunk_image(firmware)) {
        installed_chunks_.emplace(manifest::digest_prefix(ref.digest),
                                  InstalledChunk{ref.offset, ref.length});
    }
    if (installed_chunks_.empty() || installed_chunks_.size() > manifest::kMaxHaveEntries) {
        installed_chunks_.clear();
        return;
    }
    installed_fw_offset_ = info->firmware_offset;
    installed_fw_size_ = info->manifest.firmware_size;
    token.have.clear();
    token.have.reserve(installed_chunks_.size());
    for (const auto& entry : installed_chunks_) token.have.push_back(entry.first);
}

Status UpdateAgent::end_manifest() {
    if (state_ != FsmState::kReceiveManifest) return Status::kFsmBadState;
    set_state(FsmState::kVerifyManifest);
    auto header = verify::parse_image_header(manifest_buffer_);
    if (!header) {
        ++stats_.manifests_rejected;
        return fail(header.status());
    }
    // The header lands in the slot zero-padded to the bytes it occupies.
    manifest_buffer_.resize(verify::header_size(manifest_buffer_), 0x00);
    return verify_and_accept(std::move(*header), manifest_buffer_);
}

Status UpdateAgent::verify_and_accept(verify::ImageHeader header, ByteSpan header_bytes) {
    const slots::SlotConfig* target = slots_->slot(config_.target_slot);
    // Both ECDSA verifications (vendor + server), priced as one batched
    // pass when the backend's cost model is calibrated for it.
    const Status verdict = [&] {
        const sim::PhaseTimer timer(*clock_, stats_.verification_seconds);
        charge_cpu(crypto::double_verify_seconds(verifier_->backend().costs()));
        return verifier_->verify_manifest(header, *token_, config_.identity, *target);
    }();
    if (verdict != Status::kOk) {
        ++stats_.manifests_rejected;
        return fail(verdict);
    }
    const manifest::Manifest& m = header.manifest;

    // Confidentiality extension: an encrypted payload needs our key pair.
    if (m.encrypted && config_.encryption_key == nullptr) {
        ++stats_.manifests_rejected;
        return fail(Status::kUnimplemented);
    }

    // Differential updates patch against the installed firmware in place.
    // The installed image may itself be stored in either wire format.
    const RandomReader* old_reader = nullptr;
    if (m.differential) {
        auto base = read_installed_header();
        if (!base) {
            return fail(base.status() == Status::kBadManifest ? Status::kBadOldVersion
                                                              : base.status());
        }
        if (base->manifest.version != m.old_version) {
            return fail(Status::kBadOldVersion);
        }
        old_firmware_.emplace(*slots_, config_.installed_slot, base->firmware_offset,
                              base->manifest.firmware_size);
        old_reader = &*old_firmware_;
    }

    // Chunked transfers: turn the manifest's chunk table plus the installed
    // chunk map (computed when the token was issued) into the install plan.
    chunk_plan_.reset();
    air_chunks_.clear();
    if (m.chunked) {
        // The server only goes chunked for tokens that advertised a
        // have-list, but reject defensively if this agent cannot source
        // local chunks.
        if (!config_.enable_chunked) {
            ++stats_.manifests_rejected;
            return fail(Status::kBadManifest);
        }
        pipeline::ChunkPlan plan;
        plan.entries.reserve(m.chunk_table.size());
        std::uint64_t air = 0;
        bool any_local = false;
        for (const manifest::ChunkRef& ref : m.chunk_table) {
            pipeline::ChunkPlan::Entry e;
            e.ref = ref;
            const auto it = installed_chunks_.find(manifest::digest_prefix(ref.digest));
            if (it != installed_chunks_.end()) {
                e.local = true;
                e.old_offset = it->second.offset;
                any_local = true;
            } else {
                air += ref.length;
            }
            plan.entries.push_back(e);
        }
        // Both sides must agree byte-for-byte on the have/want split; a
        // payload size that does not match our own accounting means the
        // server worked from a different have-list.
        if (air != m.payload_size) {
            ++stats_.manifests_rejected;
            return fail(Status::kBadManifest);
        }
        chunk_plan_ = std::move(plan);
        air_chunks_ = chunk_plan_->air_chunks();
        if (any_local) {
            old_firmware_.emplace(*slots_, config_.installed_slot, installed_fw_offset_,
                                  installed_fw_size_);
            old_reader = &*old_firmware_;
        }
    }

    // Store the header ahead of the firmware, then arm the pipeline.
    const Status ms = target_handle_.write(header_bytes);
    if (ms != Status::kOk) return fail(ms);
    pipeline_ = std::make_unique<pipeline::Pipeline>(
        pipeline::PipelineConfig{.differential = m.differential,
                                 .buffer_size = config_.pipeline_buffer,
                                 .encrypted = m.encrypted,
                                 .device_encryption_key = config_.encryption_key,
                                 .device_id = config_.identity.device_id,
                                 .request_nonce = token_->nonce,
                                 .chunk_plan = chunk_plan_ ? &*chunk_plan_ : nullptr},
        target_handle_, old_reader);

    manifest_ = std::move(header.manifest);
    payload_received_ = 0;
    set_state(FsmState::kReceiveFirmware);
    if (manifest_->chunked && manifest_->payload_size == 0) {
        // Every chunk of the new image is already on the device (e.g. a
        // metadata-only rebuild): nothing travels over the air, so the
        // image is assembled and verified right here.
        set_state(FsmState::kVerifyFirmware);
        return verify_firmware_now();
    }
    return Status::kOk;
}

Status UpdateAgent::offer_payload(ByteSpan chunk) {
    if (state_ != FsmState::kReceiveFirmware) return Status::kFsmBadState;
    if (payload_received_ + chunk.size() > manifest_->payload_size) {
        ++stats_.firmwares_rejected;
        return fail(Status::kSizeExceeded);
    }

    const Status ws = pipeline_->write(chunk);
    if (manifest_->chunked) {
        // Each air chunk is re-hashed on arrival (the per-chunk gate in
        // front of the flash path) — pay the digest time as bytes stream.
        charge_cpu(verifier_->backend().costs().sha256_seconds_per_kb *
                   static_cast<double>(chunk.size()) / 1024.0);
    }
    if (ws == Status::kChunkDigestMismatch) {
        // Recoverable: the stage dropped the bad chunk before anything
        // reached flash and is still positioned on it. Roll the resume
        // offset back to the last committed byte so the driver re-sends
        // just that chunk instead of abandoning the session.
        ++stats_.chunks_rejected;
        stats_.payload_bytes_received += chunk.size();
        payload_received_ = pipeline_->chunk_stage()->committed_air_bytes();
        return ws;
    }
    if (ws != Status::kOk) {
        ++stats_.firmwares_rejected;
        return fail(ws);
    }
    payload_received_ += chunk.size();
    stats_.payload_bytes_received += chunk.size();
    if (manifest_->differential) {
        charge_cpu(kPipelineCpuSecondsPerKb * static_cast<double>(chunk.size()) / 1024.0);
    }
    if (manifest_->encrypted) {
        charge_cpu(kDecryptCpuSecondsPerKb * static_cast<double>(chunk.size()) / 1024.0);
    }

    if (payload_received_ < manifest_->payload_size) return Status::kOk;

    set_state(FsmState::kVerifyFirmware);
    return verify_firmware_now();
}

Status UpdateAgent::verify_firmware_now() {
    const Status fs = pipeline_->finish();
    if (fs != Status::kOk) {
        ++stats_.firmwares_rejected;
        return fail(fs);
    }
    if (pipeline_->firmware_bytes() != manifest_->firmware_size) {
        ++stats_.firmwares_rejected;
        return fail(Status::kTruncatedImage);
    }

    // Digest over the reconstructed firmware (the tee computed it on the
    // fly; the modelled device pays the SHA-256 time here).
    const Status verdict = [&] {
        const sim::PhaseTimer timer(*clock_, stats_.verification_seconds);
        charge_cpu(verifier_->backend().costs().sha256_seconds_per_kb *
                   static_cast<double>(manifest_->firmware_size) / 1024.0);
        return verifier_->verify_firmware_digest(*manifest_, pipeline_->firmware_digest());
    }();
    if (verdict != Status::kOk) {
        ++stats_.firmwares_rejected;
        return fail(verdict);
    }

    if (const pipeline::ChunkStage* cs = pipeline_->chunk_stage()) {
        stats_.chunk_bytes_local += cs->local_bytes();
    }
    target_handle_.close();
    pipeline_.reset();  // before the chunk plan it points into
    chunk_plan_.reset();
    old_firmware_.reset();
    ++stats_.updates_staged;
    set_state(FsmState::kReadyToReboot);
    return Status::kOk;
}

void UpdateAgent::clean() {
    (void)fail(Status::kOk);
    set_state(FsmState::kWaiting);
}

}  // namespace upkit::agent
