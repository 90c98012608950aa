#include "baselines/baselines.hpp"

#include "crypto/crc.hpp"

namespace upkit::baselines {

bool crc_only_verify(ByteSpan image, std::uint32_t expected_crc) {
    return crypto::crc32(image) == expected_crc;
}

namespace {

/// Blind store of manifest+payload into the device's target slot, chunked
/// over the transport — the propagation both baseline agents share.
Status blind_store(core::Device& device, const server::UpdateResponse& image,
                   net::Transport& transport) {
    auto handle =
        device.slots().open(device.target_slot(), slots::OpenMode::kSequentialRewrite);
    if (!handle) return handle.status();
    slots::SlotSink sink(*handle);
    UPKIT_RETURN_IF_ERROR(transport.to_device(image.manifest_bytes, sink));
    return transport.to_device(image.payload, sink);
}

}  // namespace

Status McumgrAgent::upload(const server::UpdateResponse& image, net::Transport& transport) {
    // No token, no verification: whatever arrives is stored.
    return blind_store(*device_, image, transport);
}

Status Lwm2mAgent::download(const server::UpdateResponse& image, net::Transport& transport,
                            bool attacker_in_path) {
    if (attacker_in_path && end_to_end_tls_) {
        // With true end-to-end TLS the splice is detected at the transport
        // layer and the transfer never completes.
        return Status::kTransportError;
    }
    return blind_store(*device_, image, transport);
}

void McubootModel::charge_cpu(double seconds) {
    sim::charge_cpu(*device_->config().platform, device_->clock(), device_->meter(), seconds,
                    device_->verifier().backend().costs().active_current_ma);
}

Status McubootModel::verify_image(std::uint32_t slot_id, const manifest::Manifest& m) {
    const slots::SlotConfig* slot = device_->slots().slot(slot_id);
    if (manifest::kManifestSize + static_cast<std::uint64_t>(m.firmware_size) > slot->size) {
        return Status::kSlotTooSmall;
    }

    const verify::Verifier& verifier = device_->verifier();
    // ONE signature check (mcuboot knows a single image-signing key; there
    // is no per-request server signature in its format).
    charge_cpu(verifier.backend().costs().verify_seconds);
    const crypto::Sha256Digest tbs = crypto::Sha256::digest(m.vendor_signed_bytes());
    if (!verifier.backend().verify(device_->config().vendor_key, tbs, m.vendor_signature)) {
        return Status::kBadVendorSignature;
    }

    // Digest over the stored firmware.
    Bytes scratch;
    const auto actual = verify::digest_slot(*slot, manifest::kManifestSize, m.firmware_size,
                                            scratch);
    if (!actual) return actual.status();
    charge_cpu(verifier.backend().costs().sha256_seconds_per_kb *
               static_cast<double>(m.firmware_size) / 1024.0);
    return verifier.verify_firmware_digest(m, *actual);
}

Expected<boot::BootReport> McubootModel::boot() {
    core::Device& device = *device_;
    charge_cpu(0.25);  // MCU reset

    const auto read_manifest = [&](std::uint32_t slot_id) -> std::optional<manifest::Manifest> {
        const slots::SlotConfig* slot = device.slots().slot(slot_id);
        Bytes raw(manifest::kManifestSize);
        if (slot->device->read(slot->offset, MutByteSpan(raw)) != Status::kOk) {
            return std::nullopt;
        }
        auto parsed = manifest::parse_manifest(raw);
        if (!parsed) return std::nullopt;
        return *parsed;
    };

    boot::BootReport report;
    const std::uint32_t staged_id = device.target_slot();
    const std::uint32_t primary_id = device.installed_slot();

    // mcuboot semantics: a staged image that passes signature+digest is
    // installed NO MATTER ITS VERSION — there is no freshness check.
    if (auto staged = read_manifest(staged_id)) {
        if (verify_image(staged_id, *staged) == Status::kOk) {
            const std::uint64_t used = manifest::kManifestSize + staged->firmware_size;
            UPKIT_RETURN_IF_ERROR(device.slots().swap(staged_id, primary_id, used));
            report.booted_slot = primary_id;
            report.booted = *staged;
            report.installed_from_staging = true;
            return report;
        }
        (void)device.slots().invalidate(staged_id);
        report.invalidated.push_back(staged_id);
    }

    if (auto primary = read_manifest(primary_id)) {
        if (verify_image(primary_id, *primary) == Status::kOk) {
            report.booted_slot = primary_id;
            report.booted = *primary;
            return report;
        }
    }
    return Status::kNotFound;
}

}  // namespace upkit::baselines
