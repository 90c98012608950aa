#include "core/device.hpp"

#include <cassert>

#include "common/endian.hpp"

namespace upkit::core {

namespace {

flash::FlashGeometry internal_geometry(const sim::PlatformProfile& p) {
    return flash::FlashGeometry{.size_bytes = p.internal_flash_bytes,
                                .sector_bytes = static_cast<std::uint32_t>(p.flash_sector_bytes),
                                .page_bytes = static_cast<std::uint32_t>(p.flash_page_bytes)};
}

flash::FlashTimings internal_timings(const sim::PlatformProfile& p) {
    return flash::FlashTimings{.erase_sector_s = p.flash_erase_sector_s,
                               .write_page_s = p.flash_write_page_s,
                               .read_bandwidth_bps = p.flash_read_bandwidth_bps};
}

/// The swap journal lives in the top sectors of the bootloader-reserved
/// region (the bootloader owns it: only boot-time code swaps slots).
std::uint64_t journal_offset(const DeviceConfig& config) {
    const std::uint64_t journal_bytes =
        slots::SwapJournal::kSectorCount * config.platform->flash_sector_bytes;
    assert(config.bootloader_reserved >= journal_bytes + config.platform->flash_sector_bytes &&
           "reserved flash too small for bootloader + swap journal");
    return config.bootloader_reserved - journal_bytes;
}

}  // namespace

Device::Device(const DeviceConfig& config)
    : config_(config),
      meter_(*config.platform),
      internal_(std::make_unique<flash::SimFlash>(internal_geometry(*config.platform),
                                                  internal_timings(*config.platform))),
      swap_journal_(*internal_, journal_offset(config)),
      slot_manager_(swap_journal_) {
    const sim::PlatformProfile& p = *config_.platform;

    internal_->attach(&clock_, &meter_);
    if (config_.layout == SlotLayout::kStaticExternal) {
        assert(p.has_external_flash && "layout requires an external flash part");
        // External SPI NOR: slower erase, clocked over SPI.
        flash::FlashGeometry geo{.size_bytes = p.external_flash_bytes,
                                 .sector_bytes = 4096,
                                 .page_bytes = 256};
        flash::FlashTimings timings{.erase_sector_s = 0.050,
                                    .write_page_s = 0.0008,
                                    .read_bandwidth_bps = 4e6};
        external_ = std::make_unique<flash::SimFlash>(geo, timings);
        external_->attach(&clock_, &meter_);
    }

    switch (config_.backend) {
        case BackendKind::kTinyDtls:
            backend_ = config_.calibrated_costs
                           ? crypto::make_tinydtls_backend(crypto::calibrate_software_costs(
                                 crypto::make_tinydtls_backend()->costs()))
                           : crypto::make_tinydtls_backend();
            break;
        case BackendKind::kTinyCrypt:
            backend_ = config_.calibrated_costs
                           ? crypto::make_tinycrypt_backend(crypto::calibrate_software_costs(
                                 crypto::make_tinycrypt_backend()->costs()))
                           : crypto::make_tinycrypt_backend();
            break;
        case BackendKind::kCryptoAuthLib:
            hsm_ = std::make_shared<crypto::Atecc508>();
            (void)hsm_->provision(0, config_.vendor_key);
            (void)hsm_->provision(1, config_.server_key);
            hsm_->lock();
            backend_ = crypto::make_cryptoauthlib_backend(hsm_);
            break;
    }
    verifier_ = std::make_unique<verify::Verifier>(*backend_, config_.vendor_key,
                                                   config_.server_key);

    if (config_.enable_encryption) {
        Bytes enc_seed;
        put_le64(enc_seed, config_.seed);
        append(enc_seed, to_bytes("device-encryption-key"));
        encryption_key_ =
            std::make_unique<crypto::PrivateKey>(crypto::PrivateKey::generate(enc_seed));
    }

    identity_ = verify::DeviceIdentity{.device_id = config_.device_id,
                                       .app_id = config_.app_id,
                                       .installed_version = 0,
                                       .supports_differential = config_.enable_differential};

    build_slots();
    restart_agent();

    boot::BootConfig boot_config;
    boot_config.identity = identity_;
    if (config_.layout == SlotLayout::kAB) {
        boot_config.bootable_slots = {0, 1};
    } else {
        boot_config.bootable_slots = {0};
        boot_config.staging_slot = 1;
    }
    boot_config.trial_boot = config_.trial_boot;
    bootloader_ = std::make_unique<boot::Bootloader>(boot_config, slot_manager_, *verifier_,
                                                     *config_.platform, clock_, meter_);
}

void Device::build_slots() {
    const sim::PlatformProfile& p = *config_.platform;
    const std::uint64_t sector = p.flash_sector_bytes;

    const std::uint64_t avail = p.internal_flash_bytes - config_.bootloader_reserved;
    std::uint64_t slot_size = (config_.layout == SlotLayout::kStaticExternal)
                                  ? (avail / sector) * sector
                                  : (avail / 2 / sector) * sector;
    if (config_.layout == SlotLayout::kStaticExternal) {
        slot_size = std::min<std::uint64_t>(slot_size, p.external_flash_bytes);
        slot_size = (slot_size / sector) * sector;
    }

    const std::uint64_t base = config_.bootloader_reserved;
    (void)slot_manager_.add_slot({.id = 0,
                                  .type = slots::SlotType::kBootable,
                                  .device = internal_.get(),
                                  .offset = base,
                                  .size = slot_size,
                                  .link_offset = slots::kAnyLinkOffset});
    if (config_.layout == SlotLayout::kStaticExternal) {
        (void)slot_manager_.add_slot({.id = 1,
                                      .type = slots::SlotType::kNonBootable,
                                      .device = external_.get(),
                                      .offset = 0,
                                      .size = slot_size,
                                      .link_offset = slots::kAnyLinkOffset});
    } else {
        (void)slot_manager_.add_slot(
            {.id = 1,
             .type = config_.layout == SlotLayout::kAB ? slots::SlotType::kBootable
                                                       : slots::SlotType::kNonBootable,
             .device = internal_.get(),
             .offset = base + slot_size,
             .size = slot_size,
             .link_offset = slots::kAnyLinkOffset});
    }
}

void Device::restart_agent() {
    agent_.reset();
    agent_boot_ = boot_count_;
    agent_hook_ = health_hook_;
}

agent::UpdateAgent& Device::agent() {
    if (agent_ == nullptr) start_agent();
    return *agent_;
}

void Device::start_agent() {
    agent::AgentConfig agent_config;
    agent_config.identity = identity_;
    agent_config.installed_slot = installed_slot_;
    agent_config.target_slot = target_slot_;
    agent_config.enable_chunked = config_.enable_chunked;
    agent_config.pipeline_buffer = config_.pipeline_buffer != 0
                                       ? config_.pipeline_buffer
                                       : config_.platform->flash_sector_bytes;
    agent_config.encryption_key = encryption_key_.get();
    agent_config.self_test_hook = agent_hook_;

    Bytes seed;
    put_le64(seed, config_.seed);
    put_le64(seed, agent_boot_);
    agent_ = std::make_unique<agent::UpdateAgent>(agent_config, slot_manager_, *verifier_,
                                                  *config_.platform, clock_, meter_, seed);
    agent_->set_tracer(tracer_, trace_offset_);
}

Status Device::provision_factory(const server::UpdateResponse& image) {
    if (image.manifest.differential) return Status::kInvalidArgument;
    const slots::SlotConfig* slot = slot_manager_.slot(0);
    // The header lands as the agent stores one: zero-padded to its size.
    Bytes blob = image.manifest_bytes;
    const std::size_t header = verify::header_size(blob);
    if (blob.size() > header) return Status::kInvalidArgument;
    blob.resize(header, 0x00);
    append(blob, image.payload);
    if (blob.size() > slot->size) return Status::kSlotTooSmall;
    UPKIT_RETURN_IF_ERROR(slot->device->erase_range(slot->offset, slot->size));
    UPKIT_RETURN_IF_ERROR(slot->device->write(slot->offset, blob));

    auto report = reboot();
    if (!report) return report.status();
    return report->booted_slot == 0 ? Status::kOk : Status::kInternal;
}

Expected<boot::BootReport> Device::reboot() {
    ++boot_count_;
    internal_->revive();
    if (external_ != nullptr) external_->revive();

    auto report = bootloader_->boot();
    if (!report) return report.status();

    identity_.installed_version = report->booted.version;
    if (config_.layout == SlotLayout::kAB) {
        installed_slot_ = report->booted_slot;
        target_slot_ = report->booted_slot == 0 ? 1 : 0;
    } else {
        installed_slot_ = 0;
        target_slot_ = 1;
    }
    restart_agent();
    return report;
}

}  // namespace upkit::core
