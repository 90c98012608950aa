// upkit-device — a file-backed virtual device (the paper's own trick:
// "assigning a Linux file to each slot ... to test the modules without the
// need of a simulator"). Two slots and, above them, the swap journal's three
// sectors live inside one flash image file; update images produced by
// upkit-sign can be staged, verified, booted (the static install swaps
// through the journal, as on a device), and rolled back entirely from the
// command line.
//
//   upkit-device --flash dev.bin provision image.bin     install into slot 0
//   upkit-device --flash dev.bin stage image.bin         stage into slot 1
//   upkit-device --flash dev.bin boot --vendor-pub v.pub --server-pub s.pub
//                [--app-id A]                            run the bootloader
//   upkit-device --flash dev.bin status                  inspect both slots
//   upkit-device --bench-verify N [--backend B]          verify/digest probe
#include <chrono>

#include "boot/bootloader.hpp"
#include "flash/file_flash.hpp"
#include "sim/platform.hpp"
#include "slots/slot.hpp"
#include "tools/tool_util.hpp"

using namespace upkit;
using namespace upkit::tools;

namespace {

constexpr std::uint64_t kSlotSize = 128 * 1024;
constexpr std::uint32_t kSectorBytes = 4096;
/// The journal sits above both slots, so an image file written before it
/// existed (two slots only) opens with an erased, idle journal.
constexpr std::uint64_t kJournalOffset = 2 * kSlotSize;

flash::FlashGeometry geometry() {
    return flash::FlashGeometry{
        .size_bytes = kJournalOffset + slots::SwapJournal::kSectorCount * kSectorBytes,
        .sector_bytes = kSectorBytes,
        .page_bytes = 256};
}

void add_slots(slots::SlotManager& manager, flash::FileFlash& device) {
    (void)manager.add_slot({.id = 0,
                            .type = slots::SlotType::kBootable,
                            .device = &device,
                            .offset = 0,
                            .size = kSlotSize,
                            .link_offset = slots::kAnyLinkOffset});
    (void)manager.add_slot({.id = 1,
                            .type = slots::SlotType::kNonBootable,
                            .device = &device,
                            .offset = kSlotSize,
                            .size = kSlotSize,
                            .link_offset = slots::kAnyLinkOffset});
}

int write_image(slots::SlotManager& manager, std::uint32_t slot_id, const Bytes& image) {
    auto m = manifest::parse_manifest(image);
    if (!m) die("not a valid update image");
    if (image.size() > kSlotSize) die("image larger than the slot");
    auto handle = manager.open(slot_id, slots::OpenMode::kWriteAll);
    if (!handle || handle->write(image) != Status::kOk) die("slot write failed");
    std::printf("slot %u <- version %u (%zu bytes)\n", slot_id, m->version, image.size());
    return 0;
}

void print_slot(flash::FileFlash& device, std::uint32_t slot_id) {
    Bytes header(manifest::kManifestSize);
    if (device.read(slot_id * kSlotSize, MutByteSpan(header)) != Status::kOk) {
        std::printf("slot %u: <read error>\n", slot_id);
        return;
    }
    if (auto m = manifest::parse_manifest(header)) {
        std::printf("slot %u: version %u, app 0x%X, %u-byte firmware%s%s\n", slot_id,
                    m->version, m->app_id, m->firmware_size,
                    m->differential ? ", differential" : "",
                    m->encrypted ? ", encrypted" : "");
    } else {
        std::printf("slot %u: empty / invalid\n", slot_id);
    }
}

}  // namespace

int main(int argc, char** argv) {
    const Args args(argc, argv);

    if (args.flag("bench-verify") != nullptr) {
        // Device-side verification throughput probe (parity with
        // `upkit-sign --bench`): ECDSA verify ops/s against the prepared
        // per-key wNAF table, and SHA-256 digest MB/s, for the selected
        // software backend.
        const std::uint64_t iters = args.flag_u64("bench-verify", 256);
        const std::string* backend_name = args.flag("backend");
        std::unique_ptr<crypto::CryptoBackend> backend;
        if (backend_name == nullptr || *backend_name == "tinycrypt") {
            backend = crypto::make_tinycrypt_backend();
        } else if (*backend_name == "tinydtls") {
            backend = crypto::make_tinydtls_backend();
        } else {
            die("unknown --backend (tinycrypt | tinydtls)");
        }

        const crypto::PrivateKey key =
            crypto::PrivateKey::generate(to_bytes("upkit-device-bench"));
        const crypto::PreparedPublicKey prepared(key.public_key());
        crypto::Sha256Digest digest = crypto::Sha256::digest(to_bytes("bench"));
        const crypto::Signature sig = crypto::ecdsa_sign(key, digest);
        if (!backend->verify(prepared, digest, sig)) die("self-check verify failed");

        using BenchClock = std::chrono::steady_clock;
        volatile std::uint8_t sink = 0;
        auto t0 = BenchClock::now();
        for (std::uint64_t i = 0; i < iters; ++i) {
            sink = sink ^ static_cast<std::uint8_t>(backend->verify(prepared, digest, sig));
        }
        const double prepared_s =
            std::chrono::duration<double>(BenchClock::now() - t0).count();

        Bytes buf(1024 * 1024);
        for (std::size_t i = 0; i < buf.size(); ++i) {
            buf[i] = static_cast<std::uint8_t>(i * 31 + 7);
        }
        const std::uint64_t sha_iters = iters / 16 + 4;
        t0 = BenchClock::now();
        for (std::uint64_t i = 0; i < sha_iters; ++i) {
            buf[0] = static_cast<std::uint8_t>(i);
            sink = sink ^ backend->digest(buf)[0];
        }
        const double sha_s =
            std::chrono::duration<double>(BenchClock::now() - t0).count();

        std::printf("backend %.*s, %llu verifies\n",
                    static_cast<int>(backend->name().size()), backend->name().data(),
                    static_cast<unsigned long long>(iters));
        std::printf("verify (prepared key): %.1f ops/s (%.1f us each)\n",
                    static_cast<double>(iters) / prepared_s,
                    1e6 * prepared_s / static_cast<double>(iters));
        std::printf("sha256 digest:         %.1f MB/s\n",
                    static_cast<double>(sha_iters) * static_cast<double>(buf.size()) /
                        sha_s / 1e6);
        return 0;
    }

    const std::string* flash_path = args.flag("flash");
    if (flash_path == nullptr || args.positional().empty()) {
        std::fprintf(stderr,
                     "usage: upkit-device --flash dev.bin provision|stage IMAGE\n"
                     "       upkit-device --flash dev.bin boot --vendor-pub V --server-pub S"
                     " [--app-id A]\n"
                     "       upkit-device --flash dev.bin status\n"
                     "       upkit-device --bench-verify N [--backend tinycrypt|tinydtls]\n");
        return 1;
    }
    auto device = flash::FileFlash::open(*flash_path, geometry());
    if (!device) die("cannot open flash image file");
    slots::SwapJournal journal(*device, kJournalOffset);
    slots::SlotManager manager(journal);
    add_slots(manager, *device);
    const std::string& command = args.positional()[0];

    if (command == "status") {
        print_slot(*device, 0);
        print_slot(*device, 1);
        return 0;
    }
    if (command == "provision" || command == "stage") {
        if (args.positional().size() < 2) die("missing image path");
        auto image = read_file(args.positional()[1]);
        if (!image) die("cannot read image");
        return write_image(manager, command == "provision" ? 0 : 1, *image);
    }
    if (command == "boot") {
        const std::string* vendor_path = args.flag("vendor-pub");
        const std::string* server_path = args.flag("server-pub");
        if (vendor_path == nullptr || server_path == nullptr) {
            die("boot needs --vendor-pub and --server-pub");
        }
        auto vendor_key = load_public_key(*vendor_path);
        if (!vendor_key) die("cannot load vendor public key");
        auto server_key = load_public_key(*server_path);
        if (!server_key) die("cannot load server public key");

        const auto backend = crypto::make_tinycrypt_backend();
        const verify::Verifier verifier(*backend, crypto::PreparedPublicKey(*vendor_key),
                                        crypto::PreparedPublicKey(*server_key));

        boot::BootConfig config;
        config.bootable_slots = {0};
        config.staging_slot = 1;
        config.identity.app_id = static_cast<std::uint32_t>(args.flag_u64("app-id", 0));
        // Device ID is irrelevant at boot (freshness was agent-side).

        sim::VirtualClock clock;
        sim::EnergyMeter meter(sim::nrf52840());
        boot::Bootloader bootloader(config, manager, verifier, sim::nrf52840(), clock, meter);
        auto report = bootloader.boot();
        if (!report) {
            std::printf("boot FAILED: no valid image in any slot\n");
            return 2;
        }
        std::printf("booted slot %u: version %u%s\n", report->booted_slot,
                    report->booted.version,
                    report->installed_from_staging ? " (installed from staging)" : "");
        for (const std::uint32_t invalidated : report->invalidated) {
            std::printf("  slot %u failed verification and was invalidated\n", invalidated);
        }
        return 0;
    }
    die("unknown command");
}
