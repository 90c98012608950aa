// The two future-work features the paper names, working together:
//   * SUIT interop — the same doubly-signed update metadata expressed as a
//     CBOR envelope shaped after draft-ietf-suit-manifest;
//   * payload confidentiality — ChaCha20 encryption keyed via ECDH+HKDF,
//     decrypted on-the-fly by the pipeline's decryption stage, independent
//     of any transport security.
#include <cstdio>

#include "core/device.hpp"
#include "core/session.hpp"
#include "net/link.hpp"
#include "server/update_server.hpp"
#include "server/vendor_server.hpp"
#include "sim/firmware.hpp"
#include "suit/suit.hpp"
#include "verify/verifier.hpp"

using namespace upkit;

int main() {
    std::printf("== UpKit future-work features: SUIT interop + encrypted payloads ==\n\n");

    // ---------------------------------------------------------- SUIT side
    server::VendorServer vendor(to_bytes("vendor-key"));
    server::UpdateServer server(to_bytes("server-key"));
    const Bytes v1 = sim::generate_firmware({.size = 48 * 1024, .seed = 1});
    server.publish(vendor.create_release(v1, {.version = 1, .app_id = 0x5017}));

    auto native = server.prepare_update(
        0x5017, {.device_id = 0xCAFE, .nonce = 31337, .current_version = 0});
    if (!native) {
        std::fprintf(stderr, "prepare failed\n");
        return 1;
    }

    // Express the update as a SUIT envelope (re-signed over the CBOR form).
    const crypto::PrivateKey suit_vendor_key = vendor.private_key();
    const crypto::PrivateKey suit_server_key = crypto::PrivateKey::generate(
        to_bytes("server-key"));  // same seed => same key as the server's
    const suit::Envelope envelope =
        suit::from_manifest(native->manifest, suit_vendor_key, suit_server_key);
    const Bytes wire = envelope.encode();
    std::printf("SUIT envelope: %zu bytes of CBOR (native manifest: %zu bytes)\n",
                wire.size(), native->manifest_bytes.size());

    // A SUIT-speaking consumer parses, verifies, and recovers the fields.
    auto parsed = suit::parse_envelope(wire);
    if (!parsed) {
        std::fprintf(stderr, "SUIT parse failed\n");
        return 1;
    }
    auto header = verify::ImageHeader::from_envelope(*parsed);
    if (!header) {
        std::fprintf(stderr, "SUIT manifest conversion failed\n");
        return 1;
    }
    const auto backend = crypto::make_tinycrypt_backend();
    const verify::Verifier verifier(*backend, vendor.public_key(),
                                    crypto::PreparedPublicKey(suit_server_key.public_key()));
    const Status verdict = verifier.verify_signatures(*header);
    std::printf("SUIT double-signature verification: %s\n",
                std::string(to_string(verdict)).c_str());
    const manifest::Manifest& recovered = header->manifest;
    std::printf("recovered: version %u, %u-byte firmware, nonce 0x%X, device 0x%X\n\n",
                recovered.version, recovered.firmware_size, recovered.nonce,
                recovered.device_id);

    // ------------------------------------------------- encrypted payloads
    core::DeviceConfig config;
    config.device_id = 0xCAFE;
    config.app_id = 0x5017;
    config.enable_encryption = true;
    config.vendor_key = vendor.public_key();
    config.server_key = server.public_key();
    core::Device device(config);
    auto factory = server.prepare_update(
        0x5017, {.device_id = 0xCAFE, .nonce = 0, .current_version = 0});
    if (!factory || device.provision_factory(*factory) != Status::kOk) {
        std::fprintf(stderr, "provisioning failed\n");
        return 1;
    }
    server.register_device_key(0xCAFE, device.encryption_public_key());
    server.set_encryption_enabled(true);
    std::printf("device encryption key registered; server-side encryption on\n");

    server.publish(vendor.create_release(sim::mutate_app_change(v1, 9, 500),
                                         {.version = 2, .app_id = 0x5017}));
    core::UpdateSession session(device, server, net::ble_gatt());
    const core::SessionReport report = session.run(0x5017);
    if (report.status != Status::kOk) {
        std::fprintf(stderr, "encrypted update failed: %s\n",
                     std::string(to_string(report.status)).c_str());
        return 1;
    }
    std::printf("encrypted %s update applied -> v%u\n",
                report.differential ? "differential" : "full", report.final_version);
    std::printf("  neither the smartphone nor an eavesdropper ever saw plaintext\n");
    std::printf("  firmware; the pipeline decrypted in transit (ECDH + HKDF +\n");
    std::printf("  ChaCha20), no transport-layer security required.\n");
    return 0;
}
