// upkit-info — inspects an update image: prints every manifest field and,
// given the public keys, verifies both signatures and the firmware digest.
//
//   upkit-info image.bin [--vendor-pub v.pub] [--server-pub s.pub]
#include "manifest/manifest.hpp"
#include "slots/slot.hpp"
#include "tools/tool_util.hpp"

using namespace upkit;
using namespace upkit::tools;

int main(int argc, char** argv) {
    const Args args(argc, argv);
    if (args.positional().empty()) {
        std::fprintf(stderr,
                     "usage: upkit-info image.bin [--vendor-pub v.pub] [--server-pub s.pub]\n");
        return 1;
    }
    auto image = read_file(args.positional()[0]);
    if (!image) die("cannot read image");
    auto m = manifest::parse_manifest(*image);
    if (!m) die("not a valid UpKit update image (bad manifest)");

    std::printf("manifest (%zu bytes):\n", manifest::kManifestSize);
    std::printf("  version:        %u\n", m->version);
    std::printf("  app id:         0x%08X\n", m->app_id);
    std::printf("  device id:      0x%08X\n", m->device_id);
    std::printf("  nonce:          0x%08X\n", m->nonce);
    std::printf("  differential:   %s", m->differential ? "yes" : "no");
    if (m->differential) std::printf(" (base version %u)", m->old_version);
    std::printf("\n");
    std::printf("  encrypted:      %s\n", m->encrypted ? "yes" : "no");
    std::printf("  firmware size:  %u bytes\n", m->firmware_size);
    std::printf("  payload size:   %u bytes\n", m->payload_size);
    if (m->link_offset == slots::kAnyLinkOffset) {
        std::printf("  link offset:    any (position independent)\n");
    } else {
        std::printf("  link offset:    0x%08X\n", m->link_offset);
    }
    std::printf("  digest:         %s\n",
                hex_encode(ByteSpan(m->digest.data(), m->digest.size())).c_str());

    const std::size_t payload_bytes = image->size() - manifest::kManifestSize;
    std::printf("payload present:  %zu bytes %s\n", payload_bytes,
                payload_bytes == m->payload_size ? "(matches manifest)" : "(MISMATCH!)");

    int failures = 0;
    if (const std::string* path = args.flag("vendor-pub")) {
        auto key = load_public_key(*path);
        if (!key) die("cannot load vendor public key");
        const bool ok = crypto::ecdsa_verify(crypto::PreparedPublicKey(*key),
                                             crypto::Sha256::digest(m->vendor_signed_bytes()),
                                             m->vendor_signature);
        std::printf("vendor signature: %s\n", ok ? "VALID" : "INVALID");
        failures += ok ? 0 : 1;
    }
    if (const std::string* path = args.flag("server-pub")) {
        auto key = load_public_key(*path);
        if (!key) die("cannot load server public key");
        const bool ok = crypto::ecdsa_verify(crypto::PreparedPublicKey(*key),
                                             crypto::Sha256::digest(m->server_signed_bytes()),
                                             m->server_signature);
        std::printf("server signature: %s\n", ok ? "VALID" : "INVALID");
        failures += ok ? 0 : 1;
    }
    if (!m->differential && !m->encrypted && payload_bytes == m->payload_size) {
        const auto digest =
            crypto::Sha256::digest(ByteSpan(*image).subspan(manifest::kManifestSize));
        const bool ok = ct_equal(ByteSpan(digest.data(), digest.size()),
                                 ByteSpan(m->digest.data(), m->digest.size()));
        std::printf("firmware digest:  %s\n", ok ? "VALID" : "INVALID");
        failures += ok ? 0 : 1;
    }
    return failures == 0 ? 0 : 2;
}
