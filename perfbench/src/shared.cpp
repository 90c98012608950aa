#include <algorithm>
#include <array>

#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256x4.hpp"
#include "diff/cdc.hpp"
#include "server/vendor_server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace upkit;

namespace {

constexpr int kBatches = 5;

/// Minimum over kBatches of the mean seconds per call of `op`.
template <typename Op>
double min_batch_mean(int calls_per_batch, Op op) {
    double best = 0.0;
    for (int b = 0; b < kBatches; ++b) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < calls_per_batch; ++i) op(i);
        const double mean = seconds_since(t0) / calls_per_batch;
        if (b == 0 || mean < best) best = mean;
    }
    return best;
}

}  // namespace

server::ServerStats stats_delta(const server::ServerStats& after,
                                const server::ServerStats& before) {
    server::ServerStats d;
    d.requests = after.requests - before.requests;
    d.sign_ops = after.sign_ops - before.sign_ops;
    d.delta_generations = after.delta_generations - before.delta_generations;
    d.response_hits = after.response_hits - before.response_hits;
    d.response_misses = after.response_misses - before.response_misses;
    d.response_evictions = after.response_evictions - before.response_evictions;
    d.chunked_responses = after.chunked_responses - before.chunked_responses;
    d.chunk_hits = after.chunk_hits - before.chunk_hits;
    d.chunk_misses = after.chunk_misses - before.chunk_misses;
    d.chunks_served = after.chunks_served - before.chunks_served;
    d.chunk_bytes_served = after.chunk_bytes_served - before.chunk_bytes_served;
    d.chunk_bytes_deduped = after.chunk_bytes_deduped - before.chunk_bytes_deduped;
    d.key_rotations = after.key_rotations - before.key_rotations;
    d.publish_verifies = after.publish_verifies - before.publish_verifies;
    return d;
}

std::vector<std::uint64_t> have_list(ByteSpan image) {
    std::vector<std::uint64_t> have;
    for (const manifest::ChunkRef& ref : diff::chunk_image(image)) {
        have.push_back(manifest::digest_prefix(ref.digest));
    }
    std::sort(have.begin(), have.end());
    have.erase(std::unique(have.begin(), have.end()), have.end());
    return have;
}

void add_crypto_metrics(const std::string& vendor_seed, const std::string& server_seed,
                        const Bytes& image, std::uint32_t app_id,
                        const manifest::DeviceToken& token, Result& result) {
    const server::VendorServer vendor(to_bytes(vendor_seed));
    server::UpdateServer update_server(to_bytes(server_seed));
    must(update_server.publish(vendor.create_release(
             image, {.version = 1, .app_id = app_id, .chunked = !token.have.empty()})),
         "probe publish");
    const Expected<server::UpdateResponse> sample = update_server.prepare_update(app_id, token);
    must(sample.status(), "probe prepare_update");
    const manifest::Manifest& signed_manifest = sample->manifest;
    const crypto::PrivateKey server_key = crypto::PrivateKey::generate(to_bytes(server_seed));
    volatile std::uint8_t sink = 0;

    crypto::Sha256Digest digest = crypto::Sha256::digest(signed_manifest.server_signed_bytes());
    const double sign_us = 1e6 * min_batch_mean(40, [&](int i) {
        digest[0] = static_cast<std::uint8_t>(i);
        sink = sink ^ crypto::ecdsa_sign(server_key, digest)[0];
    });

    const crypto::PreparedPublicKey vendor_key(vendor.public_key());
    const crypto::PreparedPublicKey server_public(server_key.public_key());
    const crypto::Sha256Digest vendor_digest =
        crypto::Sha256::digest(signed_manifest.vendor_signed_bytes());
    const crypto::Sha256Digest server_digest =
        crypto::Sha256::digest(signed_manifest.server_signed_bytes());
    const ByteSpan vendor_sig(signed_manifest.vendor_signature);
    const ByteSpan server_sig(signed_manifest.server_signature);
    bool verified = true;
    const double verify2_us = 1e6 * min_batch_mean(20, [&](int) {
        if (!crypto::ecdsa_verify2(vendor_key, vendor_digest, vendor_sig, server_public,
                                   server_digest, server_sig)) {
            verified = false;
        }
    });

    const double mb = static_cast<double>(image.size()) / 1e6;
    const double sha256_mb_s = mb / min_batch_mean(8, [&](int) {
        sink = sink ^ crypto::Sha256::digest(image)[0];
    });

    const std::array<ByteSpan, 4> lanes{image, image, image, image};
    std::array<crypto::Sha256Digest, 4> out{};
    const double sha256x4_mb_s = 4.0 * mb / min_batch_mean(4, [&](int) {
        crypto::sha256x4_digest(lanes.data(), out.data(), lanes.size());
        sink = sink ^ out[3][0];
    });

    result.metrics.push_back({"crypto.sign_us", sign_us, "us"});
    result.metrics.push_back({"crypto.verify2_us", verify2_us, "us"});
    result.metrics.push_back({"crypto.sha256_mb_s", sha256_mb_s, "MB/s"});
    result.metrics.push_back({"crypto.sha256x4_mb_s", sha256x4_mb_s, "MB/s"});
    ++result.attempted;
    if (!verified) ++result.failed;
}

}  // namespace perfbench
