// The benchmark's three workloads and the helpers they share (shared.cpp).
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "manifest/manifest.hpp"
#include "server/update_server.hpp"

namespace perfbench {

/// Provisions a ~1.5k-device synthetic fleet and rolls a new version out
/// over two regional edges with a gated canary, timed on the inline engine.
Result run_fleet_rollout(const Options& options);

/// Pumps single-device update sessions of the paper's four shapes.
Result run_device_sessions(const Options& options);

/// Publishes and retires chunked releases between prepare_update requests.
Result run_release_train(const Options& options);

/// The counters a stretch of server work moved: `after` minus `before`,
/// field by field.
upkit::server::ServerStats stats_delta(const upkit::server::ServerStats& after,
                                       const upkit::server::ServerStats& before);

/// The have-list a device running `image` advertises: the digest prefixes
/// of its content-defined chunks, strictly increasing.
std::vector<std::uint64_t> have_list(upkit::ByteSpan image);

/// Appends crypto.sign_us, crypto.verify2_us, crypto.sha256_mb_s and
/// crypto.sha256x4_mb_s to `result`, measured on a workload's own keys and
/// messages: a vendor and a server built from the workload's seeds publish
/// `image` as v1 (chunked when `token` carries a have-list) and answer the
/// factory token `token` (current version 0); the response's manifest is
/// then signed and verified, and `image` hashed. Each figure is the minimum
/// over several batches of the batch mean. Counts one checked operation,
/// failed when verify2 rejects the manifest's signature pair.
void add_crypto_metrics(const std::string& vendor_seed, const std::string& server_seed,
                        const upkit::Bytes& image, std::uint32_t app_id,
                        const upkit::manifest::DeviceToken& token, Result& result);

}  // namespace perfbench
