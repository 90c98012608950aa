// Regional edge servers for multi-server fleet topologies.
//
// A campaign at scale does not hit the vendor origin directly: N regional
// edges each front a slice of the fleet with their own admission queue and
// payload cache, and only cache misses travel the backhaul to the origin.
// The origin stays the sole signing authority — the per-request freshness
// signature binds the manifest to the device token, so the edge can cache
// *payloads* (token-independent by construction) but never the signed
// envelope. That split is what the EdgeCache models: payload identity is
// keyed by the response shape (app, version, differential, old-version,
// chunked) and the payload's SHA-256, and a miss charges the origin fetch
// plus backhaul latency while a hit serves from the region.
//
// The fleet engine owns per-edge queues and outage domains (a region's
// ChaosPlan windows down one edge without touching its siblings); this
// header is the cache + accounting layer those queues charge against.
#pragma once

#include <cstdint>
#include <set>

#include "crypto/sha256.hpp"
#include "server/update_server.hpp"

namespace upkit::server {

/// Per-edge serving counters (campaigns snapshot these into the report).
struct EdgeStats {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    /// Bytes pulled over the backhaul from the origin on misses (payload
    /// plus wire manifest).
    std::uint64_t origin_fetch_bytes = 0;
    /// Payload bytes served to devices out of this edge (hits and misses —
    /// a miss still serves the device after the origin fetch).
    std::uint64_t bytes_served = 0;
};

/// Content-addressed payload cache for one regional edge.
class EdgeCache {
public:
    /// Accounts one served response. Returns true on a cache hit (payload
    /// already held), false on a miss (payload now held, origin charged).
    /// Deterministic: same request sequence, same hits, same stats.
    bool serve(const UpdateResponse& response);

    const EdgeStats& stats() const { return stats_; }

private:
    /// The token-independent identity of a response's payload. Chunked
    /// payloads vary per have-list, so their key carries the have-hash the
    /// origin used (via receipt accounting the payload digest also covers
    /// it — two devices missing different chunks get different payloads).
    struct Key {
        std::uint32_t app_id = 0;
        std::uint16_t version = 0;
        std::uint16_t old_version = 0;
        bool differential = false;
        bool chunked = false;
        crypto::Sha256Digest payload_digest{};
        auto operator<=>(const Key&) const = default;
    };

    std::set<Key> seen_;
    EdgeStats stats_;
};

}  // namespace upkit::server
