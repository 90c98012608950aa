#include "server/edge.hpp"

#include "crypto/sha256.hpp"

namespace upkit::server {

bool EdgeCache::serve(const UpdateResponse& response) {
    ++stats_.requests;
    const manifest::Manifest& m = response.manifest;
    Key key;
    key.app_id = m.app_id;
    key.version = m.version;
    key.old_version = m.old_version;
    key.differential = m.differential;
    key.chunked = m.chunked;
    key.payload_digest = crypto::Sha256::digest(
        ByteSpan(response.payload.data(), response.payload.size()));

    stats_.bytes_served += response.payload.size();
    if (!seen_.insert(key).second) {
        ++stats_.cache_hits;
        return true;
    }
    ++stats_.cache_misses;
    stats_.origin_fetch_bytes += response.payload.size() + response.manifest_bytes.size();
    return false;
}

}  // namespace upkit::server
