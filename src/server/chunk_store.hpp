// Content-addressed chunk index: digest -> (length, refs), refcounted.
//
// Counts each distinct content-defined chunk of every published chunked
// release once, keyed by its SHA-256. It holds no bytes: the releases the
// update server retains for deltas hold them, and a chunked response
// slices the release it serves. Chunks shared across versions
// (content-defined chunking keeps most cut points stable across an edit)
// are counted once and referenced by every release that contains them, so
// the index's dedup ratio (logical over unique bytes) is exactly the
// payload dedup a fleet sees across staggered upgrades.
//
// Refcounts track how many published releases reference a chunk, so
// retiring a release drops only the chunks no other version still needs.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "manifest/manifest.hpp"

namespace upkit::server {

class ChunkStore {
public:
    struct Stats {
        std::uint64_t chunks = 0;         // unique chunks currently indexed
        std::uint64_t unique_bytes = 0;   // bytes one copy per digest would hold
        std::uint64_t logical_bytes = 0;  // what whole-image storage would hold
        std::uint64_t ingested = 0;       // chunk references processed by ingest()
        std::uint64_t deduped = 0;        // references that matched an indexed chunk
        std::uint64_t released = 0;       // chunks dropped when their refcount hit zero
        bool operator==(const Stats&) const = default;
    };

    /// Adds one image's chunk table: one refcount per entry, and a new
    /// index entry for each digest not yet present. The caller has already
    /// checked the table against the image (UpdateServer::publish).
    void ingest(const std::vector<manifest::ChunkRef>& table);

    /// Drops one image's references; chunks no other release still
    /// references leave the index.
    void release(const std::vector<manifest::ChunkRef>& table);

    const Stats& stats() const { return stats_; }

private:
    struct Entry {
        std::uint32_t length = 0;
        std::uint32_t refs = 0;
    };

    std::map<crypto::Sha256Digest, Entry> entries_;
    Stats stats_;
};

}  // namespace upkit::server
