#include "server/chunk_store.hpp"

namespace upkit::server {

void ChunkStore::ingest(const std::vector<manifest::ChunkRef>& table) {
    for (const manifest::ChunkRef& ref : table) {
        ++stats_.ingested;
        auto [it, inserted] = entries_.try_emplace(ref.digest, Entry{ref.length, 0});
        if (inserted) {
            ++stats_.chunks;
            stats_.unique_bytes += ref.length;
        } else {
            ++stats_.deduped;
        }
        ++it->second.refs;
        stats_.logical_bytes += ref.length;
    }
}

void ChunkStore::release(const std::vector<manifest::ChunkRef>& table) {
    for (const manifest::ChunkRef& ref : table) {
        const auto it = entries_.find(ref.digest);
        if (it == entries_.end()) continue;
        stats_.logical_bytes -= ref.length;
        if (--it->second.refs == 0) {
            stats_.unique_bytes -= it->second.length;
            --stats_.chunks;
            ++stats_.released;
            entries_.erase(it);
        }
    }
}

}  // namespace upkit::server
