// Chunk-at-a-time install stage (content-addressed distribution).
//
// For a chunked update the device negotiated a have/want split with the
// server: chunks whose digest prefix appeared in the device token are
// *local* (copied out of the installed image), everything else arrives
// over the air in table order. This stage sits in front of the digest tee
// and reassembles the full new image from both sources:
//
//   - local chunks are read from the installed firmware, re-hashed, and
//     forwarded downstream;
//   - air chunks are buffered until a full table entry is present, hashed,
//     and only forwarded once the digest matches the manifest's table.
//
// A mismatching air chunk is *discarded before anything reaches flash* and
// the stage reports kChunkDigestMismatch without disturbing its own state:
// the caller can simply re-send the same chunk's bytes (per-chunk
// re-request) instead of abandoning the session. The whole-image digest
// check downstream still runs afterwards, so the per-chunk verification is
// an availability optimisation layered on top of the existing end-to-end
// check, not a replacement for it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sink.hpp"
#include "manifest/manifest.hpp"

namespace upkit::pipeline {

/// One air chunk as it appears on the wire: `wire_offset` is its position
/// within the (local-chunk-free) payload stream, `table_index` its slot in
/// the manifest chunk table. The session driver uses this to stream and to
/// chaos-target individual chunks.
struct AirChunk {
    std::uint32_t table_index = 0;
    std::uint64_t wire_offset = 0;
    std::uint32_t length = 0;
};

/// Per-table-entry install plan the agent derives from the manifest chunk
/// table and its own chunking of the installed image.
struct ChunkPlan {
    struct Entry {
        manifest::ChunkRef ref{};      // target chunk (new image)
        bool local = false;            // satisfied from the installed image
        std::uint64_t old_offset = 0;  // offset inside the installed firmware
    };
    std::vector<Entry> entries;

    /// Largest air-chunk length — the stage's reassembly buffer size.
    std::size_t max_air_chunk() const;
    /// Wire layout of the air chunks, in table order.
    std::vector<AirChunk> air_chunks() const;
};

class ChunkStage final : public ByteSink {
public:
    /// `plan` and `downstream` must outlive the stage; `old_image` must be
    /// non-null (and outlive the stage) if any plan entry is local.
    ChunkStage(const ChunkPlan& plan, const RandomReader* old_image,
               ByteSink& downstream);

    /// Feeds air-payload bytes. Returns kChunkDigestMismatch when a
    /// completed chunk fails its digest check; the offending bytes are
    /// dropped and the stage stays positioned at that chunk, so the caller
    /// re-sends from committed_air_bytes().
    Status write(ByteSpan data) override;

    /// Drains trailing local chunks and verifies the stream is complete.
    Status finish() override;

    /// Air bytes verified and forwarded downstream so far (partial chunk
    /// bytes held in the reassembly buffer are not counted).
    std::uint64_t committed_air_bytes() const { return committed_air_; }

    /// Local (installed-image) bytes forwarded downstream so far.
    std::uint64_t local_bytes() const { return local_bytes_; }

    std::size_t ram_usage() const { return buffer_.capacity(); }

private:
    Status drain_local();

    const ChunkPlan& plan_;
    const RandomReader* old_image_;
    ByteSink& downstream_;
    std::size_t index_ = 0;  // next plan entry to complete
    Bytes buffer_;           // partial air chunk under reassembly
    std::uint64_t committed_air_ = 0;
    std::uint64_t local_bytes_ = 0;
};

}  // namespace upkit::pipeline
