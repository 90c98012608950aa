// Content-defined chunking (FastCDC-style) for chunk distribution.
//
// Cuts an image into variable-size chunks at content-determined boundaries:
// a gear rolling hash is evaluated byte-at-a-time and a chunk ends where the
// hash matches a mask, so an insertion or a block move only disturbs the
// chunks around the edit while every other cut point — and therefore every
// other chunk digest — survives. That locality is what lets the server's
// content-addressed store dedup payload bytes across firmware versions and
// lets a device skip chunks it already holds (have/want negotiation).
//
// Determinism is a protocol invariant, not a quality-of-implementation
// detail: the device chunks its installed image with exactly this code to
// report what it has, and the server chunks the published image to decide
// what is missing. Any drift in gear table, masks, or bounds silently turns
// every chunk into a "want". The gear table and the chunk-size bounds are
// therefore fixed protocol constants, and tests/cdc_test.cpp pins digests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "manifest/manifest.hpp"

namespace upkit::diff {

/// Chunk-size bounds, protocol constants like the gear table. kAvgChunk
/// must be a power of two; cut-point judgement uses FastCDC normalized
/// chunking (a stricter mask before the average point, a looser one after)
/// so real chunk sizes cluster near kAvgChunk. The table a manifest carries
/// is authoritative for installs; the bounds only matter for have-list
/// agreement.
inline constexpr std::size_t kMinChunk = 512;
inline constexpr std::size_t kAvgChunk = 2048;
inline constexpr std::size_t kMaxChunk = 8192;

/// Chunks `image` into a contiguous table of {offset, length, sha256}.
/// Pure function of the bytes: same image, same table, every time, on both
/// sides of the wire. Empty image yields an empty table.
std::vector<manifest::ChunkRef> chunk_image(ByteSpan image);

/// Next cut point (chunk length) for a buffer starting a new chunk.
/// Exposed for the determinism regression tests.
std::size_t cut_point(ByteSpan data);

}  // namespace upkit::diff
