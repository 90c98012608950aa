#include "diff/cdc.hpp"

#include "crypto/sha256.hpp"
#include "crypto/sha256x4.hpp"

namespace upkit::diff {

namespace {

// splitmix64 (Steele et al.) — the same generator the chaos plan uses for
// seeded substreams. Here it expands a fixed seed into the gear table, so
// the table is reproducible from ~10 lines of code instead of 2 KB of magic
// numbers pasted into the source.
std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

// Protocol constant: changing this re-cuts every deployed image.
constexpr std::uint64_t kGearSeed = 0x55504B4954434443ull;  // "UPKITCDC"

struct GearTable {
    std::uint64_t g[256];
    GearTable() {
        std::uint64_t state = kGearSeed;
        for (auto& v : g) v = splitmix64(state);
    }
};

const std::uint64_t* gear_table() {
    static const GearTable table;
    return table.g;
}

// Top-`bits` bits set. The gear hash (h = (h << 1) + g[b]) accumulates a
// ~64-byte window into its high bits, so judging the high bits gives each
// position an independent 2^-bits cut probability.
constexpr std::uint64_t top_mask(unsigned bits) {
    return bits == 0 ? 0 : ~0ull << (64u - bits);
}

constexpr unsigned log2_floor(std::size_t v) {
    unsigned bits = 0;
    while (v > 1) {
        v >>= 1;
        ++bits;
    }
    return bits;
}

}  // namespace

std::size_t cut_point(ByteSpan data) {
    const std::size_t n = data.size();
    if (n <= kMinChunk) return n;

    const std::uint64_t* gear = gear_table();
    constexpr unsigned avg_bits = log2_floor(kAvgChunk);
    // Normalized chunking: harder mask before the average point pushes cut
    // points toward kAvgChunk, easier mask after keeps kMaxChunk truncations
    // (which break content alignment) rare.
    constexpr std::uint64_t mask_strict = top_mask(avg_bits + 2);
    constexpr std::uint64_t mask_loose = top_mask(avg_bits - 2);
    const std::size_t normal = n < kAvgChunk ? n : kAvgChunk;
    const std::size_t limit = n < kMaxChunk ? n : kMaxChunk;

    std::uint64_t h = 0;
    std::size_t i = kMinChunk;
    for (; i < normal; ++i) {
        h = (h << 1) + gear[data[i]];
        if ((h & mask_strict) == 0) return i + 1;
    }
    for (; i < limit; ++i) {
        h = (h << 1) + gear[data[i]];
        if ((h & mask_loose) == 0) return i + 1;
    }
    return limit;
}

std::vector<manifest::ChunkRef> chunk_image(ByteSpan image) {
    std::vector<manifest::ChunkRef> table;
    std::size_t offset = 0;
    while (offset < image.size()) {
        const std::size_t len = cut_point(image.subspan(offset));
        manifest::ChunkRef ref;
        ref.offset = static_cast<std::uint32_t>(offset);
        ref.length = static_cast<std::uint32_t>(len);
        table.push_back(ref);
        offset += len;
    }
    // Cut points first, digests second: the per-chunk digests are
    // independent of each other, so the second pass feeds the multi-buffer
    // kernel four chunks at a time instead of one digest per loop trip.
    std::vector<ByteSpan> slices(table.size());
    std::vector<crypto::Sha256Digest> digests(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        slices[i] = image.subspan(table[i].offset, table[i].length);
    }
    crypto::sha256_multi(slices.data(), digests.data(), slices.size());
    for (std::size_t i = 0; i < table.size(); ++i) table[i].digest = digests[i];
    return table;
}

}  // namespace upkit::diff
