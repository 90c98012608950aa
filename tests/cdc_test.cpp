// Chunker regression tests (src/diff/cdc.*).
//
// Determinism here is a protocol invariant, not a nicety: the device chunks
// its installed image to build the have-list and the server chunks the
// published image to decide what is missing, so any drift in the gear
// table, masks, or bounds silently turns every chunk into a "want" and the
// dedup win evaporates without anything failing. The pinned-digest test is
// the tripwire — it hard-codes a digest over the chunk table of a seeded
// image and fails on any change to the cut-point function.
#include <gtest/gtest.h>

#include <set>

#include "crypto/sha256.hpp"
#include "diff/cdc.hpp"
#include "sim/firmware.hpp"

namespace upkit::diff {
namespace {

Bytes test_image(std::size_t size, std::uint64_t seed) {
    return sim::generate_firmware({.size = size, .seed = seed});
}

/// Structural invariants every chunk table must satisfy: contiguous tiling
/// of [0, image.size()), size bounds (the final chunk may undershoot
/// kMinChunk), and per-chunk digests that match the image slices.
void check_table(const Bytes& image, const std::vector<manifest::ChunkRef>& table) {
    std::uint64_t next = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const manifest::ChunkRef& ref = table[i];
        EXPECT_EQ(ref.offset, next) << "chunk " << i;
        EXPECT_GT(ref.length, 0u) << "chunk " << i;
        EXPECT_LE(ref.length, kMaxChunk) << "chunk " << i;
        if (i + 1 < table.size()) {
            EXPECT_GE(ref.length, kMinChunk) << "chunk " << i;
        }
        const auto digest =
            crypto::Sha256::digest(ByteSpan(image.data() + ref.offset, ref.length));
        EXPECT_EQ(digest, ref.digest) << "chunk " << i;
        next += ref.length;
    }
    EXPECT_EQ(next, image.size());
}

TEST(CdcTest, EmptyImageYieldsEmptyTable) {
    EXPECT_TRUE(chunk_image(ByteSpan()).empty());
}

TEST(CdcTest, TablesTileImagesOfAwkwardSizes) {
    // One byte, sub-minimum, exactly min/avg/max, off-by-one around max,
    // and a large image: the table always tiles exactly.
    for (const std::size_t size :
         {std::size_t{1}, std::size_t{100}, kMinChunk, kMinChunk - 1, kAvgChunk,
          kMaxChunk, kMaxChunk + 1,
          std::size_t{64 * 1024 + 13}}) {
        const Bytes image = test_image(size, 77 + size);
        check_table(image, chunk_image(image));
    }
}

TEST(CdcTest, SubMinimumImageIsOneChunk) {
    const Bytes image = test_image(kMinChunk - 1, 5);
    const auto table = chunk_image(image);
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table[0].length, image.size());
}

TEST(CdcTest, ChunkingIsDeterministicAcrossCalls) {
    const Bytes image = test_image(48 * 1024, 99);
    const auto a = chunk_image(image);
    const auto b = chunk_image(image);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].offset, b[i].offset);
        EXPECT_EQ(a[i].length, b[i].length);
        EXPECT_EQ(a[i].digest, b[i].digest);
    }
    // cut_point agrees with the table it produced: feeding each chunk's
    // remaining suffix back in reproduces that chunk's length.
    std::size_t offset = 0;
    for (const auto& ref : a) {
        EXPECT_EQ(cut_point(ByteSpan(image.data() + offset, image.size() - offset)),
                  ref.length);
        offset += ref.length;
    }
}

TEST(CdcTest, PinnedProtocolFingerprint) {
    // Hard-coded golden: SHA-256 over the concatenated chunk digests of a
    // fixed seeded image. Any change to the gear table, the masks, the
    // normalization point, or the default bounds lands here first. Do NOT
    // update the constant without bumping the wire protocol — deployed
    // devices chunk with the old code.
    const Bytes image = test_image(96 * 1024, 2026);
    const auto table = chunk_image(image);
    ASSERT_EQ(table.size(), 42u);
    EXPECT_EQ(table[0].length, 3088u);

    crypto::Sha256 hasher;
    for (const auto& ref : table) {
        hasher.update(ByteSpan(ref.digest.data(), ref.digest.size()));
    }
    const auto digest = hasher.finalize();
    std::array<char, 65> hex{};
    for (std::size_t i = 0; i < digest.size(); ++i) {
        std::snprintf(hex.data() + 2 * i, 3, "%02x", digest[i]);
    }
    EXPECT_STREQ(hex.data(),
                 "f925d8d1bf0afa36856f69c7d36f454475e549ac8ebefe88d6aaa6e336cfbbdc");
}

TEST(CdcTest, LocalizedEditDisturbsOnlyNearbyChunks) {
    // The property the whole chunk store leans on: a small in-place edit
    // changes the chunks covering it, and every other chunk digest — hence
    // every other store entry — survives.
    const Bytes base = test_image(64 * 1024, 123);
    Bytes edited = base;
    for (std::size_t i = 30 * 1024; i < 30 * 1024 + 700; ++i) {
        edited[i] ^= 0xA5;
    }

    const auto before = chunk_image(base);
    const auto after = chunk_image(edited);
    check_table(edited, after);

    std::set<std::array<std::uint8_t, 32>> survivors;
    for (const auto& ref : before) survivors.insert(ref.digest);
    std::size_t shared = 0;
    for (const auto& ref : after) shared += survivors.count(ref.digest);
    // The edit spans at most a few chunks; far more than half must survive.
    ASSERT_GT(after.size(), 4u);
    EXPECT_GE(shared, after.size() - 4);
    EXPECT_LT(shared, after.size());  // the edit did change something
}

TEST(CdcTest, InsertionResynchronizesDownstream) {
    // Content-defined (vs fixed-size) chunking: an insertion shifts every
    // downstream byte, yet the cut points re-align and downstream chunk
    // digests recur — exactly what fixed-size chunking cannot do.
    const Bytes base = test_image(64 * 1024, 321);
    Bytes inserted;
    inserted.insert(inserted.end(), base.begin(), base.begin() + 20 * 1024);
    const Bytes wedge = test_image(999, 7);
    inserted.insert(inserted.end(), wedge.begin(), wedge.end());
    inserted.insert(inserted.end(), base.begin() + 20 * 1024, base.end());

    const auto before = chunk_image(base);
    const auto after = chunk_image(inserted);
    check_table(inserted, after);

    std::set<std::array<std::uint8_t, 32>> original;
    for (const auto& ref : before) original.insert(ref.digest);
    std::size_t shared = 0;
    for (const auto& ref : after) shared += original.count(ref.digest);
    EXPECT_GT(shared, after.size() / 2);
}

TEST(CdcTest, DigestPrefixesAreDistinctAcrossATypicalImage) {
    // The have-list compresses each digest to a 64-bit prefix; the protocol
    // tolerates collisions (a colliding chunk is just served from local
    // flash and re-verified), but on real tables they must be absent or the
    // dedup accounting in the tests above would be meaningless.
    const auto table = chunk_image(test_image(128 * 1024, 55));
    std::set<std::uint64_t> prefixes;
    for (const auto& ref : table) prefixes.insert(manifest::digest_prefix(ref.digest));
    EXPECT_EQ(prefixes.size(), table.size());
}

}  // namespace
}  // namespace upkit::diff
