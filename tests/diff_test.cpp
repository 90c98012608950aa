// Differential-update tests: suffix-array invariants, bsdiff/bspatch
// roundtrips (reference and streaming appliers), patch-size expectations for
// the paper's two mutation scenarios, and corrupt-patch rejection.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "compress/lzss.hpp"
#include "diff/bsdiff.hpp"
#include "diff/bspatch_stream.hpp"
#include "diff/suffix_array.hpp"
#include "sim/firmware.hpp"
#include "support/oracles.hpp"

namespace upkit::diff {
namespace {

// ------------------------------------------------------------ suffix array

bool suffix_less(ByteSpan data, std::uint32_t a, std::uint32_t b) {
    const auto sa = data.subspan(a);
    const auto sb = data.subspan(b);
    return std::lexicographical_compare(sa.begin(), sa.end(), sb.begin(), sb.end());
}

TEST(SuffixArrayTest, EmptyAndSingle) {
    EXPECT_TRUE(build_suffix_array({}).empty());
    const Bytes one = {0x42};
    const auto sa = build_suffix_array(one);
    ASSERT_EQ(sa.size(), 1u);
    EXPECT_EQ(sa[0], 0u);
}

TEST(SuffixArrayTest, Banana) {
    const Bytes s = to_bytes("banana");
    const auto sa = build_suffix_array(s);
    const std::vector<std::uint32_t> expected = {5, 3, 1, 0, 4, 2};
    EXPECT_EQ(sa, expected);
}

TEST(SuffixArrayTest, AllEqualBytes) {
    const Bytes s(64, 'a');
    const auto sa = build_suffix_array(s);
    for (std::size_t i = 0; i + 1 < sa.size(); ++i) {
        EXPECT_TRUE(suffix_less(s, sa[i], sa[i + 1]));
    }
}

class SuffixArrayPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(SuffixArrayPropertySweep, SortedAndPermutation) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 1 + rng.below(3000);
    // Small alphabet maximizes repeated substrings (the hard case).
    Bytes s(n);
    for (auto& b : s) b = static_cast<std::uint8_t>('a' + rng.below(4));

    const auto sa = build_suffix_array(s);
    ASSERT_EQ(sa.size(), n);

    std::vector<bool> seen(n, false);
    for (const auto idx : sa) {
        ASSERT_LT(idx, n);
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
        EXPECT_TRUE(suffix_less(s, sa[i], sa[i + 1])) << "at " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Random, SuffixArrayPropertySweep, ::testing::Range(0, 6));

class SaisCrossCheckSweep : public ::testing::TestWithParam<int> {};

TEST_P(SaisCrossCheckSweep, SaisAgreesWithDoublingOracle) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
    // Mix of alphabet sizes: tiny alphabets stress induced sorting's
    // LMS-substring naming; byte-wide data stresses the bucket logic.
    const int alphabet = GetParam() % 2 == 0 ? 3 : 256;
    const std::size_t n = 1 + rng.below(5000);
    Bytes s(n);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(alphabet)));
    EXPECT_EQ(build_suffix_array(s), build_suffix_array_doubling(s));
}

INSTANTIATE_TEST_SUITE_P(Random, SaisCrossCheckSweep, ::testing::Range(0, 10));

TEST(SuffixArrayTest, SaisHandlesPathologicalInputs) {
    // Runs, alternations, and staircases are classic SA-IS edge cases.
    for (const Bytes& s :
         {Bytes(1000, 'a'), to_bytes("abababababababab"), to_bytes("aaaaab"),
          to_bytes("baaaaa"), to_bytes("abcabcabcabc"), Bytes{0xFF},
          Bytes{0x00, 0x00, 0x01, 0x00, 0x00}}) {
        EXPECT_EQ(build_suffix_array(s), build_suffix_array_doubling(s));
    }
}

TEST(SuffixArrayTest, SaisOnFirmwareImage) {
    const Bytes fw = sim::generate_firmware({.size = 64 * 1024, .seed = 77});
    EXPECT_EQ(build_suffix_array(fw), build_suffix_array_doubling(fw));
}

// ------------------------------------------------------------ bsdiff

void expect_patch_roundtrip(ByteSpan old_image, ByteSpan new_image) {
    auto patch = bsdiff(old_image, new_image);
    ASSERT_TRUE(patch.has_value());
    auto restored = bspatch_all(old_image, *patch);
    ASSERT_TRUE(restored.has_value());
    EXPECT_TRUE(std::equal(restored->begin(), restored->end(), new_image.begin(),
                           new_image.end()));
}

/// bsdiff patches carry matched regions as runs of zero delta bytes and are
/// meant to be compressed for transport (bzip2 in classic bsdiff, LZSS in
/// UpKit's pipeline); on-air size is therefore the compressed size.
std::size_t on_air_size(ByteSpan patch) {
    auto compressed = compress::lzss_compress(patch);
    EXPECT_TRUE(compressed.has_value());
    return compressed.has_value() ? compressed->size() : 0;
}

TEST(BsdiffTest, IdenticalImages) {
    const Bytes fw = sim::generate_firmware({.size = 8192, .seed = 1});
    auto patch = bsdiff(fw, fw);
    ASSERT_TRUE(patch.has_value());
    expect_patch_roundtrip(fw, fw);
    // A no-change patch must be tiny relative to the image once compressed
    // (bounded by LZSS's max match length over the zero-delta run).
    EXPECT_LT(on_air_size(*patch), 1024u);
}

TEST(BsdiffTest, EmptyOldImage) {
    const Bytes fw = sim::generate_firmware({.size = 2048, .seed = 2});
    expect_patch_roundtrip({}, fw);
}

TEST(BsdiffTest, EmptyNewImage) { expect_patch_roundtrip(to_bytes("old content"), {}); }

TEST(BsdiffTest, BothEmpty) { expect_patch_roundtrip({}, {}); }

TEST(BsdiffTest, CompletelyDifferentImages) {
    Rng rng(3);
    expect_patch_roundtrip(rng.bytes(5000), rng.bytes(6000));
}

TEST(BsdiffTest, SizeGrowsAndShrinks) {
    const Bytes base = sim::generate_firmware({.size = 10000, .seed = 4});
    Bytes grown(base);
    append(grown, to_bytes("extra trailing segment with new functionality"));
    expect_patch_roundtrip(base, grown);
    const Bytes shrunk(base.begin(), base.begin() + 7000);
    expect_patch_roundtrip(base, shrunk);
}

TEST(BsdiffTest, AppChangePatchIsSmall) {
    const Bytes v1 = sim::generate_firmware({.size = 100 * 1024, .seed = 5});
    const Bytes v2 = sim::mutate_app_change(v1, 99, 1000);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());
    expect_patch_roundtrip(v1, v2);
    // A localized 1000-byte edit must shrink to a few percent of the image.
    EXPECT_LT(on_air_size(*patch), v1.size() / 10);
}

TEST(BsdiffTest, OsChangePatchSmallerThanFullImage) {
    const Bytes v1 = sim::generate_firmware({.size = 100 * 1024, .seed = 6});
    const Bytes v2 = sim::mutate_os_version(v1, 77);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());
    expect_patch_roundtrip(v1, v2);
    EXPECT_LT(on_air_size(*patch), v1.size() / 2);
}

TEST(BsdiffTest, OsChangePatchLargerThanAppChange) {
    // Fig. 8b's ordering depends on this: scattered churn costs more than a
    // localized edit.
    const Bytes v1 = sim::generate_firmware({.size = 100 * 1024, .seed = 7});
    auto os_patch = bsdiff(v1, sim::mutate_os_version(v1, 1));
    auto app_patch = bsdiff(v1, sim::mutate_app_change(v1, 1, 1000));
    ASSERT_TRUE(os_patch.has_value());
    ASSERT_TRUE(app_patch.has_value());
    EXPECT_GT(on_air_size(*os_patch), on_air_size(*app_patch));
}

class BsdiffPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(BsdiffPropertySweep, RandomEditScripts) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
    Bytes old_image = rng.bytes(1000 + rng.below(20000));
    Bytes new_image = old_image;
    // Apply a random edit script: overwrite, insert, delete.
    const int edits = 1 + static_cast<int>(rng.below(8));
    for (int e = 0; e < edits; ++e) {
        if (new_image.empty()) break;
        const std::size_t pos = rng.below(new_image.size());
        switch (rng.below(3)) {
            case 0: {  // overwrite
                const std::size_t len = std::min<std::size_t>(rng.below(500), new_image.size() - pos);
                rng.fill(MutByteSpan(new_image.data() + pos, len));
                break;
            }
            case 1: {  // insert
                const Bytes ins = rng.bytes(rng.below(500));
                new_image.insert(new_image.begin() + static_cast<std::ptrdiff_t>(pos), ins.begin(),
                                 ins.end());
                break;
            }
            default: {  // delete
                const std::size_t len = std::min<std::size_t>(rng.below(500), new_image.size() - pos);
                new_image.erase(new_image.begin() + static_cast<std::ptrdiff_t>(pos),
                                new_image.begin() + static_cast<std::ptrdiff_t>(pos + len));
                break;
            }
        }
    }
    expect_patch_roundtrip(old_image, new_image);
}

INSTANTIATE_TEST_SUITE_P(EditScripts, BsdiffPropertySweep, ::testing::Range(0, 10));

// ------------------------------------------------------------ bspatch rejects

TEST(BspatchTest, RejectsBadMagic) {
    const Bytes old_image = to_bytes("0123456789");
    auto patch = bsdiff(old_image, to_bytes("0123x56789"));
    ASSERT_TRUE(patch.has_value());
    (*patch)[0] = 'X';
    EXPECT_EQ(bspatch_all(old_image, *patch).status(), Status::kCorruptPatch);
}

TEST(BspatchTest, RejectsWrongBaseImage) {
    const Bytes v1 = sim::generate_firmware({.size = 4096, .seed = 8});
    const Bytes v2 = sim::mutate_app_change(v1, 1, 100);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());
    const Bytes wrong_base = sim::generate_firmware({.size = 2048, .seed = 9});
    EXPECT_EQ(bspatch_all(wrong_base, *patch).status(), Status::kPatchBaseMismatch);
}

TEST(BspatchTest, RejectsTruncatedPatch) {
    const Bytes v1 = sim::generate_firmware({.size = 4096, .seed = 10});
    const Bytes v2 = sim::mutate_app_change(v1, 2, 200);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());
    const Bytes cut(patch->begin(), patch->begin() + static_cast<std::ptrdiff_t>(patch->size() / 2));
    EXPECT_FALSE(bspatch_all(v1, cut).has_value());
}

TEST(BspatchTest, RejectsTrailingGarbage) {
    const Bytes old_image = to_bytes("abcdefgh");
    auto patch = bsdiff(old_image, to_bytes("abcdXfgh"));
    ASSERT_TRUE(patch.has_value());
    patch->push_back(0x77);
    EXPECT_EQ(bspatch_all(old_image, *patch).status(), Status::kCorruptPatch);
}

// ------------------------------------------------------------ streaming applier

Bytes apply_streaming(ByteSpan old_image, ByteSpan patch, std::size_t chunk, Status* final_status) {
    SpanReader reader(old_image);
    BytesSink sink;
    PatchApplier applier(reader, sink);
    for (std::size_t off = 0; off < patch.size(); off += chunk) {
        const std::size_t len = std::min(chunk, patch.size() - off);
        const Status s = applier.write(patch.subspan(off, len));
        if (s != Status::kOk) {
            *final_status = s;
            return {};
        }
    }
    *final_status = applier.finish();
    return sink.take();
}

class PatchApplierChunkSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PatchApplierChunkSweep, MatchesReferenceApplier) {
    const Bytes v1 = sim::generate_firmware({.size = 48 * 1024, .seed = 20});
    const Bytes v2 = sim::mutate_os_version(v1, 21);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());

    Status status = Status::kInternal;
    const Bytes out = apply_streaming(v1, *patch, GetParam(), &status);
    ASSERT_EQ(status, Status::kOk);
    EXPECT_EQ(out, v2);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, PatchApplierChunkSweep,
                         ::testing::Values(1, 5, 64, 244, 512, 4096));

TEST(PatchApplierTest, ReportsSizes) {
    const Bytes v1 = sim::generate_firmware({.size = 4096, .seed = 22});
    const Bytes v2 = sim::mutate_app_change(v1, 3, 64);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());

    SpanReader reader(v1);
    BytesSink sink;
    PatchApplier applier(reader, sink);
    ASSERT_EQ(applier.write(*patch), Status::kOk);
    ASSERT_EQ(applier.finish(), Status::kOk);
    EXPECT_EQ(applier.new_size(), v2.size());
    EXPECT_EQ(applier.produced(), v2.size());
}

TEST(PatchApplierTest, TruncationDetectedAtFinish) {
    const Bytes v1 = sim::generate_firmware({.size = 4096, .seed = 23});
    const Bytes v2 = sim::mutate_app_change(v1, 4, 128);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());

    SpanReader reader(v1);
    BytesSink sink;
    PatchApplier applier(reader, sink);
    ASSERT_EQ(applier.write(ByteSpan(*patch).subspan(0, patch->size() - 3)), Status::kOk);
    EXPECT_EQ(applier.finish(), Status::kTruncatedImage);
}

TEST(PatchApplierTest, WrongBaseRejectedImmediately) {
    const Bytes v1 = sim::generate_firmware({.size = 4096, .seed = 24});
    const Bytes v2 = sim::mutate_app_change(v1, 5, 128);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());

    const Bytes wrong = sim::generate_firmware({.size = 1024, .seed = 25});
    SpanReader reader(wrong);
    BytesSink sink;
    PatchApplier applier(reader, sink);
    EXPECT_EQ(applier.write(*patch), Status::kPatchBaseMismatch);
}

// ----------------------------------------------- pipeline-shaped composition

TEST(DiffCompressionTest, LzssOverPatchShrinksTransfer) {
    // Server-side composition the paper performs: delta then compress.
    const Bytes v1 = sim::generate_firmware({.size = 100 * 1024, .seed = 30});
    const Bytes v2 = sim::mutate_os_version(v1, 31);
    auto patch = bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());
    auto compressed = compress::lzss_compress(*patch);
    ASSERT_TRUE(compressed.has_value());
    EXPECT_LT(compressed->size(), patch->size());
    EXPECT_LT(compressed->size(), v2.size() / 2);

    // Device-side composition: LZSS decode feeding the streaming applier.
    SpanReader reader(v1);
    BytesSink sink;
    PatchApplier applier(reader, sink);
    compress::LzssDecoder decoder(applier);
    for (std::size_t off = 0; off < compressed->size(); off += 244) {  // BLE MTU chunks
        const std::size_t len = std::min<std::size_t>(244, compressed->size() - off);
        ASSERT_EQ(decoder.write(ByteSpan(*compressed).subspan(off, len)), Status::kOk);
    }
    ASSERT_EQ(decoder.finish(), Status::kOk);
    EXPECT_EQ(sink.bytes(), v2);
}

}  // namespace
}  // namespace upkit::diff
