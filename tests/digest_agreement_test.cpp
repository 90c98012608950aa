// Digest-agreement regression suite for the SHA-256 kernel rewrite.
//
// The same firmware bytes are digested twice per update through different
// I/O shapes: the agent's pipeline hashes transport-chunk-sized pieces as
// they stream in, the bootloader re-hashes sector-sized reads from flash,
// and the server hashed the whole image in one shot at publish time. A
// tail-block bug in any path (the 55/56 and 63/64/65 padding boundaries,
// or the multi-block fast path's block accounting) shows up as a digest
// mismatch — so this suite pins every streaming shape to the rolled
// reference kernel (sha256_reference, tests/support/), pins the dispatched
// kernels (SHA-NI / ARMv8 SHA2 where the CPU has them) to the generic ones
// by name, then runs full updates at the edge sizes end to end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256x4.hpp"
#include "support/oracles.hpp"
#include "test_env.hpp"

namespace upkit::core {
namespace {

using crypto::Sha256;
using crypto::Sha256Digest;
using testenv::kAppId;
using testenv::TestEnv;

// Sizes that straddle every SHA-256 tail-block boundary (55/56 flips the
// one-vs-two padding blocks, 63/64/65 the block edge) plus the simulated
// flash sector edges the bootloader streams at.
constexpr std::size_t kEdgeSizes[] = {0,  1,  55,   56,   63,   64,
                                      65, 127, 4095, 4096, 4097};

Bytes patterned(std::size_t size) {
    Bytes data(size);
    for (std::size_t i = 0; i < size; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 131 + 17);
    }
    return data;
}

TEST(DigestAgreementTest, OneShotMatchesReferenceOnTailEdges) {
    for (const std::size_t size : kEdgeSizes) {
        const Bytes data = patterned(size);
        EXPECT_EQ(Sha256::digest(data), crypto::sha256_reference(data)) << size;
    }
}

TEST(DigestAgreementTest, StreamedChunkingsMatchReference) {
    // Every chunk shape the repo actually uses: byte-at-a-time (worst-case
    // buffering), sub-block odd sizes, exactly one block, the pipeline /
    // bootloader sector size, and mixed splits that leave partial buffers
    // before the multi-block fast path kicks in.
    constexpr std::size_t kChunks[] = {1, 7, 37, 64, 100, 4096};
    for (const std::size_t size : kEdgeSizes) {
        const Bytes data = patterned(size);
        const Sha256Digest expected = crypto::sha256_reference(data);
        for (const std::size_t chunk : kChunks) {
            Sha256 hasher;
            for (std::size_t off = 0; off < data.size(); off += chunk) {
                const std::size_t take = std::min(chunk, data.size() - off);
                hasher.update(ByteSpan(data.data() + off, take));
            }
            EXPECT_EQ(hasher.finalize(), expected) << size << "/" << chunk;
        }
    }
}

TEST(DigestAgreementTest, Sha256x4MatchesReferenceOnRaggedLanes) {
    // Every lane count 1–4 over ragged length mixes built from the edge
    // sizes: lane i gets a different length and pattern, so a transposed
    // load, a lane-straggler handoff, or a padding bug in any lane shows as
    // a mismatch against the rolled reference.
    for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
        for (const std::size_t base : kEdgeSizes) {
            Bytes bufs[4];
            ByteSpan spans[4];
            crypto::Sha256Digest expected[4];
            for (std::size_t i = 0; i < lanes; ++i) {
                // Lengths straddle block boundaries differently per lane
                // (base, base+1, base+63, 2*base+9) and stay within 0..4097*2.
                const std::size_t len = i == 0 ? base
                                      : i == 1 ? base + 1
                                      : i == 2 ? base + 63
                                               : 2 * base + 9;
                bufs[i] = patterned(len);
                // Distinct per-lane content: shift the pattern so equal
                // lengths still digest different bytes.
                for (auto& byte : bufs[i]) byte = static_cast<std::uint8_t>(byte + 31 * i);
                spans[i] = ByteSpan(bufs[i]);
                expected[i] = crypto::sha256_reference(bufs[i]);
            }
            crypto::Sha256Digest out[4];
            crypto::sha256x4_digest(spans, out, lanes);
            for (std::size_t i = 0; i < lanes; ++i) {
                EXPECT_EQ(out[i], expected[i]) << "lanes " << lanes << " base "
                                               << base << " lane " << i;
            }
        }
    }
}

TEST(DigestAgreementTest, Sha256x4ForcedGenericMatchesDispatchedPath) {
    // The generic SWAR lanes, called by name, and the dispatched entry
    // (hardware lanes in turn on a host with SHA extensions) must give
    // byte-identical digests. The override is read once, when the kernel
    // is chosen: under CI's UPKIT_FORCE_SCALAR_SHA=1 rerun the process
    // must have chosen the generic kernel.
    const char* forced = std::getenv("UPKIT_FORCE_SCALAR_SHA");
    if (forced != nullptr && std::string_view(forced) == "1") {
        EXPECT_EQ(crypto::sha256_impl(), crypto::Sha256Impl::kGeneric);
    }
    Bytes bufs[4] = {patterned(4097), patterned(256), patterned(0), patterned(65)};
    ByteSpan spans[4];
    for (std::size_t i = 0; i < 4; ++i) spans[i] = ByteSpan(bufs[i]);

    for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
        crypto::Sha256Digest dispatched[4];
        crypto::sha256x4_digest(spans, dispatched, lanes);
        crypto::Sha256Digest generic[4];
        crypto::sha256x4_digest_generic(spans, generic, lanes);
        for (std::size_t i = 0; i < lanes; ++i) {
            EXPECT_EQ(dispatched[i], generic[i]) << "lanes " << lanes << " lane " << i;
            EXPECT_EQ(dispatched[i], crypto::sha256_reference(bufs[i])) << "lane " << i;
        }
    }
}

TEST(DigestAgreementTest, DispatchedCompressMatchesGenericOnBlockRuns) {
    // sha256_compress runs the kernel the process chose (SHA-NI, ARMv8 SHA2
    // or generic); sha256_compress_generic is always the portable one. Runs
    // of 0..kMaxBlocks blocks from several starting states, at an aligned
    // and an unaligned address, must leave the same state both ways, and
    // one multi-block run must equal the same blocks fed one at a time.
    constexpr std::size_t kMaxBlocks = 9;
    const Bytes data = patterned(kMaxBlocks * crypto::kSha256BlockSize + 1);
    using State = std::array<std::uint32_t, 8>;
    std::vector<State> starts = {crypto::kSha256Init, State{}};
    starts.push_back(State{});
    starts.back().fill(0xFFFFFFFFu);
    Rng rng(0x5A256);
    for (int k = 0; k < 3; ++k) {
        State s;
        for (auto& word : s) word = rng.next_u32();
        starts.push_back(s);
    }
    for (std::size_t start = 0; start < starts.size(); ++start) {
        for (const std::size_t shift : {std::size_t{0}, std::size_t{1}}) {
            const std::uint8_t* const blocks = data.data() + shift;
            for (std::size_t n = 0; n <= kMaxBlocks; ++n) {
                State dispatched = starts[start];
                State generic = starts[start];
                State stepped = starts[start];
                crypto::sha256_compress(dispatched, blocks, n);
                crypto::sha256_compress_generic(generic, blocks, n);
                for (std::size_t b = 0; b < n; ++b) {
                    crypto::sha256_compress(stepped, blocks + b * crypto::kSha256BlockSize, 1);
                }
                EXPECT_EQ(dispatched, generic) << "start " << start << " shift " << shift
                                               << " blocks " << n;
                EXPECT_EQ(stepped, generic) << "start " << start << " shift " << shift
                                            << " blocks " << n;
            }
        }
    }
}

TEST(DigestAgreementTest, Sha256MultiMatchesReferenceOnManyBuffers) {
    // A non-multiple-of-four batch (13 buffers) through the any-count
    // entry: full quads plus a 1-lane remainder group.
    constexpr std::size_t kCount = 13;
    std::vector<Bytes> bufs(kCount);
    std::vector<ByteSpan> spans(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        bufs[i] = patterned(i * 97 + (i % 3));
        spans[i] = ByteSpan(bufs[i]);
    }
    std::vector<crypto::Sha256Digest> out(kCount);
    crypto::sha256_multi(spans.data(), out.data(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(out[i], crypto::sha256_reference(bufs[i])) << i;
    }
}

TEST(DigestAgreementTest, AgentPipelineAndBootloaderAgreeOnEdgeSizes) {
    // Full update at each edge size: the server digests the image one-shot
    // when signing the manifest, the agent re-digests it chunk-streamed
    // through the pipeline (early rejection), and the bootloader re-digests
    // it sector-streamed from flash after reboot. The update only reaches
    // kOk if all three digests agree. Size 0 is excluded: an empty image is
    // (correctly) rejected as kBadManifest long before any digest runs.
    for (const std::size_t size : kEdgeSizes) {
        if (size == 0) continue;
        TestEnv env(size);
        DeviceConfig config = env.device_config(SlotLayout::kAB);
        config.enable_differential = false;  // force a full-image transfer
        auto device = std::make_unique<Device>(config);
        const manifest::DeviceToken factory_token{
            .device_id = testenv::kDeviceId, .nonce = 0, .current_version = 0};
        auto image = env.server.prepare_update(kAppId, factory_token);
        ASSERT_TRUE(image.has_value()) << size;
        ASSERT_EQ(device->provision_factory(*image), Status::kOk) << size;

        env.publish(2, sim::generate_firmware({.size = size, .seed = 43}));
        UpdateSession session(*device, env.server, net::ble_gatt());
        const SessionReport report = session.run(kAppId);
        EXPECT_EQ(report.status, Status::kOk) << "size " << size;
        EXPECT_EQ(report.final_version, 2) << "size " << size;
        EXPECT_TRUE(report.rebooted) << "size " << size;
    }
}

}  // namespace
}  // namespace upkit::core
