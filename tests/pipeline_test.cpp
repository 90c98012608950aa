// Pipeline tests: stage composition, buffer flush behavior, digest
// correctness over full and differential flows, flash-write batching.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "compress/lzss.hpp"
#include "diff/bsdiff.hpp"
#include "flash/sim_flash.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/firmware.hpp"

namespace upkit::pipeline {
namespace {

using flash::FlashGeometry;
using flash::FlashTimings;
using flash::SimFlash;

// Two 128 KiB slots with the swap journal's three sectors above them.
class PipelineFixture : public ::testing::Test {
protected:
    PipelineFixture()
        : device_(FlashGeometry{.size_bytes = 256 * 1024 + slots::SwapJournal::kSectorCount * 4096,
                                .sector_bytes = 4096,
                                .page_bytes = 256},
                  FlashTimings{}),
          journal_(device_, 256 * 1024),
          manager_(journal_) {
        EXPECT_EQ(manager_.add_slot({.id = 0,
                                     .type = slots::SlotType::kBootable,
                                     .device = &device_,
                                     .offset = 0,
                                     .size = 128 * 1024,
                                     .link_offset = slots::kAnyLinkOffset}),
                  Status::kOk);
        EXPECT_EQ(manager_.add_slot({.id = 1,
                                     .type = slots::SlotType::kBootable,
                                     .device = &device_,
                                     .offset = 128 * 1024,
                                     .size = 128 * 1024,
                                     .link_offset = slots::kAnyLinkOffset}),
                  Status::kOk);
    }

    Bytes slot_content(std::uint32_t id, std::size_t len) {
        auto h = manager_.open(id, slots::OpenMode::kReadOnly);
        EXPECT_TRUE(h.has_value());
        Bytes out(len);
        EXPECT_TRUE(h->read(MutByteSpan(out)).has_value());
        return out;
    }

    SimFlash device_;
    slots::SwapJournal journal_;
    slots::SlotManager manager_;
};

TEST_F(PipelineFixture, FullImagePassThrough) {
    const Bytes fw = sim::generate_firmware({.size = 20 * 1024, .seed = 1});
    auto handle = manager_.open(1, slots::OpenMode::kWriteAll);
    ASSERT_TRUE(handle.has_value());

    Pipeline pipe({.differential = false, .buffer_size = 4096}, *handle, nullptr);
    for (std::size_t off = 0; off < fw.size(); off += 244) {
        const std::size_t len = std::min<std::size_t>(244, fw.size() - off);
        ASSERT_EQ(pipe.write(ByteSpan(fw).subspan(off, len)), Status::kOk);
    }
    ASSERT_EQ(pipe.finish(), Status::kOk);
    handle->close();

    EXPECT_EQ(pipe.firmware_bytes(), fw.size());
    EXPECT_EQ(pipe.firmware_digest(), crypto::Sha256::digest(fw));
    EXPECT_EQ(slot_content(1, fw.size()), fw);
}

TEST_F(PipelineFixture, BufferBatchesFlashWrites) {
    const Bytes fw = sim::generate_firmware({.size = 16 * 1024, .seed = 2});
    auto handle = manager_.open(1, slots::OpenMode::kWriteAll);
    ASSERT_TRUE(handle.has_value());

    Pipeline pipe({.differential = false, .buffer_size = 4096}, *handle, nullptr);
    // Feed in tiny chunks; the buffer stage must still emit 4 KiB writes.
    for (std::size_t off = 0; off < fw.size(); off += 17) {
        const std::size_t len = std::min<std::size_t>(17, fw.size() - off);
        ASSERT_EQ(pipe.write(ByteSpan(fw).subspan(off, len)), Status::kOk);
    }
    ASSERT_EQ(pipe.finish(), Status::kOk);
    EXPECT_EQ(pipe.flash_chunks_written(), 16u * 1024 / 4096);
}

TEST_F(PipelineFixture, SmallBufferMeansMoreWrites) {
    const Bytes fw = sim::generate_firmware({.size = 16 * 1024, .seed = 3});
    std::uint64_t chunks_small = 0;
    std::uint64_t chunks_large = 0;
    for (const std::size_t buffer : {std::size_t{256}, std::size_t{4096}}) {
        auto handle = manager_.open(1, slots::OpenMode::kWriteAll);
        ASSERT_TRUE(handle.has_value());
        Pipeline pipe({.differential = false, .buffer_size = buffer}, *handle, nullptr);
        ASSERT_EQ(pipe.write(fw), Status::kOk);
        ASSERT_EQ(pipe.finish(), Status::kOk);
        (buffer == 256 ? chunks_small : chunks_large) = pipe.flash_chunks_written();
        handle->close();
    }
    EXPECT_EQ(chunks_small, 16u * chunks_large);
}

TEST_F(PipelineFixture, DifferentialReconstructsNewFirmware) {
    const Bytes v1 = sim::generate_firmware({.size = 40 * 1024, .seed = 4});
    const Bytes v2 = sim::mutate_os_version(v1, 5);

    // Install v1 in slot 0 (as raw firmware, no manifest for this test).
    {
        auto h = manager_.open(0, slots::OpenMode::kWriteAll);
        ASSERT_EQ(h->write(v1), Status::kOk);
    }

    auto patch = diff::bsdiff(v1, v2);
    ASSERT_TRUE(patch.has_value());
    auto payload = compress::lzss_compress(*patch);
    ASSERT_TRUE(payload.has_value());

    auto handle = manager_.open(1, slots::OpenMode::kWriteAll);
    ASSERT_TRUE(handle.has_value());
    slots::SlotReader old_firmware(manager_, 0, 0, v1.size());
    Pipeline pipe({.differential = true, .buffer_size = 4096}, *handle, &old_firmware);

    for (std::size_t off = 0; off < payload->size(); off += 64) {  // CoAP blocks
        const std::size_t len = std::min<std::size_t>(64, payload->size() - off);
        ASSERT_EQ(pipe.write(ByteSpan(*payload).subspan(off, len)), Status::kOk);
    }
    ASSERT_EQ(pipe.finish(), Status::kOk);
    handle->close();

    EXPECT_EQ(pipe.firmware_bytes(), v2.size());
    EXPECT_EQ(pipe.firmware_digest(), crypto::Sha256::digest(v2));
    EXPECT_EQ(slot_content(1, v2.size()), v2);
}

TEST_F(PipelineFixture, DifferentialRamIncludesDecoderWindow) {
    auto handle = manager_.open(1, slots::OpenMode::kWriteAll);
    ASSERT_TRUE(handle.has_value());
    const Bytes v1(1024, 0x11);
    slots::SlotReader old_firmware(manager_, 0, 0, v1.size());

    Pipeline full({.differential = false, .buffer_size = 4096}, *handle, nullptr);
    EXPECT_EQ(full.ram_usage(), 4096u);

    Pipeline diff_pipe({.differential = true, .buffer_size = 4096}, *handle, &old_firmware);
    // Window RAM is allocated lazily from the stream header; before any
    // input only the buffer counts.
    auto patch = diff::bsdiff(v1, v1);
    ASSERT_TRUE(patch.has_value());
    auto payload = compress::lzss_compress(*patch);
    ASSERT_TRUE(payload.has_value());
    ASSERT_EQ(diff_pipe.write(*payload), Status::kOk);
    ASSERT_EQ(diff_pipe.finish(), Status::kOk);
    EXPECT_EQ(diff_pipe.ram_usage(), 4096u + 2048u);  // default 2^11 window
}

TEST_F(PipelineFixture, CorruptPayloadSurfacesError) {
    const Bytes v1 = sim::generate_firmware({.size = 8 * 1024, .seed = 6});
    {
        auto h = manager_.open(0, slots::OpenMode::kWriteAll);
        ASSERT_EQ(h->write(v1), Status::kOk);
    }
    auto patch = diff::bsdiff(v1, sim::mutate_app_change(v1, 7, 100));
    ASSERT_TRUE(patch.has_value());
    auto payload = compress::lzss_compress(*patch);
    ASSERT_TRUE(payload.has_value());
    (*payload)[10] ^= 0xFF;  // corrupt the compressed stream

    auto handle = manager_.open(1, slots::OpenMode::kWriteAll);
    slots::SlotReader old_firmware(manager_, 0, 0, v1.size());
    Pipeline pipe({.differential = true, .buffer_size = 4096}, *handle, &old_firmware);
    Status status = pipe.write(*payload);
    if (status == Status::kOk) status = pipe.finish();
    EXPECT_NE(status, Status::kOk);
}

TEST_F(PipelineFixture, OverflowingSlotFails) {
    auto handle = manager_.open(1, slots::OpenMode::kWriteAll);
    ASSERT_TRUE(handle.has_value());
    Pipeline pipe({.differential = false, .buffer_size = 4096}, *handle, nullptr);
    const Bytes big(128 * 1024 + 4096, 0xAB);
    Status status = Status::kOk;
    for (std::size_t off = 0; off < big.size() && status == Status::kOk; off += 4096) {
        status = pipe.write(ByteSpan(big).subspan(off, 4096));
    }
    EXPECT_EQ(status, Status::kSlotTooSmall);
}

}  // namespace
}  // namespace upkit::pipeline
