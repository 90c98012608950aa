// Flash-device semantics: erase-before-write bit rules, bounds, timing and
// energy charging, wear accounting, power-loss injection, file backing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "flash/file_flash.hpp"
#include "flash/sim_flash.hpp"
#include "sim/platform.hpp"

namespace upkit::flash {
namespace {

FlashGeometry small_geometry() {
    return FlashGeometry{.size_bytes = 64 * 1024, .sector_bytes = 4096, .page_bytes = 256};
}

FlashTimings fast_timings() {
    return FlashTimings{.erase_sector_s = 0.01, .write_page_s = 0.001, .read_bandwidth_bps = 1e7};
}

TEST(FlashGeometryTest, Validation) {
    EXPECT_TRUE(small_geometry().valid());
    EXPECT_FALSE((FlashGeometry{.size_bytes = 0, .sector_bytes = 4096, .page_bytes = 256}.valid()));
    EXPECT_FALSE((FlashGeometry{.size_bytes = 5000, .sector_bytes = 4096, .page_bytes = 256}.valid()));
    EXPECT_FALSE((FlashGeometry{.size_bytes = 8192, .sector_bytes = 4096, .page_bytes = 300}.valid()));
}

TEST(SimFlashTest, FreshDeviceReadsErased) {
    SimFlash dev(small_geometry(), fast_timings());
    Bytes out(16);
    ASSERT_EQ(dev.read(0, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out, Bytes(16, 0xFF));
}

TEST(SimFlashTest, WriteThenReadBack) {
    SimFlash dev(small_geometry(), fast_timings());
    Rng rng(1);
    const Bytes data = rng.bytes(100);
    ASSERT_EQ(dev.write(512, data), Status::kOk);
    Bytes out(100);
    ASSERT_EQ(dev.read(512, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out, data);
}

TEST(SimFlashTest, RewriteWithoutEraseRejected) {
    SimFlash dev(small_geometry(), fast_timings());
    ASSERT_EQ(dev.write(0, Bytes{0x00}), Status::kOk);  // all bits cleared
    EXPECT_EQ(dev.write(0, Bytes{0x01}), Status::kFlashEraseRequired);
}

TEST(SimFlashTest, RejectedWriteProgramsExactlyThePrefix) {
    // Programming runs a word (8 bytes) at a time and drops to bytes at the
    // first word with a 0 -> 1 violation. A 17-byte write whose violation
    // sits at byte 5 (inside the first word) or byte 13 (inside the second,
    // after a clean word) programs exactly the bytes before it and leaves
    // the violating byte and everything after untouched, at an aligned and
    // an unaligned start.
    for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{4096 + 3}}) {
        for (const std::size_t bad : {std::size_t{5}, std::size_t{13}}) {
            SimFlash dev(small_geometry(), fast_timings());
            ASSERT_EQ(dev.write(base + bad, Bytes{0x0F}), Status::kOk);
            Bytes data(17);
            for (std::size_t i = 0; i < data.size(); ++i) {
                data[i] = static_cast<std::uint8_t>(0x40 + i);  // bit 6 set: 0x0F rejects it
            }
            EXPECT_EQ(dev.write(base, data), Status::kFlashEraseRequired) << base << "/" << bad;
            const ByteSpan after = dev.raw().subspan(base, data.size());
            EXPECT_EQ(Bytes(after.begin(), after.begin() + bad),
                      Bytes(data.begin(), data.begin() + bad))
                << base << "/" << bad;
            EXPECT_EQ(after[bad], 0x0F) << base << "/" << bad;
            EXPECT_EQ(Bytes(after.begin() + bad + 1, after.end()),
                      Bytes(data.size() - bad - 1, 0xFF))
                << base << "/" << bad;
            // A rejected write is not counted.
            EXPECT_EQ(dev.total_writes(), 1u);
            EXPECT_EQ(dev.bytes_written(), 1u);
        }
    }
}

TEST(SimFlashTest, ClearingMoreBitsIsAllowed) {
    // 1->0 transitions without erase are how real flash behaves.
    SimFlash dev(small_geometry(), fast_timings());
    const Bytes first = {0xF0};
    const Bytes second = {0x30};  // only clears bits still set
    ASSERT_EQ(dev.write(0, first), Status::kOk);
    EXPECT_EQ(dev.write(0, second), Status::kOk);
    Bytes out(1);
    ASSERT_EQ(dev.read(0, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out[0], 0x30);
}

TEST(SimFlashTest, EraseRestoresSector) {
    SimFlash dev(small_geometry(), fast_timings());
    ASSERT_EQ(dev.write(100, Bytes(10, 0x00)), Status::kOk);
    ASSERT_EQ(dev.erase_sector(0), Status::kOk);
    Bytes out(10);
    ASSERT_EQ(dev.read(100, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out, Bytes(10, 0xFF));
    ASSERT_EQ(dev.write(100, Bytes(10, 0x5A)), Status::kOk);
}

TEST(SimFlashTest, OutOfBoundsRejected) {
    SimFlash dev(small_geometry(), fast_timings());
    Bytes buf(16);
    EXPECT_EQ(dev.read(64 * 1024 - 8, MutByteSpan(buf)), Status::kFlashOutOfBounds);
    EXPECT_EQ(dev.write(64 * 1024 - 8, Bytes(16, 0)), Status::kFlashOutOfBounds);
    EXPECT_EQ(dev.erase_sector(16), Status::kFlashOutOfBounds);
}

TEST(SimFlashTest, EraseRangeCoversPartialSectors) {
    SimFlash dev(small_geometry(), fast_timings());
    ASSERT_EQ(dev.write(4096, Bytes(4096, 0x00)), Status::kOk);
    ASSERT_EQ(dev.write(8192, Bytes(16, 0x00)), Status::kOk);
    // Range [4096, 4096+5000) touches sectors 1 and 2.
    ASSERT_EQ(dev.erase_range(4096, 5000), Status::kOk);
    Bytes out(16);
    ASSERT_EQ(dev.read(8192, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out, Bytes(16, 0xFF));
    EXPECT_EQ(dev.erase_range(100, 10), Status::kInvalidArgument);  // unaligned
}

TEST(SimFlashTest, WearCountersTrackErases) {
    SimFlash dev(small_geometry(), fast_timings());
    for (int i = 0; i < 5; ++i) ASSERT_EQ(dev.erase_sector(3), Status::kOk);
    ASSERT_EQ(dev.erase_sector(4), Status::kOk);
    EXPECT_EQ(dev.erase_count(3), 5u);
    EXPECT_EQ(dev.erase_count(4), 1u);
    EXPECT_EQ(dev.erase_count(0), 0u);
    EXPECT_EQ(dev.total_erases(), 6u);
}

TEST(SimFlashTest, ChargesClockAndEnergy) {
    SimFlash dev(small_geometry(), fast_timings());
    sim::VirtualClock clock;
    sim::EnergyMeter meter(sim::nrf52840());
    dev.attach(&clock, &meter);

    ASSERT_EQ(dev.erase_sector(0), Status::kOk);
    EXPECT_DOUBLE_EQ(clock.now(), 0.01);
    // 512 bytes = 2 pages of 256.
    ASSERT_EQ(dev.write(0, Bytes(512, 0x00)), Status::kOk);
    EXPECT_DOUBLE_EQ(clock.now(), 0.01 + 2 * 0.001);
    EXPECT_GT(meter.millijoules(sim::Component::kFlash), 0.0);
}

TEST(SimFlashTest, PowerLossKillsDeviceUntilRevive) {
    SimFlash dev(small_geometry(), fast_timings());
    dev.schedule_power_loss(2);  // two ops succeed, third is cut
    ASSERT_EQ(dev.erase_sector(0), Status::kOk);
    ASSERT_EQ(dev.write(0, Bytes(8, 0xA0)), Status::kOk);
    EXPECT_EQ(dev.write(8, Bytes(8, 0xB0)), Status::kFlashPowerLoss);

    Bytes buf(8);
    EXPECT_EQ(dev.read(0, MutByteSpan(buf)), Status::kFlashPowerLoss);  // dead
    dev.revive();
    EXPECT_EQ(dev.read(0, MutByteSpan(buf)), Status::kOk);
}

TEST(SimFlashTest, PowerLossLeavesPartialWrite) {
    SimFlash dev(small_geometry(), fast_timings());
    dev.schedule_power_loss(0);
    EXPECT_EQ(dev.write(0, Bytes(8, 0x00)), Status::kFlashPowerLoss);
    dev.revive();
    Bytes buf(8);
    ASSERT_EQ(dev.read(0, MutByteSpan(buf)), Status::kOk);
    // First half programmed; the unreached tail is NOT guaranteed clean —
    // real NOR cells mid-program read back as garbage, so the only safe
    // assertion is that previously-set bits may have dropped (never risen).
    EXPECT_EQ(Bytes(buf.begin(), buf.begin() + 4), Bytes(4, 0x00));
}

TEST(SimFlashTest, PowerLossDuringEraseLeavesMixedSector) {
    SimFlash dev(small_geometry(), fast_timings());
    ASSERT_EQ(dev.write(0, Bytes(4096, 0x00)), Status::kOk);
    dev.schedule_power_loss(0);
    EXPECT_EQ(dev.erase_sector(0), Status::kFlashPowerLoss);
    dev.revive();
    Bytes buf(4096);
    ASSERT_EQ(dev.read(0, MutByteSpan(buf)), Status::kOk);
    // Erased prefix; a garbage window where the cut landed; untouched tail.
    EXPECT_EQ(Bytes(buf.begin(), buf.begin() + 2048), Bytes(2048, 0xFF));
    EXPECT_EQ(Bytes(buf.end() - 1024, buf.end()), Bytes(1024, 0x00));
    // The mixed region must not read as cleanly erased OR cleanly old.
    const Bytes window(buf.begin() + 2048, buf.begin() + 2048 + 256);
    EXPECT_NE(window, Bytes(window.size(), 0xFF));
    EXPECT_NE(window, Bytes(window.size(), 0x00));
}

TEST(SimFlashTest, PowerLossPlanSurvivesRevive) {
    SimFlash dev(small_geometry(), fast_timings());
    // First cut after 1 op, second cut immediately after the post-cut revive.
    dev.schedule_power_loss_range({1, 0});
    ASSERT_EQ(dev.erase_sector(0), Status::kOk);
    EXPECT_EQ(dev.erase_sector(1), Status::kFlashPowerLoss);
    EXPECT_EQ(dev.power_cuts(), 1u);
    dev.revive();  // arms the second entry
    EXPECT_EQ(dev.erase_sector(2), Status::kFlashPowerLoss);
    EXPECT_EQ(dev.power_cuts(), 2u);
    dev.revive();  // plan exhausted: device now runs unbounded
    ASSERT_EQ(dev.erase_sector(3), Status::kOk);
    ASSERT_EQ(dev.erase_sector(4), Status::kOk);
}

TEST(SimFlashTest, PowerLossPlanCountsAcrossNormalRevive) {
    // A revive() without a preceding cut (a normal reboot) must NOT skip to
    // the next plan entry: the countdown keeps running so a sweep index can
    // reach ops performed after an ordinary reboot.
    SimFlash dev(small_geometry(), fast_timings());
    dev.schedule_power_loss_range({2});
    ASSERT_EQ(dev.erase_sector(0), Status::kOk);
    dev.revive();  // normal reboot, no cut happened
    ASSERT_EQ(dev.erase_sector(1), Status::kOk);
    EXPECT_EQ(dev.erase_sector(2), Status::kFlashPowerLoss);
    EXPECT_EQ(dev.power_cuts(), 1u);
}

TEST(SimFlashTest, DisarmPowerLossClearsPlan) {
    SimFlash dev(small_geometry(), fast_timings());
    dev.schedule_power_loss_range({0, 0});
    EXPECT_EQ(dev.erase_sector(0), Status::kFlashPowerLoss);
    dev.revive();
    dev.disarm_power_loss();
    ASSERT_EQ(dev.erase_sector(1), Status::kOk);
    EXPECT_EQ(dev.power_cuts(), 1u);
}

TEST(FileFlashTest, PersistsAcrossReopen) {
    const std::string path = std::filesystem::temp_directory_path() / "upkit_fileflash.bin";
    std::filesystem::remove(path);
    {
        auto dev = FileFlash::open(path, small_geometry());
        ASSERT_TRUE(dev.has_value());
        ASSERT_EQ(dev->write(1000, to_bytes("persisted")), Status::kOk);
    }
    {
        auto dev = FileFlash::open(path, small_geometry());
        ASSERT_TRUE(dev.has_value());
        Bytes out(9);
        ASSERT_EQ(dev->read(1000, MutByteSpan(out)), Status::kOk);
        EXPECT_EQ(to_string(out), "persisted");
    }
    std::filesystem::remove(path);
}

TEST(FileFlashTest, ShorterFileReadsErasedBeyondItsEnd) {
    // An image file written for a smaller layout keeps its bytes; the rest
    // of the larger geometry reads as erased and the file grows to fit.
    const std::string path = std::filesystem::temp_directory_path() / "upkit_fileflash3.bin";
    std::filesystem::remove(path);
    {
        auto dev = FileFlash::open(
            path, FlashGeometry{.size_bytes = 8192, .sector_bytes = 4096, .page_bytes = 256});
        ASSERT_TRUE(dev.has_value());
        ASSERT_EQ(dev->write(8190, Bytes{0x12, 0x34}), Status::kOk);
    }
    auto dev = FileFlash::open(path, small_geometry());
    ASSERT_TRUE(dev.has_value());
    Bytes out(4);
    ASSERT_EQ(dev->read(8190, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out, (Bytes{0x12, 0x34, 0xFF, 0xFF}));
    EXPECT_EQ(std::filesystem::file_size(path), small_geometry().size_bytes);
    std::filesystem::remove(path);
}

TEST(FileFlashTest, EnforcesEraseBeforeWrite) {
    const std::string path = std::filesystem::temp_directory_path() / "upkit_fileflash2.bin";
    std::filesystem::remove(path);
    auto dev = FileFlash::open(path, small_geometry());
    ASSERT_TRUE(dev.has_value());
    ASSERT_EQ(dev->write(0, Bytes{0x00}), Status::kOk);
    EXPECT_EQ(dev->write(0, Bytes{0x01}), Status::kFlashEraseRequired);
    ASSERT_EQ(dev->erase_sector(0), Status::kOk);
    EXPECT_EQ(dev->write(0, Bytes{0x01}), Status::kOk);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace upkit::flash
