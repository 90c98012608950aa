// Flash-device semantics: erase-before-write bit rules, bounds, timing and
// energy charging, wear accounting, power-loss injection, file backing, and
// the sparse, sector-shared SimFlash pinned against the dense reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.hpp"
#include "flash/file_flash.hpp"
#include "flash/sim_flash.hpp"
#include "sim/platform.hpp"
#include "support/oracles.hpp"

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
            Bytes after(data.size());
            ASSERT_EQ(dev.read(base, MutByteSpan(after)), Status::kOk);
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

// An offset near 2^64 makes offset + length wrap past zero; every bounds
// check must reject it without touching a byte.
constexpr std::uint64_t kWrapOffset = ~std::uint64_t{0} - 3;  // 2^64 - 4

TEST(SimFlashTest, ReadAtWrappingOffsetRejected) {
    SimFlash dev(small_geometry(), fast_timings());
    Bytes out(8, 0x5A);
    EXPECT_EQ(dev.read(kWrapOffset, MutByteSpan(out)), Status::kFlashOutOfBounds);
    EXPECT_EQ(out, Bytes(8, 0x5A));
}

TEST(SimFlashTest, WriteAtWrappingOffsetRejected) {
    SimFlash dev(small_geometry(), fast_timings());
    EXPECT_EQ(dev.write(kWrapOffset, Bytes(8, 0x00)), Status::kFlashOutOfBounds);
    EXPECT_EQ(dev.total_writes(), 0u);
    EXPECT_EQ(dev.resident_bytes(), 0u);
    Bytes all(small_geometry().size_bytes);
    ASSERT_EQ(dev.read(0, MutByteSpan(all)), Status::kOk);
    EXPECT_EQ(all, Bytes(all.size(), 0xFF));
}

TEST(SimFlashTest, EraseRangeWrappingLengthRejected) {
    SimFlash dev(small_geometry(), fast_timings());
    ASSERT_EQ(dev.write(4096, Bytes(4096, 0x00)), Status::kOk);
    EXPECT_EQ(dev.erase_range(4096, ~std::uint64_t{0} - 99), Status::kFlashOutOfBounds);
    EXPECT_EQ(dev.total_erases(), 0u);
    Bytes out(4096);
    ASSERT_EQ(dev.read(4096, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out, Bytes(4096, 0x00));
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

TEST(SimFlashTest, ResidentBytesCountOnlyPrivatelyHeldSectors) {
    const sim::PlatformProfile& p = sim::nrf52840();
    SimFlash dev(FlashGeometry{.size_bytes = p.internal_flash_bytes,
                               .sector_bytes = static_cast<std::uint32_t>(p.flash_sector_bytes),
                               .page_bytes = static_cast<std::uint32_t>(p.flash_page_bytes)},
                 fast_timings());
    EXPECT_EQ(dev.resident_bytes(), 0u);
    Bytes all(p.internal_flash_bytes);
    ASSERT_EQ(dev.read(0, MutByteSpan(all)), Status::kOk);  // reading allocates nothing
    EXPECT_EQ(dev.resident_bytes(), 0u);

    ASSERT_EQ(dev.write(4096 + 7, Bytes{0x00}), Status::kOk);
    EXPECT_EQ(dev.resident_bytes(), 4096u);
    ASSERT_EQ(dev.erase_sector(1), Status::kOk);
    EXPECT_EQ(dev.resident_bytes(), 0u);

    // A torn erase of an erased sector leaves garbage behind: it holds bytes.
    dev.schedule_power_loss(0);
    EXPECT_EQ(dev.erase_sector(5), Status::kFlashPowerLoss);
    EXPECT_EQ(dev.resident_bytes(), 4096u);
}

// --- the sparse SimFlash against the dense reference ---------------------

FlashGeometry diff_geometry() {
    return FlashGeometry{.size_bytes = 16 * 1024, .sector_bytes = 1024, .page_bytes = 256};
}

/// Compares what a sparse device and its dense reference expose: counters,
/// per-sector wear, liveness and, while powered, every byte.
void expect_same(SimFlash& sparse, DenseSimFlash& dense, const std::string& where) {
    ASSERT_EQ(sparse.dead(), dense.dead()) << where;
    EXPECT_EQ(sparse.total_writes(), dense.total_writes()) << where;
    EXPECT_EQ(sparse.total_erases(), dense.total_erases()) << where;
    EXPECT_EQ(sparse.bytes_written(), dense.bytes_written()) << where;
    EXPECT_EQ(sparse.power_cuts(), dense.power_cuts()) << where;
    for (std::uint64_t s = 0; s <= sparse.geometry().sector_count(); ++s) {
        EXPECT_EQ(sparse.erase_count(s), dense.erase_count(s)) << where << " sector " << s;
    }
    if (sparse.dead()) return;
    Bytes got(sparse.geometry().size_bytes);
    Bytes want(dense.geometry().size_bytes);
    ASSERT_EQ(sparse.read(0, MutByteSpan(got)), Status::kOk) << where;
    ASSERT_EQ(dense.read(0, MutByteSpan(want)), Status::kOk) << where;
    ASSERT_EQ(got, want) << where;
}

/// Applies one seeded random operation to both devices and expects the same
/// status (and, for reads, the same bytes). Offsets and lengths cross sector
/// boundaries and sometimes run past the end; half the writes clear only
/// bits still set (they succeed), the rest carry random bytes (over
/// programmed cells they are rejected after programming a prefix).
void random_op(Rng& rng, SimFlash& sparse, DenseSimFlash& dense, std::string& where) {
    const FlashGeometry& geo = sparse.geometry();
    const std::uint64_t sector = geo.sector_bytes;
    const std::uint64_t op = rng.below(100);
    if (op < 20) {
        const std::uint64_t offset = rng.below(geo.size_bytes + 64);
        Bytes got(rng.below(3 * sector), 0x11);
        Bytes want(got);
        where = "read " + std::to_string(offset) + "+" + std::to_string(got.size());
        ASSERT_EQ(sparse.read(offset, MutByteSpan(got)), dense.read(offset, MutByteSpan(want)))
            << where;
        ASSERT_EQ(got, want) << where;
    } else if (op < 60) {
        const std::uint64_t offset = rng.below(geo.size_bytes + 64);
        Bytes data = rng.bytes(rng.below(2 * sector + 40));
        if (rng.chance(0.5) && !dense.dead() && offset <= geo.size_bytes &&
            data.size() <= geo.size_bytes - offset) {
            Bytes current(data.size());
            ASSERT_EQ(dense.read(offset, MutByteSpan(current)), Status::kOk);
            for (std::size_t i = 0; i < data.size(); ++i) data[i] &= current[i];
        }
        where = "write " + std::to_string(offset) + "+" + std::to_string(data.size());
        ASSERT_EQ(sparse.write(offset, data), dense.write(offset, data)) << where;
    } else if (op < 75) {
        const std::uint64_t s = rng.below(geo.sector_count() + 1);
        where = "erase_sector " + std::to_string(s);
        ASSERT_EQ(sparse.erase_sector(s), dense.erase_sector(s)) << where;
    } else if (op < 82) {
        const std::uint64_t offset =
            rng.chance(0.9) ? rng.below(geo.sector_count() + 1) * sector : rng.below(geo.size_bytes);
        const std::uint64_t length = rng.below(4 * sector);
        where = "erase_range " + std::to_string(offset) + "+" + std::to_string(length);
        ASSERT_EQ(sparse.erase_range(offset, length), dense.erase_range(offset, length)) << where;
    } else if (op < 88) {
        const std::uint64_t ops = rng.below(6);
        where = "schedule_power_loss " + std::to_string(ops);
        sparse.schedule_power_loss(ops);
        dense.schedule_power_loss(ops);
    } else if (op < 91) {
        const std::vector<std::uint64_t> plan = {rng.below(8), rng.below(4), rng.below(4)};
        where = "schedule_power_loss_range";
        sparse.schedule_power_loss_range(plan);
        dense.schedule_power_loss_range(plan);
    } else if (op < 98) {
        where = "revive";
        sparse.revive();
        dense.revive();
    } else {
        where = "disarm_power_loss";
        sparse.disarm_power_loss();
        dense.disarm_power_loss();
    }
}

TEST(SimFlashDiffTest, RandomOpsMatchDenseReference) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        SimFlash sparse(diff_geometry(), fast_timings());
        DenseSimFlash dense(diff_geometry());
        std::string where;
        for (int step = 0; step < 1500; ++step) {
            random_op(rng, sparse, dense, where);
            expect_same(sparse, dense, where + " @" + std::to_string(step));
            if (::testing::Test::HasFailure()) return;
        }
        EXPECT_GT(sparse.power_cuts(), 0u);  // the sequence did reach the fault model
    }
}

TEST(SimFlashDiffTest, SharedSectorsMatchDenseReferences) {
    // Two devices write one factory image (sectors 0-3) plus the tail of a
    // sector of their own (sector 9), then share what is identical.
    Rng image_rng(77);
    const Bytes factory = image_rng.bytes(4 * 1024);
    SimFlash a(diff_geometry(), fast_timings());
    SimFlash b(diff_geometry(), fast_timings());
    DenseSimFlash ref_a(diff_geometry());
    DenseSimFlash ref_b(diff_geometry());
    for (const std::uint8_t own : {std::uint8_t{0xA0}, std::uint8_t{0xB0}}) {
        SimFlash& dev = own == 0xA0 ? a : b;
        DenseSimFlash& ref = own == 0xA0 ? ref_a : ref_b;
        ASSERT_EQ(dev.write(0, factory), Status::kOk);
        ASSERT_EQ(ref.write(0, factory), Status::kOk);
        ASSERT_EQ(dev.write(10 * 1024 - 40, Bytes(40, own)), Status::kOk);
        ASSERT_EQ(ref.write(10 * 1024 - 40, Bytes(40, own)), Status::kOk);
    }
    b.share_sectors_with(a);
    EXPECT_EQ(a.resident_bytes(), 1024u);  // sector 9; sectors 0-3 are shared
    EXPECT_EQ(b.resident_bytes(), 1024u);
    expect_same(a, ref_a, "a after sharing");
    expect_same(b, ref_b, "b after sharing");

    // Program, erase and tear shared sectors in one device; the other's
    // bytes must not move.
    const Bytes zeros(100, 0x00);
    ASSERT_EQ(a.write(1000, zeros), ref_a.write(1000, zeros));  // spans sectors 0 and 1
    expect_same(a, ref_a, "a programs shared sectors 0-1");
    expect_same(b, ref_b, "b after a programs");
    ASSERT_EQ(b.erase_sector(2), ref_b.erase_sector(2));
    expect_same(b, ref_b, "b erases shared sector 2");
    expect_same(a, ref_a, "a after b erases");
    b.schedule_power_loss(0);
    ref_b.schedule_power_loss(0);
    ASSERT_EQ(b.write(3 * 1024 + 100, zeros), ref_b.write(3 * 1024 + 100, zeros));
    b.revive();
    ref_b.revive();
    expect_same(b, ref_b, "b tears a write into shared sector 3");
    expect_same(a, ref_a, "a after b's torn write");
    a.schedule_power_loss(0);
    ref_a.schedule_power_loss(0);
    ASSERT_EQ(a.erase_sector(3), ref_a.erase_sector(3));
    a.revive();
    ref_a.revive();
    expect_same(a, ref_a, "a tears an erase of shared sector 3");
    expect_same(b, ref_b, "b after a's torn erase");

    // Then seeded random traffic on both, interleaved.
    Rng rng(5);
    std::string where;
    for (int step = 0; step < 1500 && !::testing::Test::HasFailure(); ++step) {
        const bool on_a = rng.chance(0.5);
        random_op(rng, on_a ? a : b, on_a ? ref_a : ref_b, where);
        expect_same(a, ref_a, "a: " + where + " @" + std::to_string(step));
        expect_same(b, ref_b, "b: " + where + " @" + std::to_string(step));
    }
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

TEST(FileFlashTest, ReadAtWrappingOffsetRejected) {
    const std::string path = std::filesystem::temp_directory_path() / "upkit_fileflash4.bin";
    std::filesystem::remove(path);
    auto dev = FileFlash::open(path, small_geometry());
    ASSERT_TRUE(dev.has_value());
    Bytes out(8, 0x5A);
    EXPECT_EQ(dev->read(kWrapOffset, MutByteSpan(out)), Status::kFlashOutOfBounds);
    EXPECT_EQ(out, Bytes(8, 0x5A));
    std::filesystem::remove(path);
}

TEST(FileFlashTest, WriteAtWrappingOffsetRejected) {
    const std::string path = std::filesystem::temp_directory_path() / "upkit_fileflash5.bin";
    std::filesystem::remove(path);
    auto dev = FileFlash::open(path, small_geometry());
    ASSERT_TRUE(dev.has_value());
    EXPECT_EQ(dev->write(kWrapOffset, Bytes(8, 0x00)), Status::kFlashOutOfBounds);
    Bytes all(small_geometry().size_bytes);
    ASSERT_EQ(dev->read(0, MutByteSpan(all)), Status::kOk);
    EXPECT_EQ(all, Bytes(all.size(), 0xFF));
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

TEST(FileFlashTest, OperationsRewriteOnlyTheirOwnRange) {
    // Each write or erase overwrites its own bytes in the file and nothing
    // else: a byte changed in the file behind the device's back, outside
    // both ranges, survives them.
    const std::string path = std::filesystem::temp_directory_path() / "upkit_fileflash6.bin";
    std::filesystem::remove(path);
    auto dev = FileFlash::open(path, small_geometry());
    ASSERT_TRUE(dev.has_value());
    constexpr std::uint64_t kOutside = 3 * 4096 + 7;
    {
        std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
        file.seekp(kOutside);
        file.put(0x42);
        ASSERT_TRUE(file.good());
    }
    ASSERT_EQ(dev->write(100, to_bytes("in range")), Status::kOk);
    ASSERT_EQ(dev->erase_sector(1), Status::kOk);
    std::ifstream file(path, std::ios::binary);
    const Bytes on_disk((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
    ASSERT_EQ(on_disk.size(), small_geometry().size_bytes);
    EXPECT_EQ(on_disk[kOutside], 0x42);
    EXPECT_EQ(to_string(Bytes(on_disk.begin() + 100, on_disk.begin() + 108)), "in range");
    std::filesystem::remove(path);
}

TEST(FileFlashTest, RejectedWritePersistsItsProgrammedPrefix) {
    // The file holds what read() returns: a write rejected at its third
    // byte keeps its first two programmed across a reopen, as SimFlash
    // keeps them in memory.
    const std::string path = std::filesystem::temp_directory_path() / "upkit_fileflash7.bin";
    std::filesystem::remove(path);
    {
        auto dev = FileFlash::open(path, small_geometry());
        ASSERT_TRUE(dev.has_value());
        ASSERT_EQ(dev->write(502, Bytes{0x0F}), Status::kOk);
        EXPECT_EQ(dev->write(500, Bytes{0x12, 0x34, 0x40, 0x56}), Status::kFlashEraseRequired);
    }
    auto dev = FileFlash::open(path, small_geometry());
    ASSERT_TRUE(dev.has_value());
    Bytes out(4);
    ASSERT_EQ(dev->read(500, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out, (Bytes{0x12, 0x34, 0x0F, 0xFF}));
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace upkit::flash
