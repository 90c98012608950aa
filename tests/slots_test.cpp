// Slot-manager tests: configuration validation, open modes, journaled swap
// within a part and across parts (internal + external flash),
// invalidation, and the SlotReader window used by the differential
// pipeline.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "flash/sim_flash.hpp"
#include "sim/clock.hpp"
#include "slots/slot.hpp"

namespace upkit::slots {
namespace {

using flash::FlashGeometry;
using flash::FlashTimings;
using flash::SimFlash;

// Two bootable slots on the internal part, whose top three sectors hold the
// swap journal, and a non-bootable slot on the external part.
class SlotFixture : public ::testing::Test {
protected:
    SlotFixture()
        : internal_(FlashGeometry{.size_bytes = 128 * 1024, .sector_bytes = 4096, .page_bytes = 256},
                    FlashTimings{}),
          external_(FlashGeometry{.size_bytes = 256 * 1024, .sector_bytes = 4096, .page_bytes = 256},
                    FlashTimings{}),
          journal_(internal_, 128 * 1024 - SwapJournal::kSectorCount * 4096),
          manager_(journal_) {
        EXPECT_EQ(manager_.add_slot({.id = 0,
                                     .type = SlotType::kBootable,
                                     .device = &internal_,
                                     .offset = 0,
                                     .size = 48 * 1024,
                                     .link_offset = 0x0}),
                  Status::kOk);
        EXPECT_EQ(manager_.add_slot({.id = 1,
                                     .type = SlotType::kBootable,
                                     .device = &internal_,
                                     .offset = 48 * 1024,
                                     .size = 48 * 1024,
                                     .link_offset = 48 * 1024}),
                  Status::kOk);
        EXPECT_EQ(manager_.add_slot({.id = 2,
                                     .type = SlotType::kNonBootable,
                                     .device = &external_,
                                     .offset = 0,
                                     .size = 48 * 1024,
                                     .link_offset = kAnyLinkOffset}),
                  Status::kOk);
    }

    SimFlash internal_;
    SimFlash external_;
    SwapJournal journal_;
    SlotManager manager_;
};

TEST_F(SlotFixture, AddSlotValidation) {
    EXPECT_EQ(manager_.add_slot({.id = 0,
                                 .type = SlotType::kBootable,
                                 .device = &internal_,
                                 .offset = 0,
                                 .size = 4096,
                                 .link_offset = 0}),
              Status::kAlreadyExists);
    EXPECT_EQ(manager_.add_slot({.id = 9,
                                 .type = SlotType::kBootable,
                                 .device = nullptr,
                                 .offset = 0,
                                 .size = 4096,
                                 .link_offset = 0}),
              Status::kInvalidArgument);
    EXPECT_EQ(manager_.add_slot({.id = 9,
                                 .type = SlotType::kBootable,
                                 .device = &internal_,
                                 .offset = 100,  // unaligned
                                 .size = 4096,
                                 .link_offset = 0}),
              Status::kInvalidArgument);
    EXPECT_EQ(manager_.add_slot({.id = 9,
                                 .type = SlotType::kBootable,
                                 .device = &internal_,
                                 .offset = 96 * 1024,
                                 .size = 64 * 1024,  // extends past the device
                                 .link_offset = 0}),
              Status::kFlashOutOfBounds);
    EXPECT_EQ(manager_.slot_ids().size(), 3u);
}

TEST_F(SlotFixture, AddSlotRejectsWrappingOffset) {
    // offset + size wraps to 4096 for an offset 4096 below 2^64.
    EXPECT_EQ(manager_.add_slot({.id = 9,
                                 .type = SlotType::kBootable,
                                 .device = &internal_,
                                 .offset = ~std::uint64_t{0} - 4095,
                                 .size = 8192,
                                 .link_offset = 0}),
              Status::kFlashOutOfBounds);
    EXPECT_EQ(manager_.slot(9), nullptr);
    EXPECT_EQ(manager_.slot_ids().size(), 3u);
}

TEST_F(SlotFixture, WriteAllErasesOnOpen) {
    {
        auto h = manager_.open(0, OpenMode::kWriteAll);
        ASSERT_TRUE(h.has_value());
        ASSERT_EQ(h->write(to_bytes("first image")), Status::kOk);
    }
    {
        // Reopening in WRITE_ALL must wipe the previous content, allowing a
        // clean rewrite of the same bytes.
        auto h = manager_.open(0, OpenMode::kWriteAll);
        ASSERT_TRUE(h.has_value());
        ASSERT_EQ(h->write(to_bytes("first image")), Status::kOk);
    }
}

TEST_F(SlotFixture, ReadOnlyRejectsWrites) {
    auto h = manager_.open(0, OpenMode::kReadOnly);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->write(to_bytes("nope")), Status::kBadOpenMode);
}

TEST_F(SlotFixture, SequentialRewriteErasesLazily) {
    // Pre-dirty the slot.
    ASSERT_EQ(manager_.erase(0), Status::kOk);
    {
        auto h = manager_.open(0, OpenMode::kWriteAll);
        ASSERT_TRUE(h.has_value());
        ASSERT_EQ(h->write(Bytes(20 * 1024, 0x00)), Status::kOk);
    }
    const std::uint64_t erases_before = internal_.total_erases();
    {
        auto h = manager_.open(0, OpenMode::kSequentialRewrite);
        ASSERT_TRUE(h.has_value());
        // Writing 5 KiB should erase exactly the first two 4 KiB sectors.
        ASSERT_EQ(h->write(Bytes(5 * 1024, 0x42)), Status::kOk);
    }
    EXPECT_EQ(internal_.total_erases() - erases_before, 2u);

    Bytes out(4);
    auto h = manager_.open(0, OpenMode::kReadOnly);
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
    EXPECT_EQ(out, Bytes(4, 0x42));
}

TEST_F(SlotFixture, SequentialRewriteForbidsBackwardSeek) {
    auto h = manager_.open(0, OpenMode::kSequentialRewrite);
    ASSERT_TRUE(h.has_value());
    ASSERT_EQ(h->write(Bytes(100, 0x01)), Status::kOk);
    EXPECT_EQ(h->seek(0), Status::kBadOpenMode);
    EXPECT_EQ(h->seek(200), Status::kOk);
}

TEST_F(SlotFixture, WriteBeyondCapacityRejected) {
    auto h = manager_.open(0, OpenMode::kWriteAll);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->write(Bytes(48 * 1024 + 1, 0x00)), Status::kSlotTooSmall);
    EXPECT_EQ(h->write(Bytes(48 * 1024, 0x00)), Status::kOk);  // exact fit ok
}

TEST_F(SlotFixture, DoubleOpenRejected) {
    auto h1 = manager_.open(0, OpenMode::kReadOnly);
    ASSERT_TRUE(h1.has_value());
    EXPECT_EQ(manager_.open(0, OpenMode::kReadOnly).status(), Status::kSlotBusy);
    EXPECT_EQ(manager_.erase(0), Status::kSlotBusy);  // ops blocked while open
    h1->close();
    EXPECT_TRUE(manager_.open(0, OpenMode::kReadOnly).has_value());
}

TEST_F(SlotFixture, HandleMoveTransfersOwnership) {
    auto h1 = manager_.open(0, OpenMode::kReadOnly);
    ASSERT_TRUE(h1.has_value());
    SlotHandle h2 = std::move(*h1);
    EXPECT_FALSE(h1->valid());
    EXPECT_TRUE(h2.valid());
    EXPECT_TRUE(manager_.is_open(0));
    h2.close();
    EXPECT_FALSE(manager_.is_open(0));
}

TEST_F(SlotFixture, SwapAcrossDevices) {
    // The CC2650 static layout: the staged image on the external part is
    // loaded into the internal bootable slot through the journal on the
    // internal part, and the old image lands in the staging slot.
    Rng rng(5);
    const Bytes staged = rng.bytes(10 * 1024);
    const Bytes running = rng.bytes(10 * 1024);
    {
        auto h = manager_.open(2, OpenMode::kWriteAll);  // external NB slot
        ASSERT_TRUE(h.has_value());
        ASSERT_EQ(h->write(staged), Status::kOk);
    }
    {
        auto h = manager_.open(0, OpenMode::kWriteAll);
        ASSERT_TRUE(h.has_value());
        ASSERT_EQ(h->write(running), Status::kOk);
    }
    const std::uint64_t external_erases = external_.total_erases();
    ASSERT_EQ(manager_.swap(2, 0, staged.size()), Status::kOk);  // the "load"
    // Three 4 KiB pairs: each external sector the image occupies is erased
    // once.
    EXPECT_EQ(external_.total_erases() - external_erases, 3u);

    Bytes out(staged.size());
    {
        auto h = manager_.open(0, OpenMode::kReadOnly);
        ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
        EXPECT_EQ(out, staged);
    }
    {
        auto h = manager_.open(2, OpenMode::kReadOnly);
        ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
        EXPECT_EQ(out, running);
    }
    // The journal closed the swap: nothing is left to resume.
    auto resumed = manager_.resume_swap();
    ASSERT_TRUE(resumed.has_value());
    EXPECT_FALSE(*resumed);
}

TEST(SwapJournalTest, SectorLargerThanScratchRejectedBeforeAnyFlashOp) {
    // Slots on a part with 8 KiB sectors, the journal on one with 4 KiB
    // sectors: a pair cannot be stashed in the scratch sector, so the swap
    // must refuse up front rather than move the data with no durable copy.
    sim::VirtualClock clock;
    SimFlash big(FlashGeometry{.size_bytes = 64 * 1024, .sector_bytes = 8192, .page_bytes = 256},
                 FlashTimings{});
    SimFlash small(FlashGeometry{.size_bytes = 16 * 1024, .sector_bytes = 4096,
                                 .page_bytes = 256},
                   FlashTimings{});
    SwapJournal journal(small, 0);
    SlotManager manager(journal);
    for (std::uint32_t id = 0; id < 2; ++id) {
        ASSERT_EQ(manager.add_slot({.id = id,
                                    .type = SlotType::kBootable,
                                    .device = &big,
                                    .offset = id * 16 * 1024,
                                    .size = 16 * 1024,
                                    .link_offset = kAnyLinkOffset}),
                  Status::kOk);
    }
    big.attach(&clock, nullptr);
    small.attach(&clock, nullptr);

    EXPECT_EQ(manager.swap(0, 1), Status::kInvalidArgument);
    // Every read, program and erase advances an attached clock.
    EXPECT_EQ(clock.now(), 0.0);
    EXPECT_EQ(big.total_erases() + big.total_writes(), 0u);
    EXPECT_EQ(small.total_erases() + small.total_writes(), 0u);
}

TEST_F(SlotFixture, SwapExchangesContents) {
    Rng rng(6);
    const Bytes image_a = rng.bytes(8 * 1024);
    const Bytes image_b = rng.bytes(8 * 1024);
    {
        auto h = manager_.open(0, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(image_a), Status::kOk);
    }
    {
        auto h = manager_.open(1, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(image_b), Status::kOk);
    }
    ASSERT_EQ(manager_.swap(0, 1), Status::kOk);

    Bytes out(8 * 1024);
    {
        auto h = manager_.open(0, OpenMode::kReadOnly);
        ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
        EXPECT_EQ(out, image_b);
    }
    {
        auto h = manager_.open(1, OpenMode::kReadOnly);
        ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
        EXPECT_EQ(out, image_a);
    }
}

TEST_F(SlotFixture, SwapClampsUsedBytesBeyondSlotSize) {
    Rng rng(16);
    const Bytes image_a = rng.bytes(48 * 1024);
    const Bytes image_b = rng.bytes(48 * 1024);
    {
        auto h = manager_.open(0, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(image_a), Status::kOk);
    }
    {
        auto h = manager_.open(1, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(image_b), Status::kOk);
    }
    // used_bytes far past the slot: must clamp, not run the pair loop off
    // the end of the slots.
    ASSERT_EQ(manager_.swap(0, 1, 1 << 30), Status::kOk);
    Bytes out(48 * 1024);
    {
        auto h = manager_.open(0, OpenMode::kReadOnly);
        ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
        EXPECT_EQ(out, image_b);
    }
    {
        auto h = manager_.open(1, OpenMode::kReadOnly);
        ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
        EXPECT_EQ(out, image_a);
    }
}

TEST_F(SlotFixture, SwapRoundsUnalignedUsedBytesUpToSectors) {
    Rng rng(17);
    const Bytes image_a = rng.bytes(48 * 1024);
    const Bytes image_b = rng.bytes(48 * 1024);
    {
        auto h = manager_.open(0, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(image_a), Status::kOk);
    }
    {
        auto h = manager_.open(1, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(image_b), Status::kOk);
    }
    // 5000 used bytes rounds up to two 4 KiB sectors; the tail must not be
    // touched (fewer erases AND the old bytes still in place).
    ASSERT_EQ(manager_.swap(0, 1, 5000), Status::kOk);
    Bytes out(48 * 1024);
    {
        auto h = manager_.open(0, OpenMode::kReadOnly);
        ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
        EXPECT_EQ(Bytes(out.begin(), out.begin() + 8192),
                  Bytes(image_b.begin(), image_b.begin() + 8192));
        EXPECT_EQ(Bytes(out.begin() + 8192, out.end()),
                  Bytes(image_a.begin() + 8192, image_a.end()));
    }
    {
        auto h = manager_.open(1, OpenMode::kReadOnly);
        ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
        EXPECT_EQ(Bytes(out.begin(), out.begin() + 8192),
                  Bytes(image_a.begin(), image_a.begin() + 8192));
        EXPECT_EQ(Bytes(out.begin() + 8192, out.end()),
                  Bytes(image_b.begin() + 8192, image_b.end()));
    }
}

// ------------------------------------------------------------ swap journal

// A 64 KiB flash: slots at [0, 16K) and [16K, 32K), journal + scratch in
// the top three sectors.
struct JournalRig {
    SimFlash flash{FlashGeometry{.size_bytes = 64 * 1024, .sector_bytes = 4096,
                                 .page_bytes = 256},
                   FlashTimings{}};
    SwapJournal journal{flash, 64 * 1024 - 3 * 4096};
    SlotManager manager{journal};

    JournalRig() {
        EXPECT_EQ(manager.add_slot({.id = 0,
                                    .type = SlotType::kBootable,
                                    .device = &flash,
                                    .offset = 0,
                                    .size = 16 * 1024,
                                    .link_offset = kAnyLinkOffset}),
                  Status::kOk);
        EXPECT_EQ(manager.add_slot({.id = 1,
                                    .type = SlotType::kNonBootable,
                                    .device = &flash,
                                    .offset = 16 * 1024,
                                    .size = 16 * 1024,
                                    .link_offset = kAnyLinkOffset}),
                  Status::kOk);
    }

    void fill(const Bytes& image_a, const Bytes& image_b) {
        {
            auto h = manager.open(0, OpenMode::kWriteAll);
            ASSERT_EQ(h->write(image_a), Status::kOk);
        }
        {
            auto h = manager.open(1, OpenMode::kWriteAll);
            ASSERT_EQ(h->write(image_b), Status::kOk);
        }
    }

    void expect_swapped(const Bytes& image_a, const Bytes& image_b) {
        Bytes out(16 * 1024);
        {
            auto h = manager.open(0, OpenMode::kReadOnly);
            ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
            EXPECT_EQ(out, image_b);
        }
        {
            auto h = manager.open(1, OpenMode::kReadOnly);
            ASSERT_TRUE(h->read(MutByteSpan(out)).has_value());
            EXPECT_EQ(out, image_a);
        }
    }
};

TEST(SwapJournalTest, JournaledSwapExchangesContents) {
    JournalRig rig;
    Rng rng(20);
    const Bytes image_a = rng.bytes(16 * 1024);
    const Bytes image_b = rng.bytes(16 * 1024);
    rig.fill(image_a, image_b);
    ASSERT_EQ(rig.manager.swap(0, 1), Status::kOk);
    rig.expect_swapped(image_a, image_b);
    // Nothing left pending afterwards.
    auto resumed = rig.manager.resume_swap();
    ASSERT_TRUE(resumed.has_value());
    EXPECT_FALSE(*resumed);
}

TEST(SwapJournalTest, ResumeCompletesSwapCutAtEveryFlashOp) {
    // Exhaustive: cut the power at every flash op inside the journaled swap.
    // After revival, recovery must leave the pair in a CONSISTENT state:
    // either nothing was durably begun (slots fully intact — cuts inside
    // journal begin(), before any slot sector burns) or resume_swap()
    // finishes the exchange completely. Never a half-swapped pair.
    bool saw_resume = false;
    for (std::uint64_t cut = 0;; ++cut) {
        JournalRig rig;
        Rng rng(21);
        const Bytes image_a = rng.bytes(16 * 1024);
        const Bytes image_b = rng.bytes(16 * 1024);
        rig.fill(image_a, image_b);

        rig.flash.schedule_power_loss_range({cut});
        const Status swapped = rig.manager.swap(0, 1);
        if (swapped == Status::kOk && rig.flash.power_cuts() == 0) {
            rig.expect_swapped(image_a, image_b);
            ASSERT_GT(cut, 0u);  // the sweep must have exercised real cuts
            break;
        }
        rig.flash.revive();
        rig.flash.disarm_power_loss();

        auto resumed = rig.manager.resume_swap();
        ASSERT_TRUE(resumed.has_value()) << "resume failed after cut at op " << cut;
        if (*resumed) {
            saw_resume = true;
            rig.expect_swapped(image_a, image_b);
        } else {
            // The cut landed before the swap durably began: all-or-nothing
            // demands the slots are exactly as they were.
            rig.expect_swapped(image_b, image_a);
        }
    }
    EXPECT_TRUE(saw_resume);  // most cut points must land inside the swap
}

TEST(SwapJournalTest, ResumeSurvivesSecondCutDuringRecovery) {
    // Double fault: the recovery is itself interrupted at every op index;
    // a second resume must still converge.
    for (std::uint64_t recovery_cut = 0; recovery_cut < 24; ++recovery_cut) {
        JournalRig rig;
        Rng rng(22);
        const Bytes image_a = rng.bytes(16 * 1024);
        const Bytes image_b = rng.bytes(16 * 1024);
        rig.fill(image_a, image_b);

        rig.flash.schedule_power_loss_range({10, recovery_cut});
        ASSERT_NE(rig.manager.swap(0, 1), Status::kOk);
        rig.flash.revive();  // arms the recovery cut

        auto resumed = rig.manager.resume_swap();
        if (!resumed.has_value()) {
            // The recovery died too; one more revival must finish the job.
            rig.flash.revive();
            rig.flash.disarm_power_loss();
            resumed = rig.manager.resume_swap();
            ASSERT_TRUE(resumed.has_value())
                << "second resume failed, recovery cut " << recovery_cut;
            EXPECT_TRUE(*resumed);
        }
        rig.expect_swapped(image_a, image_b);
    }
}

TEST_F(SlotFixture, InvalidateErasesOnlyFirstSector) {
    {
        auto h = manager_.open(0, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(Bytes(8 * 1024, 0x11)), Status::kOk);
    }
    ASSERT_EQ(manager_.invalidate(0), Status::kOk);
    auto h = manager_.open(0, OpenMode::kReadOnly);
    Bytes first(16);
    ASSERT_TRUE(h->read(MutByteSpan(first)).has_value());
    EXPECT_EQ(first, Bytes(16, 0xFF));  // manifest region wiped
    ASSERT_EQ(h->seek(4096), Status::kOk);
    Bytes later(16);
    ASSERT_TRUE(h->read(MutByteSpan(later)).has_value());
    EXPECT_EQ(later, Bytes(16, 0x11));  // payload beyond sector 0 untouched
}

TEST_F(SlotFixture, ReadStopsAtCapacity) {
    auto h = manager_.open(0, OpenMode::kReadOnly);
    ASSERT_TRUE(h.has_value());
    ASSERT_EQ(h->seek(48 * 1024 - 8), Status::kOk);
    Bytes out(16);
    auto n = h->read(MutByteSpan(out));
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 8u);  // clamped at slot end
    n = h->read(MutByteSpan(out));
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 0u);
}

TEST_F(SlotFixture, SlotReaderWindowsIntoSlot) {
    Rng rng(7);
    const Bytes image = rng.bytes(1024);
    {
        auto h = manager_.open(1, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(image), Status::kOk);
    }
    // Window skipping a 200-byte "manifest" prefix.
    SlotReader reader(manager_, 1, 200, 824);
    EXPECT_EQ(reader.size(), 824u);
    Bytes out(10);
    ASSERT_EQ(reader.read_at(0, MutByteSpan(out)), Status::kOk);
    EXPECT_EQ(out, Bytes(image.begin() + 200, image.begin() + 210));
    EXPECT_EQ(reader.read_at(820, MutByteSpan(out)), Status::kOutOfRange);
}

TEST_F(SlotFixture, SlotReaderRejectsWrappingOffset) {
    {
        auto h = manager_.open(1, OpenMode::kWriteAll);
        ASSERT_EQ(h->write(Bytes(1024, 0x00)), Status::kOk);
    }
    // offset + size wraps to 6 for an offset 4 below 2^64, which would read
    // the 4 bytes before the window.
    SlotReader reader(manager_, 1, 200, 824);
    Bytes out(10, 0x5A);
    EXPECT_EQ(reader.read_at(~std::uint64_t{0} - 3, MutByteSpan(out)), Status::kOutOfRange);
    EXPECT_EQ(out, Bytes(10, 0x5A));
}

TEST_F(SlotFixture, OperationsOnUnknownSlot) {
    EXPECT_EQ(manager_.open(42, OpenMode::kReadOnly).status(), Status::kNotFound);
    EXPECT_EQ(manager_.erase(42), Status::kNotFound);
    EXPECT_EQ(manager_.swap(42, 0), Status::kNotFound);
    EXPECT_EQ(manager_.slot(42), nullptr);
}

TEST_F(SlotFixture, SwapSizeMismatchRejected) {
    SimFlash tiny(FlashGeometry{.size_bytes = 8192, .sector_bytes = 4096, .page_bytes = 256},
                  FlashTimings{});
    ASSERT_EQ(manager_.add_slot({.id = 7,
                                 .type = SlotType::kNonBootable,
                                 .device = &tiny,
                                 .offset = 0,
                                 .size = 8192,
                                 .link_offset = kAnyLinkOffset}),
              Status::kOk);
    EXPECT_EQ(manager_.swap(0, 7), Status::kInvalidArgument);
}

}  // namespace
}  // namespace upkit::slots
