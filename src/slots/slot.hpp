// Memory slots — UpKit's memory module (paper Sect. IV-C, Fig. 6).
//
// Persistent memory is organized into slots, each holding one update image.
// Bootable slots (B) contain directly executable images; non-bootable slots
// (NB) hold images that must be moved to a bootable slot first. Slots can
// live on different flash devices (the CC2650 keeps its NB slot on external
// SPI flash). The API is deliberately POSIX-IO-shaped — open/close/read/
// write — with flash-aware open modes:
//   READ_ONLY          read access only
//   WRITE_ALL          the whole slot is erased at open, then written
//   SEQUENTIAL_REWRITE sectors are erased lazily as the write head enters
//                      them (what the pipeline's writer stage uses)
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/sink.hpp"
#include "common/status.hpp"
#include "flash/flash_device.hpp"
#include "slots/swap_journal.hpp"

namespace upkit::slots {

enum class SlotType : std::uint8_t { kBootable, kNonBootable };

enum class OpenMode : std::uint8_t { kReadOnly, kWriteAll, kSequentialRewrite };

/// Images linked position-independently carry this link offset and are
/// accepted by any slot.
inline constexpr std::uint32_t kAnyLinkOffset = 0xFFFFFFFF;

struct SlotConfig {
    std::uint32_t id = 0;
    SlotType type = SlotType::kBootable;
    flash::FlashDevice* device = nullptr;  // non-owning; outlives the manager
    std::uint64_t offset = 0;              // byte offset within the device
    std::uint64_t size = 0;                // capacity in bytes
    std::uint32_t link_offset = kAnyLinkOffset;  // address images must target
};

class SlotManager;

/// RAII handle over an open slot. Move-only; closes on destruction.
class SlotHandle {
public:
    SlotHandle() = default;
    SlotHandle(SlotHandle&& other) noexcept;
    SlotHandle& operator=(SlotHandle&& other) noexcept;
    SlotHandle(const SlotHandle&) = delete;
    SlotHandle& operator=(const SlotHandle&) = delete;
    ~SlotHandle() { close(); }

    Expected<std::size_t> read(MutByteSpan out);
    Status write(ByteSpan data);
    Status seek(std::uint64_t position);

    std::uint64_t position() const { return position_; }
    std::uint64_t capacity() const;
    bool valid() const { return manager_ != nullptr; }

    void close();

private:
    friend class SlotManager;
    SlotHandle(SlotManager* manager, std::uint32_t slot_id, OpenMode mode)
        : manager_(manager), slot_id_(slot_id), mode_(mode) {}

    SlotManager* manager_ = nullptr;
    std::uint32_t slot_id_ = 0;
    OpenMode mode_ = OpenMode::kReadOnly;
    std::uint64_t position_ = 0;
    std::uint64_t erased_through_ = 0;  // SEQUENTIAL_REWRITE erase frontier
};

class SlotManager {
public:
    /// Every swap runs through `journal` (non-owning; outlives the manager).
    explicit SlotManager(SwapJournal& journal) : journal_(&journal) {}

    Status add_slot(const SlotConfig& config);

    const SlotConfig* slot(std::uint32_t id) const;
    std::vector<std::uint32_t> slot_ids() const;

    Expected<SlotHandle> open(std::uint32_t id, OpenMode mode);
    bool is_open(std::uint32_t id) const { return open_.contains(id); }

    /// Erases the whole slot.
    Status erase(std::uint32_t id);

    /// Invalidates a slot cheaply by erasing only its first sector (where
    /// the image manifest lives).
    Status invalidate(std::uint32_t id);

    /// Swaps the contents of two equally-sized slots sector pair by sector
    /// pair through the journal. `used_bytes` limits the swap to occupied
    /// sectors (0 = whole slot) — bootloaders know both image sizes from
    /// the manifests and skip the tail.
    ///
    /// The swap is crash-consistent: every destructive step is preceded by
    /// a durable copy (journal scratch sector or the peer slot) and followed
    /// by a journal record, so a power cut at ANY flash operation is
    /// recoverable via resume_swap(). A pair whose sector is larger than the
    /// journal's scratch sector is refused with kInvalidArgument before any
    /// flash operation.
    Status swap(std::uint32_t a, std::uint32_t b, std::uint64_t used_bytes = 0);

    /// Detects an interrupted swap and drives it to completion. Returns
    /// true when a swap was resumed, false when nothing was pending.
    /// Re-entrant: a second power cut during recovery leaves a journal that
    /// the next resume_swap() picks up again.
    Expected<bool> resume_swap();

private:
    friend class SlotHandle;

    Expected<SlotConfig*> checked(std::uint32_t id);
    Status journaled_swap(const SlotConfig& a, const SlotConfig& b,
                          const SwapJournal::State& from);

    SwapJournal* journal_;
    std::map<std::uint32_t, SlotConfig> slots_;
    std::set<std::uint32_t> open_;
};

/// RandomReader over a byte window of a slot — how the patching stage reads
/// the installed firmware while the new one streams into another slot.
class SlotReader final : public RandomReader {
public:
    SlotReader(const SlotManager& manager, std::uint32_t slot_id, std::uint64_t skip,
               std::uint64_t length);

    Status read_at(std::uint64_t offset, MutByteSpan out) const override;
    std::uint64_t size() const override { return length_; }

private:
    const SlotConfig* config_;
    std::uint64_t skip_;
    std::uint64_t length_;
};

/// ByteSink adapter writing into an open slot (testing aid; the pipeline
/// uses its own writer stage with buffering).
class SlotSink final : public ByteSink {
public:
    explicit SlotSink(SlotHandle& handle) : handle_(handle) {}
    Status write(ByteSpan data) override { return handle_.write(data); }

private:
    SlotHandle& handle_;
};

}  // namespace upkit::slots
