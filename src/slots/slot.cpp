#include "slots/slot.hpp"

#include <algorithm>

#include "crypto/crc.hpp"

namespace upkit::slots {

// ---------------------------------------------------------------- handle

SlotHandle::SlotHandle(SlotHandle&& other) noexcept
    : manager_(other.manager_),
      slot_id_(other.slot_id_),
      mode_(other.mode_),
      position_(other.position_),
      erased_through_(other.erased_through_) {
    other.manager_ = nullptr;
}

SlotHandle& SlotHandle::operator=(SlotHandle&& other) noexcept {
    if (this != &other) {
        close();
        manager_ = other.manager_;
        slot_id_ = other.slot_id_;
        mode_ = other.mode_;
        position_ = other.position_;
        erased_through_ = other.erased_through_;
        other.manager_ = nullptr;
    }
    return *this;
}

void SlotHandle::close() {
    if (manager_ != nullptr) {
        manager_->open_.erase(slot_id_);
        manager_ = nullptr;
    }
}

std::uint64_t SlotHandle::capacity() const {
    if (manager_ == nullptr) return 0;
    const SlotConfig* config = manager_->slot(slot_id_);
    return config != nullptr ? config->size : 0;
}

Expected<std::size_t> SlotHandle::read(MutByteSpan out) {
    if (manager_ == nullptr) return Status::kSlotInvalid;
    const SlotConfig* config = manager_->slot(slot_id_);
    if (config == nullptr) return Status::kNotFound;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(out.size(), config->size - std::min(position_, config->size)));
    if (take == 0) return std::size_t{0};
    UPKIT_RETURN_IF_ERROR(config->device->read(config->offset + position_, out.subspan(0, take)));
    position_ += take;
    return take;
}

Status SlotHandle::write(ByteSpan data) {
    if (manager_ == nullptr) return Status::kSlotInvalid;
    if (mode_ == OpenMode::kReadOnly) return Status::kBadOpenMode;
    const SlotConfig* config = manager_->slot(slot_id_);
    if (config == nullptr) return Status::kNotFound;
    if (position_ + data.size() > config->size) return Status::kSlotTooSmall;

    if (mode_ == OpenMode::kSequentialRewrite) {
        // Erase sectors lazily as the write head enters them.
        const std::uint32_t sector = config->device->geometry().sector_bytes;
        while (erased_through_ < position_ + data.size()) {
            const std::uint64_t abs = config->offset + erased_through_;
            UPKIT_RETURN_IF_ERROR(config->device->erase_sector(abs / sector));
            erased_through_ += sector;
        }
    }

    UPKIT_RETURN_IF_ERROR(config->device->write(config->offset + position_, data));
    position_ += data.size();
    return Status::kOk;
}

Status SlotHandle::seek(std::uint64_t position) {
    if (manager_ == nullptr) return Status::kSlotInvalid;
    const SlotConfig* config = manager_->slot(slot_id_);
    if (config == nullptr) return Status::kNotFound;
    if (position > config->size) return Status::kOutOfRange;
    if (mode_ == OpenMode::kSequentialRewrite && position < position_) {
        return Status::kBadOpenMode;  // strictly forward in rewrite mode
    }
    position_ = position;
    return Status::kOk;
}

// ---------------------------------------------------------------- manager

Status SlotManager::add_slot(const SlotConfig& config) {
    if (config.device == nullptr || config.size == 0) return Status::kInvalidArgument;
    const auto& geo = config.device->geometry();
    if (config.offset % geo.sector_bytes != 0 || config.size % geo.sector_bytes != 0) {
        return Status::kInvalidArgument;  // slots are sector-aligned
    }
    if (config.offset > geo.size_bytes || config.size > geo.size_bytes - config.offset) {
        return Status::kFlashOutOfBounds;
    }
    if (slots_.contains(config.id)) return Status::kAlreadyExists;
    slots_.emplace(config.id, config);
    return Status::kOk;
}

const SlotConfig* SlotManager::slot(std::uint32_t id) const {
    const auto it = slots_.find(id);
    return it == slots_.end() ? nullptr : &it->second;
}

std::vector<std::uint32_t> SlotManager::slot_ids() const {
    std::vector<std::uint32_t> ids;
    ids.reserve(slots_.size());
    for (const auto& [id, config] : slots_) ids.push_back(id);
    return ids;
}

Expected<SlotConfig*> SlotManager::checked(std::uint32_t id) {
    const auto it = slots_.find(id);
    if (it == slots_.end()) return Status::kNotFound;
    if (open_.contains(id)) return Status::kSlotBusy;
    return &it->second;
}

Expected<SlotHandle> SlotManager::open(std::uint32_t id, OpenMode mode) {
    auto config = checked(id);
    if (!config) return config.status();
    if (mode == OpenMode::kWriteAll) {
        UPKIT_RETURN_IF_ERROR(
            (*config)->device->erase_range((*config)->offset, (*config)->size));
    }
    open_.insert(id);
    return SlotHandle(this, id, mode);
}

Status SlotManager::erase(std::uint32_t id) {
    auto config = checked(id);
    if (!config) return config.status();
    return (*config)->device->erase_range((*config)->offset, (*config)->size);
}

Status SlotManager::invalidate(std::uint32_t id) {
    auto config = checked(id);
    if (!config) return config.status();
    const std::uint32_t sector = (*config)->device->geometry().sector_bytes;
    return (*config)->device->erase_sector((*config)->offset / sector);
}

Status SlotManager::swap(std::uint32_t a, std::uint32_t b, std::uint64_t used_bytes) {
    auto sa = checked(a);
    if (!sa) return sa.status();
    auto sb = checked(b);
    if (!sb) return sb.status();
    if ((*sa)->size != (*sb)->size) return Status::kInvalidArgument;

    const std::uint32_t chunk = std::max((*sa)->device->geometry().sector_bytes,
                                         (*sb)->device->geometry().sector_bytes);
    if ((*sa)->size % chunk != 0 || chunk > journal_->scratch_capacity()) {
        return Status::kInvalidArgument;
    }
    // Validate and clamp explicitly: a used_bytes beyond the slot, or one
    // whose round-up to swap granularity lands past it, must not push the
    // sector loop out of bounds.
    std::uint64_t limit = used_bytes == 0 ? (*sa)->size : std::min(used_bytes, (*sa)->size);
    limit = (limit + chunk - 1) / chunk * chunk;  // round to swap granularity
    limit = std::min<std::uint64_t>(limit, (*sa)->size);

    UPKIT_RETURN_IF_ERROR(journal_->begin(a, b, limit, chunk));
    return journaled_swap(
        **sa, **sb, SwapJournal::State{.slot_a = a, .slot_b = b, .limit = limit, .chunk = chunk});
}

Status SlotManager::journaled_swap(const SlotConfig& a, const SlotConfig& b,
                                   const SwapJournal::State& from) {
    const std::uint32_t chunk = from.chunk;
    const std::uint32_t pairs = static_cast<std::uint32_t>(from.limit / chunk);
    flash::FlashDevice& jdev = journal_->device();
    const std::uint64_t scratch = journal_->scratch_offset();
    Bytes buf(chunk);

    // Re-enter at the step after the last journalled one; every step is
    // safe to (re)start because the data it erases has a durable copy.
    std::uint32_t pair = from.pair;
    int step = 1;  // 1 = stash A in scratch, 2 = B over A, 3 = scratch over B
    std::uint32_t crc_a = from.crc_a;
    std::uint32_t crc_b = from.crc_b;
    switch (from.phase) {
        case SwapPhase::kNone: break;
        case SwapPhase::kScratchStored: step = 2; break;
        case SwapPhase::kDstWritten: step = 3; break;
        case SwapPhase::kPairDone: ++pair; break;
        case SwapPhase::kComplete: return Status::kOk;
    }

    for (; pair < pairs; ++pair, step = 1) {
        const std::uint64_t off = static_cast<std::uint64_t>(pair) * chunk;
        if (step == 1) {
            // Both slot sectors are intact; stash A before anything burns.
            UPKIT_RETURN_IF_ERROR(a.device->read(a.offset + off, MutByteSpan(buf)));
            crc_a = crypto::crc32(buf);
            UPKIT_RETURN_IF_ERROR(jdev.erase_range(scratch, chunk));
            UPKIT_RETURN_IF_ERROR(jdev.write(scratch, buf));
            UPKIT_RETURN_IF_ERROR(b.device->read(b.offset + off, MutByteSpan(buf)));
            crc_b = crypto::crc32(buf);
            UPKIT_RETURN_IF_ERROR(
                journal_->record(SwapPhase::kScratchStored, pair, crc_a, crc_b));
            step = 2;
        }
        if (step == 2) {
            // B is still intact and scratch holds old A: overwrite A.
            UPKIT_RETURN_IF_ERROR(b.device->read(b.offset + off, MutByteSpan(buf)));
            UPKIT_RETURN_IF_ERROR(a.device->erase_range(a.offset + off, chunk));
            UPKIT_RETURN_IF_ERROR(a.device->write(a.offset + off, buf));
            UPKIT_RETURN_IF_ERROR(
                journal_->record(SwapPhase::kDstWritten, pair, crc_a, crc_b));
            step = 3;
        }
        // Step 3: A holds old B, scratch holds old A: overwrite B.
        UPKIT_RETURN_IF_ERROR(jdev.read(scratch, MutByteSpan(buf)));
        if (crypto::crc32(buf) != crc_a) return Status::kInternal;
        UPKIT_RETURN_IF_ERROR(b.device->erase_range(b.offset + off, chunk));
        UPKIT_RETURN_IF_ERROR(b.device->write(b.offset + off, buf));
        UPKIT_RETURN_IF_ERROR(journal_->record(SwapPhase::kPairDone, pair, crc_a, crc_b));
    }
    return journal_->finish();
}

Expected<bool> SlotManager::resume_swap() {
    auto pending = journal_->pending();
    if (!pending) {
        if (pending.status() == Status::kNotFound) return false;
        return pending.status();
    }
    const SlotConfig* a = slot(pending->slot_a);
    const SlotConfig* b = slot(pending->slot_b);
    if (a == nullptr || b == nullptr || a->size != b->size || pending->limit > a->size ||
        pending->chunk > journal_->scratch_capacity()) {
        return Status::kInternal;  // journal does not match the slot table
    }
    UPKIT_RETURN_IF_ERROR(journaled_swap(*a, *b, *pending));
    return true;
}

// ---------------------------------------------------------------- reader

SlotReader::SlotReader(const SlotManager& manager, std::uint32_t slot_id, std::uint64_t skip,
                       std::uint64_t length)
    : config_(manager.slot(slot_id)), skip_(skip), length_(length) {}

Status SlotReader::read_at(std::uint64_t offset, MutByteSpan out) const {
    if (config_ == nullptr) return Status::kNotFound;
    if (offset > length_ || out.size() > length_ - offset) return Status::kOutOfRange;
    return config_->device->read(config_->offset + skip_ + offset, out);
}

}  // namespace upkit::slots
