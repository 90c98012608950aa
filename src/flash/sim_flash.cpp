#include "flash/sim_flash.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace upkit::flash {

namespace {

/// The part of [offset, offset + length) that lies in offset's sector.
struct Piece {
    std::uint64_t sector;
    std::size_t at;    // offset within the sector
    std::size_t take;  // bytes in this sector
};

Piece piece(std::uint64_t offset, std::size_t length, std::uint32_t sector_bytes) {
    const auto at = static_cast<std::size_t>(offset % sector_bytes);
    return Piece{offset / sector_bytes, at, std::min<std::size_t>(length, sector_bytes - at)};
}

/// Programs `data` over `dst` a word at a time while no bit of the word
/// needs a 0 -> 1 flip (then current & wanted == wanted, so the word is
/// stored as is). The first word with a violation drops to the byte loop,
/// which programs exactly the bytes before the violating one and returns
/// false.
bool program(std::uint8_t* dst, ByteSpan data) {
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= data.size(); i += sizeof(std::uint64_t)) {
        std::uint64_t current = 0;
        std::uint64_t wanted = 0;
        std::memcpy(&current, dst + i, sizeof current);
        std::memcpy(&wanted, data.data() + i, sizeof wanted);
        if ((current & wanted) != wanted) break;
        std::memcpy(dst + i, &wanted, sizeof wanted);
    }
    for (; i < data.size(); ++i) {
        const std::uint8_t current = dst[i];
        const std::uint8_t wanted = data[i];
        if ((current & wanted) != wanted) return false;  // would need a 0 -> 1 flip
        dst[i] = wanted;
    }
    return true;
}

}  // namespace

Status FlashDevice::erase_range(std::uint64_t offset, std::uint64_t length) {
    const auto& geo = geometry();
    if (offset % geo.sector_bytes != 0) return Status::kInvalidArgument;
    if (offset > geo.size_bytes || length > geo.size_bytes - offset) {
        return Status::kFlashOutOfBounds;
    }
    const std::uint64_t first = offset / geo.sector_bytes;
    const std::uint64_t last = (offset + length + geo.sector_bytes - 1) / geo.sector_bytes;
    for (std::uint64_t s = first; s < last; ++s) {
        UPKIT_RETURN_IF_ERROR(erase_sector(s));
    }
    return Status::kOk;
}

SimFlash::SimFlash(const FlashGeometry& geometry, const FlashTimings& timings)
    : geometry_(geometry), timings_(timings) {
    assert(geometry.valid());
    sectors_.resize(geometry.sector_count());
    wear_.assign(geometry.sector_count(), 0);
}

void SimFlash::charge(double seconds) {
    if (clock_ != nullptr) clock_->advance(seconds);
    if (meter_ != nullptr) meter_->charge(sim::Component::kFlash, seconds);
}

void SimFlash::schedule_power_loss_range(std::vector<std::uint64_t> plan) {
    plan_ = std::move(plan);
    plan_next_ = 0;
    plan_countdown_.reset();
    if (!plan_.empty()) plan_countdown_ = plan_[plan_next_++];
}

void SimFlash::disarm_power_loss() {
    plan_.clear();
    plan_next_ = 0;
    plan_countdown_.reset();
}

void SimFlash::revive() {
    const bool was_dead = dead_;
    dead_ = false;
    // The plan persists across reboots; the revive that follows a cut arms
    // the next entry (counted from this revive).
    if (was_dead && !plan_countdown_.has_value() && plan_next_ < plan_.size()) {
        plan_countdown_ = plan_[plan_next_++];
    }
}

bool SimFlash::consume_op_budget() {
    if (!plan_countdown_.has_value()) return true;
    if (*plan_countdown_ > 0) {
        --*plan_countdown_;
        return true;
    }
    plan_countdown_.reset();
    dead_ = true;
    ++power_cuts_;
    return false;
}

const std::uint8_t* SimFlash::sector_data(std::uint64_t index) const {
    const Sector& s = sectors_[index];
    return s.own != nullptr ? s.own.get() : s.shared.get();
}

std::uint8_t* SimFlash::own_sector(std::uint64_t index) {
    Sector& s = sectors_[index];
    if (s.own == nullptr) {
        s.own = std::make_unique_for_overwrite<std::uint8_t[]>(geometry_.sector_bytes);
        if (s.shared != nullptr) {
            std::copy_n(s.shared.get(), geometry_.sector_bytes, s.own.get());
            s.shared.reset();
        } else {
            std::fill_n(s.own.get(), geometry_.sector_bytes, 0xFF);
        }
    }
    return s.own.get();
}

Status SimFlash::read(std::uint64_t offset, MutByteSpan out) {
    if (dead_) return Status::kFlashPowerLoss;
    if (offset > geometry_.size_bytes || out.size() > geometry_.size_bytes - offset) {
        return Status::kFlashOutOfBounds;
    }
    for (std::size_t done = 0; done < out.size();) {
        const Piece p = piece(offset + done, out.size() - done, geometry_.sector_bytes);
        const std::uint8_t* const src = sector_data(p.sector);
        if (src != nullptr) {
            std::copy_n(src + p.at, p.take, out.begin() + static_cast<std::ptrdiff_t>(done));
        } else {
            std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(done), p.take, 0xFF);
        }
        done += p.take;
    }
    charge(static_cast<double>(out.size()) * 8.0 / timings_.read_bandwidth_bps);
    return Status::kOk;
}

Status SimFlash::write(std::uint64_t offset, ByteSpan data) {
    if (dead_) return Status::kFlashPowerLoss;
    if (offset > geometry_.size_bytes || data.size() > geometry_.size_bytes - offset) {
        return Status::kFlashOutOfBounds;
    }

    const bool powered = consume_op_budget();
    // On a power cut, half the bytes land before the supply collapses —
    // the partially-programmed page real devices leave behind.
    const std::size_t effective = powered ? data.size() : data.size() / 2;

    for (std::size_t done = 0; done < effective;) {
        const Piece p = piece(offset + done, effective - done, geometry_.sector_bytes);
        if (!program(own_sector(p.sector) + p.at, data.subspan(done, p.take))) {
            return Status::kFlashEraseRequired;
        }
        done += p.take;
    }
    if (!powered) {
        // The unreached tail is not a clean half-write: cells the program
        // pulse touched but did not finish read back as garbage. Programming
        // can only drive bits 1 -> 0, so the garbage is ANDed in.
        for (std::size_t done = effective; done < data.size();) {
            const Piece p = piece(offset + done, data.size() - done, geometry_.sector_bytes);
            std::uint8_t* const dst = own_sector(p.sector) + p.at;
            for (std::size_t i = 0; i < p.take; ++i) {
                dst[i] &= static_cast<std::uint8_t>(fault_rng_.next_u32());
            }
            done += p.take;
        }
    }

    const std::uint64_t pages =
        (data.size() + geometry_.page_bytes - 1) / geometry_.page_bytes;
    charge(static_cast<double>(pages) * timings_.write_page_s);
    ++total_writes_;
    bytes_written_ += effective;

    return powered ? Status::kOk : Status::kFlashPowerLoss;
}

Status SimFlash::erase_sector(std::uint64_t sector_index) {
    if (dead_) return Status::kFlashPowerLoss;
    if (sector_index >= geometry_.sector_count()) return Status::kFlashOutOfBounds;

    const bool powered = consume_op_budget();
    if (powered) {
        sectors_[sector_index] = Sector{};  // erased: owns no bytes
    } else {
        // A cut mid-erase leaves a mixed sector: an erased prefix, then a
        // window of cells caught mid-transition that read back as garbage
        // (erase floats bits up, so any value is possible there), then the
        // old content.
        std::uint8_t* const bytes = own_sector(sector_index);
        const std::uint32_t span = geometry_.sector_bytes / 2;
        std::fill_n(bytes, span, 0xFF);
        const std::uint32_t window = std::min(geometry_.page_bytes, geometry_.sector_bytes - span);
        fault_rng_.fill(MutByteSpan(bytes + span, window));
    }

    charge(timings_.erase_sector_s);
    ++wear_[sector_index];
    ++total_erases_;

    return powered ? Status::kOk : Status::kFlashPowerLoss;
}

std::uint64_t SimFlash::erase_count(std::uint64_t sector_index) const {
    return sector_index < wear_.size() ? wear_[sector_index] : 0;
}

std::uint64_t SimFlash::resident_bytes() const {
    const auto owned = std::count_if(sectors_.begin(), sectors_.end(),
                                     [](const Sector& s) { return s.own != nullptr; });
    return static_cast<std::uint64_t>(owned) * geometry_.sector_bytes;
}

void SimFlash::share_sectors_with(SimFlash& other) {
    if (other.geometry_.size_bytes != geometry_.size_bytes ||
        other.geometry_.sector_bytes != geometry_.sector_bytes) {
        return;
    }
    for (std::uint64_t s = 0; s < sectors_.size(); ++s) {
        Sector& mine = sectors_[s];
        const std::uint8_t* const theirs = other.sector_data(s);
        if (mine.own == nullptr || theirs == nullptr ||
            std::memcmp(mine.own.get(), theirs, geometry_.sector_bytes) != 0) {  // lint: public-data (flash sector bytes)
            continue;
        }
        Sector& peer = other.sectors_[s];
        if (peer.own != nullptr) peer.shared = std::move(peer.own);
        mine.shared = peer.shared;
        mine.own.reset();
    }
}

}  // namespace upkit::flash
