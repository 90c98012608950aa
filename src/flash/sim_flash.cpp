#include "flash/sim_flash.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace upkit::flash {

Status FlashDevice::erase_range(std::uint64_t offset, std::uint64_t length) {
    const auto& geo = geometry();
    if (offset % geo.sector_bytes != 0) return Status::kInvalidArgument;
    if (offset + length > geo.size_bytes) return Status::kFlashOutOfBounds;
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
    storage_.assign(geometry.size_bytes, 0xFF);
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
    power_loss_in_.reset();
    plan_.clear();
    plan_next_ = 0;
    plan_countdown_.reset();
}

void SimFlash::revive() {
    const bool was_dead = dead_;
    dead_ = false;
    power_loss_in_.reset();
    // The plan persists across reboots; the revive that follows a cut arms
    // the next entry (counted from this revive).
    if (was_dead && !plan_countdown_.has_value() && plan_next_ < plan_.size()) {
        plan_countdown_ = plan_[plan_next_++];
    }
}

bool SimFlash::consume_op_budget() {
    bool cut = false;
    if (power_loss_in_.has_value()) {
        if (*power_loss_in_ == 0) {
            cut = true;
        } else {
            --*power_loss_in_;
        }
    }
    if (plan_countdown_.has_value()) {
        if (*plan_countdown_ == 0) {
            cut = true;
            plan_countdown_.reset();
        } else {
            --*plan_countdown_;
        }
    }
    if (cut) {
        dead_ = true;
        ++power_cuts_;
        return false;
    }
    return true;
}

Status SimFlash::read(std::uint64_t offset, MutByteSpan out) {
    if (dead_) return Status::kFlashPowerLoss;
    if (offset + out.size() > geometry_.size_bytes) return Status::kFlashOutOfBounds;
    std::copy_n(storage_.begin() + static_cast<std::ptrdiff_t>(offset), out.size(), out.begin());
    charge(static_cast<double>(out.size()) * 8.0 / timings_.read_bandwidth_bps);
    return Status::kOk;
}

Status SimFlash::write(std::uint64_t offset, ByteSpan data) {
    if (dead_) return Status::kFlashPowerLoss;
    if (offset + data.size() > geometry_.size_bytes) return Status::kFlashOutOfBounds;

    const bool powered = consume_op_budget();
    // On a power cut, half the bytes land before the supply collapses —
    // the partially-programmed page real devices leave behind.
    const std::size_t effective = powered ? data.size() : data.size() / 2;

    // Program a word at a time while no bit of the word needs a 0 -> 1
    // flip (then current & wanted == wanted, so the word is stored as is).
    // The first word with a violation drops to the byte loop, which
    // programs exactly the bytes before the violating one.
    std::uint8_t* const dst = storage_.data() + offset;
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= effective; i += sizeof(std::uint64_t)) {
        std::uint64_t current = 0;
        std::uint64_t wanted = 0;
        std::memcpy(&current, dst + i, sizeof current);
        std::memcpy(&wanted, data.data() + i, sizeof wanted);
        if ((current & wanted) != wanted) break;
        std::memcpy(dst + i, &wanted, sizeof wanted);
    }
    for (; i < effective; ++i) {
        const std::uint8_t current = dst[i];
        const std::uint8_t wanted = data[i];
        if ((current & wanted) != wanted) {
            return Status::kFlashEraseRequired;  // would need a 0 -> 1 flip
        }
        dst[i] = wanted;
    }
    if (!powered) {
        // The unreached tail is not a clean half-write: cells the program
        // pulse touched but did not finish read back as garbage. Programming
        // can only drive bits 1 -> 0, so the garbage is ANDed in.
        for (std::size_t i = effective; i < data.size(); ++i) {
            storage_[offset + i] &= static_cast<std::uint8_t>(fault_rng_.next_u32());
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
    const std::uint64_t base = sector_index * geometry_.sector_bytes;
    // A cut mid-erase leaves a mixed sector: an erased prefix, then a window
    // of cells caught mid-transition that read back as garbage (erase floats
    // bits up, so any value is possible there), then the old content.
    const std::uint64_t span = powered ? geometry_.sector_bytes : geometry_.sector_bytes / 2;
    std::fill_n(storage_.begin() + static_cast<std::ptrdiff_t>(base), span, 0xFF);
    if (!powered) {
        const std::uint64_t window =
            std::min<std::uint64_t>(geometry_.page_bytes, geometry_.sector_bytes - span);
        fault_rng_.fill(MutByteSpan(storage_.data() + base + span,
                                    static_cast<std::size_t>(window)));
    }

    charge(timings_.erase_sector_s);
    ++wear_[sector_index];
    ++total_erases_;

    return powered ? Status::kOk : Status::kFlashPowerLoss;
}

std::uint64_t SimFlash::erase_count(std::uint64_t sector_index) const {
    return sector_index < wear_.size() ? wear_[sector_index] : 0;
}

}  // namespace upkit::flash
