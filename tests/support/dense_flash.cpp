#include <algorithm>
#include <cassert>

#include "support/oracles.hpp"

namespace upkit::flash {

DenseSimFlash::DenseSimFlash(const FlashGeometry& geometry) : geometry_(geometry) {
    assert(geometry.valid());
    storage_.assign(geometry.size_bytes, 0xFF);
    wear_.assign(geometry.sector_count(), 0);
}

void DenseSimFlash::schedule_power_loss_range(std::vector<std::uint64_t> plan) {
    plan_ = std::move(plan);
    plan_next_ = 0;
    plan_countdown_.reset();
    if (!plan_.empty()) plan_countdown_ = plan_[plan_next_++];
}

void DenseSimFlash::disarm_power_loss() {
    power_loss_in_.reset();
    plan_.clear();
    plan_next_ = 0;
    plan_countdown_.reset();
}

void DenseSimFlash::revive() {
    const bool was_dead = dead_;
    dead_ = false;
    power_loss_in_.reset();
    if (was_dead && !plan_countdown_.has_value() && plan_next_ < plan_.size()) {
        plan_countdown_ = plan_[plan_next_++];
    }
}

bool DenseSimFlash::consume_op_budget() {
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

Status DenseSimFlash::read(std::uint64_t offset, MutByteSpan out) {
    if (dead_) return Status::kFlashPowerLoss;
    if (offset > geometry_.size_bytes || out.size() > geometry_.size_bytes - offset) {
        return Status::kFlashOutOfBounds;
    }
    std::copy_n(storage_.begin() + static_cast<std::ptrdiff_t>(offset), out.size(), out.begin());
    return Status::kOk;
}

Status DenseSimFlash::write(std::uint64_t offset, ByteSpan data) {
    if (dead_) return Status::kFlashPowerLoss;
    if (offset > geometry_.size_bytes || data.size() > geometry_.size_bytes - offset) {
        return Status::kFlashOutOfBounds;
    }
    const bool powered = consume_op_budget();
    const std::size_t effective = powered ? data.size() : data.size() / 2;
    for (std::size_t i = 0; i < effective; ++i) {
        const std::uint8_t current = storage_[offset + i];
        if ((current & data[i]) != data[i]) return Status::kFlashEraseRequired;
        storage_[offset + i] = data[i];
    }
    if (!powered) {
        for (std::size_t i = effective; i < data.size(); ++i) {
            storage_[offset + i] &= static_cast<std::uint8_t>(fault_rng_.next_u32());
        }
    }
    ++total_writes_;
    bytes_written_ += effective;
    return powered ? Status::kOk : Status::kFlashPowerLoss;
}

Status DenseSimFlash::erase_sector(std::uint64_t sector_index) {
    if (dead_) return Status::kFlashPowerLoss;
    if (sector_index >= geometry_.sector_count()) return Status::kFlashOutOfBounds;
    const bool powered = consume_op_budget();
    const std::uint64_t base = sector_index * geometry_.sector_bytes;
    const std::uint64_t span = powered ? geometry_.sector_bytes : geometry_.sector_bytes / 2;
    std::fill_n(storage_.begin() + static_cast<std::ptrdiff_t>(base), span, 0xFF);
    if (!powered) {
        const std::uint64_t window =
            std::min<std::uint64_t>(geometry_.page_bytes, geometry_.sector_bytes - span);
        fault_rng_.fill(MutByteSpan(storage_.data() + base + span,
                                    static_cast<std::size_t>(window)));
    }
    ++wear_[sector_index];
    ++total_erases_;
    return powered ? Status::kOk : Status::kFlashPowerLoss;
}

std::uint64_t DenseSimFlash::erase_count(std::uint64_t sector_index) const {
    return sector_index < wear_.size() ? wear_[sector_index] : 0;
}

}  // namespace upkit::flash
