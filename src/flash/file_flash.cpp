#include "flash/file_flash.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace upkit::flash {

FileFlash::FileFlash(std::string path, const FlashGeometry& geometry, Bytes content)
    : path_(std::move(path)), geometry_(geometry), content_(std::move(content)) {}

Expected<FileFlash> FileFlash::open(const std::string& path, const FlashGeometry& geometry) {
    if (!geometry.valid()) return Status::kInvalidArgument;

    Bytes content(geometry.size_bytes, 0xFF);
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
        std::ifstream in(path, std::ios::binary);
        if (!in) return Status::kFlashIoError;
        in.read(reinterpret_cast<char*>(content.data()),
                static_cast<std::streamsize>(content.size()));
        // Shorter files are treated as erased beyond their end.
    }
    FileFlash device(path, geometry, std::move(content));
    UPKIT_RETURN_IF_ERROR(device.sync());
    return device;
}

Status FileFlash::read(std::uint64_t offset, MutByteSpan out) {
    if (offset > geometry_.size_bytes || out.size() > geometry_.size_bytes - offset) {
        return Status::kFlashOutOfBounds;
    }
    std::copy_n(content_.begin() + static_cast<std::ptrdiff_t>(offset), out.size(), out.begin());
    return Status::kOk;
}

Status FileFlash::write(std::uint64_t offset, ByteSpan data) {
    if (offset > geometry_.size_bytes || data.size() > geometry_.size_bytes - offset) {
        return Status::kFlashOutOfBounds;
    }
    for (std::size_t i = 0; i < data.size(); ++i) {
        const std::uint8_t current = content_[offset + i];
        if ((current & data[i]) != data[i]) return Status::kFlashEraseRequired;
        content_[offset + i] = static_cast<std::uint8_t>(current & data[i]);
    }
    return sync();
}

Status FileFlash::erase_sector(std::uint64_t sector_index) {
    if (sector_index >= geometry_.sector_count()) return Status::kFlashOutOfBounds;
    const std::uint64_t base = sector_index * geometry_.sector_bytes;
    std::fill_n(content_.begin() + static_cast<std::ptrdiff_t>(base), geometry_.sector_bytes, 0xFF);
    return sync();
}

Status FileFlash::sync() {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) return Status::kFlashIoError;
    out.write(reinterpret_cast<const char*>(content_.data()),  // lint: status-checked (good() below)
              static_cast<std::streamsize>(content_.size()));
    return out.good() ? Status::kOk : Status::kFlashIoError;
}

}  // namespace upkit::flash
