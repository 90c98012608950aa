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
    // A rejected write keeps the prefix before its first 0 -> 1 byte
    // programmed, as SimFlash does, and that prefix reaches the file too.
    Status status = Status::kOk;
    std::size_t programmed = 0;
    for (; programmed < data.size(); ++programmed) {
        std::uint8_t& cell = content_[offset + programmed];
        if ((cell & data[programmed]) != data[programmed]) {
            status = Status::kFlashEraseRequired;
            break;
        }
        cell = static_cast<std::uint8_t>(cell & data[programmed]);
    }
    UPKIT_RETURN_IF_ERROR(write_back(offset, programmed));
    return status;
}

Status FileFlash::erase_sector(std::uint64_t sector_index) {
    if (sector_index >= geometry_.sector_count()) return Status::kFlashOutOfBounds;
    const std::uint64_t base = sector_index * geometry_.sector_bytes;
    std::fill_n(content_.begin() + static_cast<std::ptrdiff_t>(base), geometry_.sector_bytes, 0xFF);
    return write_back(base, geometry_.sector_bytes);
}

Status FileFlash::write_back(std::uint64_t offset, std::uint64_t length) {
    if (length == 0) return Status::kOk;
    // open() sized the file, so the range is overwritten in place.
    std::fstream out(path_, std::ios::binary | std::ios::in | std::ios::out);
    if (!out) return Status::kFlashIoError;
    out.seekp(static_cast<std::streamoff>(offset));
    out.write(reinterpret_cast<const char*>(content_.data() + offset),  // lint: status-checked (good() below)
              static_cast<std::streamsize>(length));
    return out.good() ? Status::kOk : Status::kFlashIoError;
}

Status FileFlash::sync() {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) return Status::kFlashIoError;
    out.write(reinterpret_cast<const char*>(content_.data()),  // lint: status-checked (good() below)
              static_cast<std::streamsize>(content_.size()));
    return out.good() ? Status::kOk : Status::kFlashIoError;
}

}  // namespace upkit::flash
