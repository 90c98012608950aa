// File-backed flash device.
//
// The paper's memory interface "allows assigning a Linux file to each slot,
// which gives the ability to work with devices supporting a file system, as
// well as to test the modules without the need of a simulator" (Sect. V).
// Semantics are identical to SimFlash (erase-before-write enforced) but the
// content persists in a host file: each write or erase overwrites only the
// bytes it changed, at their offset in the file.
#pragma once

#include <string>

#include "flash/flash_device.hpp"

namespace upkit::flash {

class FileFlash final : public FlashDevice {
public:
    /// Opens (or creates, sized and 0xFF-filled) the backing file. A file
    /// shorter than the geometry, such as one written for a smaller layout,
    /// reads as erased beyond its end and is extended to full size.
    static Expected<FileFlash> open(const std::string& path, const FlashGeometry& geometry);

    const FlashGeometry& geometry() const override { return geometry_; }
    Status read(std::uint64_t offset, MutByteSpan out) override;
    Status write(std::uint64_t offset, ByteSpan data) override;
    Status erase_sector(std::uint64_t sector_index) override;

    /// Rewrites the whole file from the in-memory image (open() does this
    /// once, which extends a short file to full size).
    Status sync();

    const std::string& path() const { return path_; }

private:
    FileFlash(std::string path, const FlashGeometry& geometry, Bytes content);

    /// Writes content_[offset, offset + length) to the same range of the file.
    Status write_back(std::uint64_t offset, std::uint64_t length);

    std::string path_;
    FlashGeometry geometry_;
    Bytes content_;
};

}  // namespace upkit::flash
