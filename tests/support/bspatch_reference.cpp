#include "support/oracles.hpp"

#include <cstring>

#include "common/endian.hpp"
#include "diff/bsdiff.hpp"

namespace upkit::diff {

Expected<Bytes> bspatch_all(ByteSpan old_image, ByteSpan patch) {
    if (patch.size() < kPatchHeaderSize) return Status::kCorruptPatch;
    if (std::memcmp(patch.data(), kPatchMagic, 8) != 0) return Status::kCorruptPatch;  // lint: public-data (patch magic)
    const std::uint64_t new_size = load_le64(patch.subspan(8, 8));
    const std::uint64_t old_size = load_le64(patch.subspan(16, 8));
    if (old_size != old_image.size()) return Status::kPatchBaseMismatch;

    Bytes out;
    out.reserve(new_size);
    std::size_t p = kPatchHeaderSize;
    std::uint64_t old_pos = 0;
    while (out.size() < new_size) {
        if (p + kControlSize > patch.size()) return Status::kCorruptPatch;
        const std::uint32_t diff_len = load_le32(patch.subspan(p, 4));
        const std::uint32_t extra_len = load_le32(patch.subspan(p + 4, 4));
        const std::int32_t seek = static_cast<std::int32_t>(load_le32(patch.subspan(p + 8, 4)));
        p += kControlSize;

        if (p + diff_len + extra_len > patch.size()) return Status::kCorruptPatch;
        if (out.size() + diff_len + extra_len > new_size) return Status::kCorruptPatch;
        if (old_pos + diff_len > old_image.size()) return Status::kCorruptPatch;

        for (std::uint32_t i = 0; i < diff_len; ++i) {
            out.push_back(static_cast<std::uint8_t>(old_image[old_pos + i] + patch[p + i]));
        }
        p += diff_len;
        append(out, patch.subspan(p, extra_len));
        p += extra_len;

        const std::int64_t next =
            static_cast<std::int64_t>(old_pos) + diff_len + seek;
        if (next < 0 || next > static_cast<std::int64_t>(old_image.size())) {
            return Status::kCorruptPatch;
        }
        old_pos = static_cast<std::uint64_t>(next);
    }
    if (p != patch.size()) return Status::kCorruptPatch;
    return out;
}

}  // namespace upkit::diff
