#include "diff/bsdiff.hpp"

#include <algorithm>
#include <cstring>

#include "common/endian.hpp"
#include "diff/suffix_array.hpp"

namespace upkit::diff {

namespace {

/// Length of the common prefix of two spans.
std::size_t match_len(ByteSpan a, ByteSpan b) {
    const std::size_t limit = std::min(a.size(), b.size());
    std::size_t i = 0;
    while (i < limit && a[i] == b[i]) ++i;
    return i;
}

/// Binary search over the suffix array for the longest match of `target`
/// inside `old_image`; returns its length, sets `pos` to the match start.
std::size_t search(const std::vector<std::uint32_t>& sa, ByteSpan old_image, ByteSpan target,
                   std::size_t lo, std::size_t hi, std::size_t* pos) {
    if (hi - lo < 2) {
        const std::size_t x = match_len(old_image.subspan(sa[lo]), target);
        const std::size_t y = match_len(old_image.subspan(sa[hi]), target);
        if (x > y) {
            *pos = sa[lo];
            return x;
        }
        *pos = sa[hi];
        return y;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    const ByteSpan suffix = old_image.subspan(sa[mid]);
    const std::size_t cmp_len = std::min(suffix.size(), target.size());
    if (std::memcmp(suffix.data(), target.data(), cmp_len) < 0) {  // lint: public-data (image bytes)
        return search(sa, old_image, target, mid, hi, pos);
    }
    return search(sa, old_image, target, lo, mid, pos);
}

void put_control(Bytes& out, std::uint32_t diff_len, std::uint32_t extra_len, std::int32_t seek) {
    put_le32(out, diff_len);
    put_le32(out, extra_len);
    put_le32(out, static_cast<std::uint32_t>(seek));
}

}  // namespace

Expected<Bytes> bsdiff(ByteSpan old_image, ByteSpan new_image) {
    if (old_image.size() > 0x7FFFFFFF || new_image.size() > 0x7FFFFFFF) {
        return Status::kOutOfRange;
    }

    Bytes patch;
    patch.reserve(new_image.size() / 4 + kPatchHeaderSize);
    patch.insert(patch.end(), kPatchMagic, kPatchMagic + 8);
    put_le64(patch, new_image.size());
    put_le64(patch, old_image.size());

    if (new_image.empty()) return patch;
    if (old_image.empty()) {
        // Degenerate: everything is extra data.
        put_control(patch, 0, static_cast<std::uint32_t>(new_image.size()), 0);
        append(patch, new_image);
        return patch;
    }

    const std::vector<std::uint32_t> sa = build_suffix_array(old_image);

    const std::ptrdiff_t old_size = static_cast<std::ptrdiff_t>(old_image.size());
    const std::ptrdiff_t new_size = static_cast<std::ptrdiff_t>(new_image.size());

    std::ptrdiff_t scan = 0, pos = 0, len = 0;
    std::ptrdiff_t lastscan = 0, lastpos = 0, lastoffset = 0;

    while (scan < new_size) {
        std::ptrdiff_t oldscore = 0;
        std::ptrdiff_t scsc = scan += len;
        while (scan < new_size) {
            std::size_t match_pos = 0;
            len = static_cast<std::ptrdiff_t>(
                search(sa, old_image, new_image.subspan(static_cast<std::size_t>(scan)), 0,
                       old_image.size() - 1, &match_pos));
            pos = static_cast<std::ptrdiff_t>(match_pos);

            for (; scsc < scan + len; ++scsc) {
                if (scsc + lastoffset < old_size &&
                    old_image[static_cast<std::size_t>(scsc + lastoffset)] ==
                        new_image[static_cast<std::size_t>(scsc)]) {
                    ++oldscore;
                }
            }

            if ((len == oldscore && len != 0) || len > oldscore + 8) break;

            if (scan + lastoffset < old_size &&
                old_image[static_cast<std::size_t>(scan + lastoffset)] ==
                    new_image[static_cast<std::size_t>(scan)]) {
                --oldscore;
            }
            ++scan;
        }

        if (len != oldscore || scan == new_size) {
            // Extend the previous match forward (lenf) and this one backward
            // (lenb) over half-matching bytes, exactly as classic bsdiff.
            std::ptrdiff_t s = 0, sf = 0, lenf = 0;
            for (std::ptrdiff_t i = 0; (lastscan + i < scan) && (lastpos + i < old_size);) {
                if (old_image[static_cast<std::size_t>(lastpos + i)] ==
                    new_image[static_cast<std::size_t>(lastscan + i)]) {
                    ++s;
                }
                ++i;
                if (s * 2 - i > sf * 2 - lenf) {
                    sf = s;
                    lenf = i;
                }
            }

            std::ptrdiff_t lenb = 0;
            if (scan < new_size) {
                std::ptrdiff_t sb = 0, sb_best = 0;
                for (std::ptrdiff_t i = 1; (scan >= lastscan + i) && (pos >= i); ++i) {
                    if (old_image[static_cast<std::size_t>(pos - i)] ==
                        new_image[static_cast<std::size_t>(scan - i)]) {
                        ++sb;
                    }
                    if (sb * 2 - i > sb_best * 2 - lenb) {
                        sb_best = sb;
                        lenb = i;
                    }
                }
            }

            if (lastscan + lenf > scan - lenb) {  // forward/backward overlap
                const std::ptrdiff_t overlap = (lastscan + lenf) - (scan - lenb);
                std::ptrdiff_t s_ov = 0, s_best = 0, lens = 0;
                for (std::ptrdiff_t i = 0; i < overlap; ++i) {
                    if (new_image[static_cast<std::size_t>(lastscan + lenf - overlap + i)] ==
                        old_image[static_cast<std::size_t>(lastpos + lenf - overlap + i)]) {
                        ++s_ov;
                    }
                    if (new_image[static_cast<std::size_t>(scan - lenb + i)] ==
                        old_image[static_cast<std::size_t>(pos - lenb + i)]) {
                        --s_ov;
                    }
                    if (s_ov > s_best) {
                        s_best = s_ov;
                        lens = i + 1;
                    }
                }
                lenf += lens - overlap;
                lenb -= lens;
            }

            const std::ptrdiff_t extra_len = (scan - lenb) - (lastscan + lenf);
            put_control(patch, static_cast<std::uint32_t>(lenf),
                        static_cast<std::uint32_t>(extra_len),
                        static_cast<std::int32_t>((pos - lenb) - (lastpos + lenf)));

            for (std::ptrdiff_t i = 0; i < lenf; ++i) {
                patch.push_back(static_cast<std::uint8_t>(
                    new_image[static_cast<std::size_t>(lastscan + i)] -
                    old_image[static_cast<std::size_t>(lastpos + i)]));
            }
            append(patch, new_image.subspan(static_cast<std::size_t>(lastscan + lenf),
                                            static_cast<std::size_t>(extra_len)));

            lastscan = scan - lenb;
            lastpos = pos - lenb;
            lastoffset = pos - scan;
        }
    }
    return patch;
}

}  // namespace upkit::diff
