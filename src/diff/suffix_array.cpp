#include "diff/suffix_array.hpp"

#include <algorithm>

namespace upkit::diff {

namespace {

// ------------------------------------------------------------------ SA-IS
//
// Induced sorting (Nong, Zhang, Chan 2009). `s` is over alphabet [0, K]
// and must end with a unique, smallest sentinel 0. Returns the full suffix
// array including the sentinel suffix at position 0.

std::vector<std::int32_t> sais(const std::vector<std::int32_t>& s, std::int32_t alphabet) {
    const std::int32_t n = static_cast<std::int32_t>(s.size());
    std::vector<bool> is_s_type(static_cast<std::size_t>(n));
    is_s_type[static_cast<std::size_t>(n - 1)] = true;
    for (std::int32_t i = n - 2; i >= 0; --i) {
        const auto idx = static_cast<std::size_t>(i);
        is_s_type[idx] =
            s[idx] < s[idx + 1] || (s[idx] == s[idx + 1] && is_s_type[idx + 1]);
    }
    const auto is_lms = [&](std::int32_t i) {
        return i > 0 && is_s_type[static_cast<std::size_t>(i)] &&
               !is_s_type[static_cast<std::size_t>(i - 1)];
    };

    std::vector<std::int32_t> counts(static_cast<std::size_t>(alphabet) + 1, 0);
    for (const std::int32_t c : s) ++counts[static_cast<std::size_t>(c)];
    const auto bucket_starts = [&] {
        std::vector<std::int32_t> b(counts.size());
        std::int32_t sum = 0;
        for (std::size_t c = 0; c < counts.size(); ++c) {
            b[c] = sum;
            sum += counts[c];
        }
        return b;
    };
    const auto bucket_ends = [&] {
        std::vector<std::int32_t> b(counts.size());
        std::int32_t sum = 0;
        for (std::size_t c = 0; c < counts.size(); ++c) {
            sum += counts[c];
            b[c] = sum;
        }
        return b;
    };

    std::vector<std::int32_t> sa(static_cast<std::size_t>(n), -1);
    const auto induce = [&](const std::vector<std::int32_t>& lms_in_order) {
        std::fill(sa.begin(), sa.end(), -1);
        // Place LMS suffixes at their buckets' ends (in given order).
        auto ends = bucket_ends();
        for (auto it = lms_in_order.rbegin(); it != lms_in_order.rend(); ++it) {
            sa[static_cast<std::size_t>(--ends[static_cast<std::size_t>(s[static_cast<std::size_t>(*it)])])] = *it;
        }
        // Induce L-type suffixes left-to-right.
        auto starts = bucket_starts();
        for (std::int32_t i = 0; i < n; ++i) {
            const std::int32_t j = sa[static_cast<std::size_t>(i)] - 1;
            if (sa[static_cast<std::size_t>(i)] > 0 && !is_s_type[static_cast<std::size_t>(j)]) {
                sa[static_cast<std::size_t>(starts[static_cast<std::size_t>(s[static_cast<std::size_t>(j)])]++)] = j;
            }
        }
        // Induce S-type suffixes right-to-left.
        ends = bucket_ends();
        for (std::int32_t i = n - 1; i >= 0; --i) {
            const std::int32_t j = sa[static_cast<std::size_t>(i)] - 1;
            if (sa[static_cast<std::size_t>(i)] > 0 && is_s_type[static_cast<std::size_t>(j)]) {
                sa[static_cast<std::size_t>(--ends[static_cast<std::size_t>(s[static_cast<std::size_t>(j)])])] = j;
            }
        }
    };

    std::vector<std::int32_t> lms_positions;
    for (std::int32_t i = 1; i < n; ++i) {
        if (is_lms(i)) lms_positions.push_back(i);
    }
    induce(lms_positions);

    // Name LMS substrings by their rank in the induced order.
    std::vector<std::int32_t> name(static_cast<std::size_t>(n), -1);
    std::int32_t previous = -1;
    std::int32_t names = -1;
    for (std::int32_t i = 0; i < n; ++i) {
        const std::int32_t pos = sa[static_cast<std::size_t>(i)];
        if (!is_lms(pos)) continue;
        bool same = false;
        if (previous >= 0) {
            same = true;
            for (std::int32_t d = 0;; ++d) {
                const auto a = static_cast<std::size_t>(previous + d);
                const auto b = static_cast<std::size_t>(pos + d);
                if (s[a] != s[b] || is_s_type[a] != is_s_type[b]) {
                    same = false;
                    break;
                }
                if (d > 0 && (is_lms(previous + d) || is_lms(pos + d))) {
                    same = is_lms(previous + d) && is_lms(pos + d);
                    break;
                }
            }
        }
        if (!same) ++names;
        name[static_cast<std::size_t>(pos)] = names;
        previous = pos;
    }

    // Reduced problem: names of LMS substrings in text order.
    std::vector<std::int32_t> reduced;
    reduced.reserve(lms_positions.size());
    for (const std::int32_t pos : lms_positions) {
        reduced.push_back(name[static_cast<std::size_t>(pos)]);
    }

    std::vector<std::int32_t> reduced_sa;
    if (names + 1 == static_cast<std::int32_t>(reduced.size())) {
        // All names distinct: the order is immediate.
        reduced_sa.assign(reduced.size(), 0);
        for (std::size_t i = 0; i < reduced.size(); ++i) {
            reduced_sa[static_cast<std::size_t>(reduced[i])] = static_cast<std::int32_t>(i);
        }
    } else {
        reduced_sa = sais(reduced, names);
    }

    std::vector<std::int32_t> lms_sorted(lms_positions.size());
    for (std::size_t i = 0; i < reduced_sa.size(); ++i) {
        lms_sorted[i] = lms_positions[static_cast<std::size_t>(reduced_sa[i])];
    }
    induce(lms_sorted);
    return sa;
}

}  // namespace

std::vector<std::uint32_t> build_suffix_array(ByteSpan data) {
    if (data.empty()) return {};
    // Shift the alphabet by one and append the unique 0 sentinel.
    std::vector<std::int32_t> s;
    s.reserve(data.size() + 1);
    for (const std::uint8_t b : data) s.push_back(static_cast<std::int32_t>(b) + 1);
    s.push_back(0);

    const std::vector<std::int32_t> sa = sais(s, 256);
    // sa[0] is the sentinel suffix; drop it.
    std::vector<std::uint32_t> out;
    out.reserve(data.size());
    for (std::size_t i = 1; i < sa.size(); ++i) {
        out.push_back(static_cast<std::uint32_t>(sa[i]));
    }
    return out;
}

}  // namespace upkit::diff
