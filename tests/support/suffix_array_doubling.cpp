#include "support/oracles.hpp"

#include <algorithm>
#include <numeric>

namespace upkit::diff {

std::vector<std::uint32_t> build_suffix_array_doubling(ByteSpan data) {
    const std::size_t n = data.size();
    std::vector<std::uint32_t> sa(n);
    std::iota(sa.begin(), sa.end(), 0u);
    if (n == 0) return sa;

    // rank[i] = equivalence class of the suffix starting at i for the
    // current prefix length k; tmp holds the next iteration's ranks.
    std::vector<std::uint32_t> rank(n), tmp(n);
    for (std::size_t i = 0; i < n; ++i) rank[i] = data[i];

    for (std::size_t k = 1;; k *= 2) {
        const auto sort_key = [&](std::uint32_t i) {
            const std::uint64_t hi = static_cast<std::uint64_t>(rank[i]) + 1;
            const std::uint64_t lo = (i + k < n) ? static_cast<std::uint64_t>(rank[i + k]) + 1 : 0;
            return (hi << 32) | lo;
        };
        std::sort(sa.begin(), sa.end(),
                  [&](std::uint32_t a, std::uint32_t b) { return sort_key(a) < sort_key(b); });

        tmp[sa[0]] = 0;
        for (std::size_t i = 1; i < n; ++i) {
            tmp[sa[i]] = tmp[sa[i - 1]] + (sort_key(sa[i - 1]) != sort_key(sa[i]) ? 1 : 0);
        }
        rank.swap(tmp);
        if (rank[sa[n - 1]] == n - 1) break;  // all classes distinct
    }
    return sa;
}

}  // namespace upkit::diff
