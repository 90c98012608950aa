// Suffix-array construction by SA-IS (linear time).
//
// Substrate for the bsdiff generator that runs on the update server. The
// property tests cross-check it against a far simpler prefix-doubling
// construction kept in tests/support/ (two implementations agreeing on
// random corpora is the cheapest correctness argument for induced
// sorting).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace upkit::diff {

/// Returns the suffix array of `data`: sa[i] is the start offset of the
/// i-th smallest suffix. Linear-time SA-IS; used by bsdiff.
std::vector<std::uint32_t> build_suffix_array(ByteSpan data);

}  // namespace upkit::diff
