#include "crypto/u256.hpp"

#include <bit>
#include <cassert>

namespace upkit::crypto {

U256 U256::from_be_bytes(ByteSpan bytes32) {
    assert(bytes32.size() == 32);
    U256 out;
    for (int limb = 0; limb < 4; ++limb) {
        std::uint64_t v = 0;
        for (int b = 0; b < 8; ++b) {
            v = (v << 8) | bytes32[static_cast<std::size_t>((3 - limb) * 8 + b)];
        }
        out.w[static_cast<std::size_t>(limb)] = v;
    }
    return out;
}

U256 U256::from_hex(std::string_view hex) {
    std::uint8_t bytes[32] = {};
    std::size_t nibbles = 0;
    // Count hex digits (skip whitespace), then fill right-aligned.
    for (char c : hex)
        if (c != ' ') ++nibbles;
    assert(nibbles <= 64);
    std::size_t pos = 64 - nibbles;  // nibble index into the 32-byte value
    for (char c : hex) {
        if (c == ' ') continue;
        int n;
        if (c >= '0' && c <= '9') n = c - '0';
        else if (c >= 'a' && c <= 'f') n = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') n = c - 'A' + 10;
        else { assert(false && "bad hex digit"); n = 0; }
        bytes[pos / 2] = static_cast<std::uint8_t>(bytes[pos / 2] | (pos % 2 == 0 ? n << 4 : n));
        ++pos;
    }
    return from_be_bytes(ByteSpan(bytes, 32));
}

void U256::to_be_bytes(MutByteSpan out32) const {
    assert(out32.size() == 32);
    for (int limb = 0; limb < 4; ++limb) {
        const std::uint64_t v = w[static_cast<std::size_t>(limb)];
        for (int b = 0; b < 8; ++b) {
            out32[static_cast<std::size_t>((3 - limb) * 8 + b)] =
                static_cast<std::uint8_t>(v >> (8 * (7 - b)));
        }
    }
}

Bytes U256::to_be_bytes() const {
    Bytes out(32);
    to_be_bytes(MutByteSpan(out));
    return out;
}

int U256::bit_length() const {
    for (int limb = 3; limb >= 0; --limb) {
        if (w[static_cast<std::size_t>(limb)] != 0) {
            return limb * 64 + (64 - std::countl_zero(w[static_cast<std::size_t>(limb)]));
        }
    }
    return 0;
}

int cmp(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
        const auto ai = a.w[static_cast<std::size_t>(i)];
        const auto bi = b.w[static_cast<std::size_t>(i)];
        if (ai < bi) return -1;
        if (ai > bi) return 1;
    }
    return 0;
}

U256 shl1(const U256& a) {
    U256 out;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        out.w[i] = (a.w[i] << 1) | carry;
        carry = a.w[i] >> 63;
    }
    return out;
}

U256 shr1(const U256& a) {
    U256 out;
    std::uint64_t carry = 0;
    for (int i = 3; i >= 0; --i) {
        const auto idx = static_cast<std::size_t>(i);
        out.w[idx] = (a.w[idx] >> 1) | (carry << 63);
        carry = a.w[idx] & 1;
    }
    return out;
}

}  // namespace upkit::crypto
