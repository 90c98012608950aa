// 64-bit FNV-1a: the one hash behind the campaign-report, chaos-plan and
// trace fingerprints and the server's have-list cache key. An integer mixes
// as its 8 little-endian bytes (narrower ones widen to u64 first) and a
// double as its IEEE-754 bit pattern, so equal inputs hash equal on any
// host.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace upkit {

class Fnv1a {
public:
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void mix(double v) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }
    /// The bytes, then a 0xFF terminator, so "ab","c" != "a","bc".
    void mix(std::string_view s) {
        for (const char c : s) byte(static_cast<unsigned char>(c));
        byte(0xFF);
    }

    std::uint64_t value() const { return h_; }

private:
    void byte(std::uint8_t b) {
        h_ ^= b;
        h_ *= 0x100000001B3ull;
    }

    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace upkit
