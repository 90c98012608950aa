// Endian-explicit integer (de)serialization. UpKit's wire format (manifest,
// device token, patch stream) is little-endian, matching the ARM Cortex-M
// targets the paper evaluates on; crypto internals use big-endian loads.
#pragma once

#include <cstdint>
#include <cstddef>

#include "common/bytes.hpp"

namespace upkit {

inline void store_le16(MutByteSpan out, std::uint16_t v) {
    out[0] = static_cast<std::uint8_t>(v);
    out[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void store_le32(MutByteSpan out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void store_le64(MutByteSpan out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint16_t load_le16(ByteSpan in) {
    return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

inline std::uint32_t load_le32(ByteSpan in) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | in[static_cast<std::size_t>(i)];
    return v;
}

inline std::uint64_t load_le64(ByteSpan in) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | in[static_cast<std::size_t>(i)];
    return v;
}

inline std::uint32_t load_be32(ByteSpan in) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) v = (v << 8) | in[i];
    return v;
}

// Appending variants used by serializers.
inline void put_le16(Bytes& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_le32(Bytes& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_le64(Bytes& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace upkit
