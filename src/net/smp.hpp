// SMP (Simple Management Protocol) framing — the protocol mcumgr speaks
// over BLE GATT or serial. A standalone codec: the push path and the
// baseline comparisons model their transfers in net/transport.hpp and do
// not frame through it. An SMP frame is an 8-byte header followed by a
// CBOR map body; image uploads are `image upload` requests in the IMG
// group carrying {off, data, len?, sha?} exactly like mcumgr's.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "suit/cbor.hpp"

namespace upkit::net::smp {

enum class Op : std::uint8_t { kRead = 0, kReadRsp = 1, kWrite = 2, kWriteRsp = 3 };

inline constexpr std::uint16_t kGroupImage = 1;
inline constexpr std::uint8_t kCmdImageUpload = 1;

struct Frame {
    Op op = Op::kWrite;
    std::uint8_t flags = 0;
    std::uint16_t group = kGroupImage;
    std::uint8_t sequence = 0;
    std::uint8_t command = kCmdImageUpload;
    Bytes body;  // CBOR map

    Bytes encode() const;
};

inline constexpr std::size_t kHeaderSize = 8;

Expected<Frame> parse(ByteSpan data);

/// Builds one `image upload` request chunk. The first chunk (off == 0)
/// carries the total image length and its SHA-256 (as mcumgr does).
Frame build_image_upload(std::uint32_t offset, ByteSpan chunk, std::uint32_t total_len,
                         ByteSpan sha256, std::uint8_t sequence);

struct ImageUpload {
    std::uint32_t offset = 0;
    Bytes data;
    std::optional<std::uint32_t> total_len;  // first chunk only
    Bytes sha256;                            // first chunk only (may be empty)
};

Expected<ImageUpload> parse_image_upload(const Frame& frame);

/// Builds the matching response: {rc: 0, off: next_offset}.
Frame build_upload_response(std::uint32_t next_offset, std::uint8_t sequence);

Expected<std::uint32_t> parse_upload_response(const Frame& frame);

}  // namespace upkit::net::smp
