// CoAP message codec (RFC 7252) with blockwise transfer options (RFC 7959).
//
// The paper's pull path downloads the update image over CoAP (Zoap /
// libcoap / er-coap depending on the OS). This codec implements the wire
// format those libraries speak — header, token, delta-encoded options,
// payload — plus the Block1/Block2 options used for firmware-sized
// transfers, and a Blockwise helper that frames a resource into a message
// sequence. A standalone codec: the link simulation (net/transport.hpp)
// models airtime and byte counts without framing through it, so only the
// protocol tests exercise it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace upkit::net::coap {

enum class Type : std::uint8_t { kConfirmable = 0, kNonConfirmable = 1, kAck = 2, kReset = 3 };

/// Code = class.detail (e.g. 0.01 GET, 2.05 Content).
constexpr std::uint8_t code(unsigned cls, unsigned detail) {
    return static_cast<std::uint8_t>((cls << 5) | detail);
}
inline constexpr std::uint8_t kGet = code(0, 1);
inline constexpr std::uint8_t kPost = code(0, 2);
inline constexpr std::uint8_t kContent = code(2, 5);
inline constexpr std::uint8_t kNotFound = code(4, 4);

/// Option numbers (subset used here).
inline constexpr std::uint16_t kOptionUriPath = 11;
inline constexpr std::uint16_t kOptionContentFormat = 12;
inline constexpr std::uint16_t kOptionBlock2 = 23;
inline constexpr std::uint16_t kOptionBlock1 = 27;

struct Option {
    std::uint16_t number = 0;
    Bytes value;

    friend bool operator==(const Option&, const Option&) = default;
};

struct Message {
    Type type = Type::kConfirmable;
    std::uint8_t code = kGet;
    std::uint16_t message_id = 0;
    Bytes token;                   // 0..8 bytes
    std::vector<Option> options;   // must be sorted by number for encoding
    Bytes payload;

    /// Appends an option, keeping the list sorted by number.
    void add_option(std::uint16_t number, Bytes value);
    void add_uri_path(std::string_view segment);

    /// First option with this number, or nullptr.
    const Option* find_option(std::uint16_t number) const;

    /// Full Uri-Path joined with '/'.
    std::string uri_path() const;
};

Bytes encode(const Message& message);
Expected<Message> parse(ByteSpan data);

// --- blockwise (RFC 7959) -------------------------------------------------

struct BlockOption {
    std::uint32_t num = 0;  // block number
    bool more = false;      // M bit
    std::uint8_t szx = 2;   // block size = 2^(szx + 4); szx=2 -> 64 bytes

    std::uint32_t size() const { return 1u << (szx + 4); }

    /// Encodes as the option's uint value (0..3 bytes, shortest form).
    Bytes encode() const;
    static Expected<BlockOption> parse(ByteSpan value);
    static std::optional<std::uint8_t> szx_for(std::uint32_t block_size);
};

/// Serves a byte resource as Block2 responses (the update server / border
/// router side of a firmware GET).
class BlockwiseServer {
public:
    BlockwiseServer(std::string path, Bytes resource, std::uint32_t block_size = 64);

    /// Handles one request message; returns the response to send.
    Message handle(const Message& request) const;

private:
    std::string path_;
    Bytes resource_;
    std::uint8_t szx_;
};

/// Fetches a resource with consecutive Block2 GETs against a request/
/// response callback (e.g. a BlockwiseServer behind a simulated link).
class BlockwiseClient {
public:
    explicit BlockwiseClient(std::uint32_t block_size = 64);

    /// Returns the next request for `path`, or nullopt when complete.
    std::optional<Message> next_request(std::string_view path);

    /// Feeds a response; returns non-ok on protocol errors.
    Status on_response(const Message& response);

    bool complete() const { return complete_; }
    const Bytes& resource() const { return resource_; }

    /// Total encoded bytes this exchange put on the air (both directions).
    std::uint64_t bytes_on_air() const { return bytes_on_air_; }
    void note_bytes(std::uint64_t n) { bytes_on_air_ += n; }

private:
    std::uint8_t szx_;
    std::uint32_t next_block_ = 0;
    std::uint16_t next_mid_ = 1;
    bool complete_ = false;
    bool awaiting_ = false;
    Bytes resource_;
    std::uint64_t bytes_on_air_ = 0;
};

}  // namespace upkit::net::coap
