// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The paper mandates SHA-2 for the firmware digest and for the ECDSA
// signatures on manifest and firmware (Sect. V). This is the single digest
// implementation shared — exactly as UpKit shares crypto code between the
// update agent and the application — by every module in this repo.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace upkit::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256. Usable in streaming contexts (the update agent
/// digests firmware chunks as they arrive from the transport).
class Sha256 {
public:
    Sha256() { reset(); }

    void reset();
    void update(ByteSpan data);
    Sha256Digest finalize();

    /// One-shot convenience.
    static Sha256Digest digest(ByteSpan data);

private:
    /// Unrolled compression over `blocks` consecutive 64-byte blocks:
    /// working state lives in registers across the whole run, schedule is a
    /// 16-word ring, message words load 4 bytes at a time.
    void process_blocks(const std::uint8_t* data, std::size_t blocks);

    std::array<std::uint32_t, 8> state_{};
    std::array<std::uint8_t, kSha256BlockSize> buffer_{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bytes_ = 0;
};

/// Digest as an owning byte buffer (convenience for wire formats).
Bytes sha256(ByteSpan data);

/// One-shot digest via the compact rolled compression loop — the
/// pre-optimization kernel, retained as the reference the differential
/// suite pins the unrolled path against and as the baseline of
/// bench/device_verify's SHA-256 speedup reading.
Sha256Digest sha256_reference(ByteSpan data);

}  // namespace upkit::crypto
