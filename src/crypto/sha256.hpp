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

/// FIPS 180-4 round constants and initial hash value, shared by every
/// SHA-256 kernel in the repo (the generic and hardware compressions below
/// and the multi-buffer lanes of sha256x4).
inline constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
inline constexpr std::array<std::uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// The compression kernels a process can run.
enum class Sha256Impl { kGeneric, kShaNi, kNeon };

/// The kernel sha256_compress dispatches to, chosen once per process at
/// first use: the x86-64 SHA extensions or the ARMv8 SHA2 instructions when
/// the CPU has them (CPUID / hwcaps), the generic kernel otherwise.
/// UPKIT_FORCE_SCALAR_SHA, set to anything but "" or "0" when the choice is
/// made, pins the generic kernel; it is read then and never again. Under
/// MemorySanitizer (ct.hpp) the hardware kernels are not compiled, so the
/// ctcheck build audits instrumented C++ rather than intrinsics.
Sha256Impl sha256_impl();

/// Stable short name for reports ("generic", "sha-ni", "neon").
const char* sha256_impl_name(Sha256Impl impl);

/// Compresses `blocks` consecutive 64-byte blocks into `state` through the
/// dispatched kernel: the one SHA-256 block entry every digest, HMAC and
/// multi-buffer lane in the repo runs. No padding — callers own it.
void sha256_compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                     std::size_t blocks);

/// The portable kernel, whatever the dispatch chose: fully unrolled, working
/// state in registers across the whole run, the schedule a 16-word ring,
/// message words loaded 4 bytes at a time. Tests and benches name it to
/// compare it with the dispatched kernel.
void sha256_compress_generic(std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
                             std::size_t blocks);

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
    std::array<std::uint32_t, 8> state_{};
    std::array<std::uint8_t, kSha256BlockSize> buffer_{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bytes_ = 0;
};

}  // namespace upkit::crypto
