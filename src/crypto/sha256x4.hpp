// Multi-buffer SHA-256: up to four independent digests in one pass.
//
// The server digests many unrelated buffers at once — every chunk of a
// published image, every chunk a store ingest validates, both halves of a
// delta endpoint — and a single-stream kernel leaves lanes idle: the SHA-256
// round has a long dependency chain, so four interleaved message streams
// fill the ALU ports a lone stream cannot. Three implementations sit behind
// one runtime-dispatched entry point:
//
//   kGeneric — four SWAR lanes in 4x32-bit vectors (GCC/Clang vector
//              extensions; SSE2 / NEON codegen, plain scalar elsewhere).
//              Always available, and the reference the gates count.
//   kShaNi  — x86 SHA extensions, four sequential hardware-round streams
//             (one sha256rnds2 stream already saturates the unit).
//   kNeon   — AArch64 sha2 intrinsics, same structure.
//
// Dispatch is by CPUID / hwcaps at first use; setting UPKIT_FORCE_SCALAR_SHA
// (checked per call) pins the generic lanes so CI exercises both paths on
// any runner. Lanes are independent streams: ragged lengths are handled by
// per-lane padding, with stragglers finished by the single-stream
// sha256_compress kernel. Output is byte-identical to Sha256::digest on
// every lane — the digest_agreement differential battery pins all three
// implementations against a rolled reference kernel in tests/support/.
#pragma once

#include <cstddef>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace upkit::crypto {

/// Implementation the next sha256x4_digest call will dispatch to.
enum class Sha256x4Impl { kGeneric, kShaNi, kNeon };

/// Runtime dispatch verdict: hardware detection happens once, the
/// UPKIT_FORCE_SCALAR_SHA override is re-read on every call.
Sha256x4Impl sha256x4_impl();

/// Stable short name for reports ("generic", "sha-ni", "neon").
const char* sha256x4_impl_name(Sha256x4Impl impl);

/// Digests `count` (<= 4) independent buffers into out[0..count). Lanes may
/// have any lengths, including zero.
void sha256x4_digest(const ByteSpan* data, Sha256Digest* out, std::size_t count);

/// Any-count convenience: feeds batches of four through sha256x4_digest.
void sha256_multi(const ByteSpan* data, Sha256Digest* out, std::size_t count);

}  // namespace upkit::crypto
