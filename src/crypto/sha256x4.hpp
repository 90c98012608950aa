// Multi-buffer SHA-256: up to four independent digests in one pass.
//
// The server digests many unrelated buffers at once — every chunk of a
// published image, every chunk a store ingest validates, both halves of a
// delta endpoint — and a single-stream kernel leaves lanes idle: the SHA-256
// round has a long dependency chain, so four interleaved message streams
// fill the ALU ports a lone stream cannot. The entry follows the process's
// one kernel choice (sha256_impl(), sha256.hpp):
//
//   generic        — four SWAR lanes in 4x32-bit vectors (GCC/Clang vector
//                    extensions; SSE2 / NEON codegen, plain scalar
//                    elsewhere), with stragglers finished by the generic
//                    single-stream kernel. Always available, and the
//                    reference the gates count.
//   SHA-NI / NEON  — one hardware stream already saturates the SHA unit, so
//                    the lanes run in turn through Sha256::digest.
//
// UPKIT_FORCE_SCALAR_SHA, read once with the kernel choice, pins the
// generic lanes for the whole process; tests and benches that compare the
// two call sha256x4_digest_generic by name. Lanes are independent streams:
// ragged lengths are handled by per-lane padding. Output is byte-identical
// to Sha256::digest on every lane — the digest_agreement differential
// battery pins both paths against a rolled reference kernel in
// tests/support/.
#pragma once

#include <cstddef>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace upkit::crypto {

/// Digests `count` (<= 4) independent buffers into out[0..count). Lanes may
/// have any lengths, including zero.
void sha256x4_digest(const ByteSpan* data, Sha256Digest* out, std::size_t count);

/// The generic SWAR lanes, whatever the dispatch chose; `count` <= 4.
void sha256x4_digest_generic(const ByteSpan* data, Sha256Digest* out, std::size_t count);

/// Any-count convenience: feeds batches of four through sha256x4_digest.
void sha256_multi(const ByteSpan* data, Sha256Digest* out, std::size_t count);

}  // namespace upkit::crypto
