// bsdiff-style delta generation (server side).
//
// Classic bsdiff (Colin Percival) emits three separately-compressed streams,
// which cannot be applied incrementally. UpKit's pipeline applies patches
// on-the-fly as chunks arrive over the radio, so this implementation uses a
// single interleaved stream:
//
//   header:  "UPDIFF1\0" (8) | new_size u64 LE | old_size u64 LE
//   records: ctrl { diff_len u32 | extra_len u32 | seek i32 } (12 bytes LE)
//            followed by diff_len delta bytes, then extra_len literal bytes.
//
// Semantics per record (identical to bsdiff's control triples):
//   new[new_pos + i] = old[old_pos + i] + diff[i]   for i < diff_len
//   new[new_pos + diff_len + j] = extra[j]          for j < extra_len
//   old_pos += diff_len + seek;  new_pos += diff_len + extra_len
//
// The patch is then LZSS-compressed for transport, standing in for bsdiff's
// bzip2 (paper Sect. IV-C: decompression stage feeds the patching stage).
#pragma once

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace upkit::diff {

inline constexpr std::size_t kPatchHeaderSize = 24;
inline constexpr std::size_t kControlSize = 12;
inline constexpr char kPatchMagic[8] = {'U', 'P', 'D', 'I', 'F', 'F', '1', '\0'};

/// Generates an (uncompressed) patch transforming `old_image` into
/// `new_image`.
Expected<Bytes> bsdiff(ByteSpan old_image, ByteSpan new_image);

}  // namespace upkit::diff
