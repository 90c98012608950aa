#include "pipeline/chunk_stage.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/sha256.hpp"

namespace upkit::pipeline {

std::size_t ChunkPlan::max_air_chunk() const {
    std::size_t largest = 0;
    for (const Entry& e : entries) {
        if (!e.local) largest = std::max<std::size_t>(largest, e.ref.length);
    }
    return largest;
}

std::vector<AirChunk> ChunkPlan::air_chunks() const {
    std::vector<AirChunk> out;
    std::uint64_t wire = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].local) continue;
        out.push_back({static_cast<std::uint32_t>(i), wire, entries[i].ref.length});
        wire += entries[i].ref.length;
    }
    return out;
}

ChunkStage::ChunkStage(const ChunkPlan& plan, const RandomReader* old_image,
                       ByteSink& downstream)
    : plan_(plan), old_image_(old_image), downstream_(downstream) {
    buffer_.reserve(plan.max_air_chunk());
}

Status ChunkStage::drain_local() {
    Bytes scratch;
    while (index_ < plan_.entries.size() && plan_.entries[index_].local) {
        const ChunkPlan::Entry& e = plan_.entries[index_];
        assert(old_image_ != nullptr && "local chunk without installed image");
        scratch.resize(e.ref.length);
        UPKIT_RETURN_IF_ERROR(old_image_->read_at(e.old_offset, MutByteSpan(scratch)));
        // The have-list matches on the 64-bit digest prefix; confirm the
        // full digest here so a prefix collision (or a corrupted installed
        // image) cannot smuggle wrong bytes into the new image. This is
        // not recoverable by re-request — the server believes we hold the
        // chunk — so it is a hard kBadDigest, unlike the air-chunk path.
        if (crypto::Sha256::digest(scratch) != e.ref.digest) return Status::kBadDigest;
        UPKIT_RETURN_IF_ERROR(downstream_.write(scratch));
        local_bytes_ += e.ref.length;
        ++index_;
    }
    return Status::kOk;
}

Status ChunkStage::write(ByteSpan data) {
    UPKIT_RETURN_IF_ERROR(drain_local());
    while (!data.empty()) {
        if (index_ >= plan_.entries.size()) return Status::kSizeExceeded;
        const ChunkPlan::Entry& e = plan_.entries[index_];
        const std::size_t need = e.ref.length - buffer_.size();
        const std::size_t take = std::min(need, data.size());
        append(buffer_, data.subspan(0, take));
        data = data.subspan(take);
        if (buffer_.size() < e.ref.length) break;
        if (crypto::Sha256::digest(buffer_) != e.ref.digest) {
            // Drop the bad bytes; downstream never saw them, and index_
            // still points at this chunk so a re-sent copy slots in.
            buffer_.clear();
            return Status::kChunkDigestMismatch;
        }
        UPKIT_RETURN_IF_ERROR(downstream_.write(buffer_));
        committed_air_ += e.ref.length;
        buffer_.clear();
        ++index_;
        UPKIT_RETURN_IF_ERROR(drain_local());
    }
    return Status::kOk;
}

Status ChunkStage::finish() {
    UPKIT_RETURN_IF_ERROR(drain_local());
    if (index_ != plan_.entries.size() || !buffer_.empty()) return Status::kTruncatedImage;
    return downstream_.finish();
}

}  // namespace upkit::pipeline
