// Elementary pipeline stages (paper Fig. 5).
//
// Each stage is a ByteSink forwarding to the next; the pipeline module
// composes them. Buffer and writer are here; decompression and patching are
// the LzssDecoder and PatchApplier classes reused from their own modules —
// the same code-sharing the paper uses to keep flash budgets low.
#pragma once

#include "common/sink.hpp"
#include "crypto/sha256.hpp"
#include "slots/slot.hpp"

namespace upkit::pipeline {

/// Buffer stage: accumulates bytes and releases them in `capacity`-sized
/// chunks. Matching the capacity to the flash sector size yields fewer,
/// larger writes (paper Sect. IV-C); the ablation bench sweeps it.
class BufferStage final : public ByteSink {
public:
    BufferStage(ByteSink& downstream, std::size_t capacity)
        : downstream_(downstream), capacity_(capacity) {
        buffer_.reserve(capacity);
    }

    Status write(ByteSpan data) override;
    Status finish() override;

private:
    ByteSink& downstream_;
    std::size_t capacity_;
    Bytes buffer_;
};

/// Writer stage: the last stage; pushes chunks into an open slot handle
/// (SEQUENTIAL_REWRITE erases sectors as the write head reaches them).
class WriterStage final : public ByteSink {
public:
    explicit WriterStage(slots::SlotHandle& handle) : handle_(handle) {}

    Status write(ByteSpan data) override {
        ++chunks_;
        return handle_.write(data);
    }

    std::uint64_t chunks_written() const { return chunks_; }

private:
    slots::SlotHandle& handle_;
    std::uint64_t chunks_ = 0;
};

/// Pass-through stage computing the SHA-256 of everything that flows by.
/// Placed after the patching stage so the digest covers the *reconstructed
/// firmware* — the bytes the manifest's digest field signs — even when the
/// transport carried a compressed patch.
class DigestTee final : public ByteSink {
public:
    explicit DigestTee(ByteSink& downstream) : downstream_(downstream) {}

    Status write(ByteSpan data) override {
        hasher_.update(data);
        bytes_ += data.size();
        return downstream_.write(data);
    }

    Status finish() override {
        digest_ = hasher_.finalize();
        return downstream_.finish();
    }

    const crypto::Sha256Digest& digest() const { return digest_; }
    std::uint64_t bytes_seen() const { return bytes_; }

private:
    ByteSink& downstream_;
    crypto::Sha256 hasher_;
    crypto::Sha256Digest digest_{};
    std::uint64_t bytes_ = 0;
};

}  // namespace upkit::pipeline
