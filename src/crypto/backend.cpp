#include "crypto/backend.hpp"

#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"

namespace upkit::crypto {

namespace {

// --- verify memo ---------------------------------------------------------
//
// Keyed by the full 160-byte (pubkey || digest || signature) triple so a
// hit can never alias a different verification. The triple is folded to a
// 128-bit FNV pair for the table key; at the few-million entries a 1M-device
// campaign produces, a collision needs ~2^64 entries — not a concern. The
// map is guarded by a plain mutex: verify() calls come from shard workers,
// and each critical section is one hash probe or insert (TSan runs the
// fleet suite).

struct MemoKey {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const MemoKey& o) const { return lo == o.lo && hi == o.hi; }
};

struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const {
        return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9E3779B97F4A7C15ull));
    }
};

struct VerifyMemo {
    std::mutex mu;
    std::unordered_map<MemoKey, bool, MemoKeyHash> results;  // lint: guarded-by(mu)
    std::uint64_t hits = 0;                                   // lint: guarded-by(mu)
    std::uint64_t misses = 0;                                 // lint: guarded-by(mu)
};

VerifyMemo& verify_memo() {
    static VerifyMemo memo;
    return memo;
}

std::atomic<bool> g_verify_memo_enabled{false};

MemoKey memo_key(const PublicKey& key, const Sha256Digest& digest, ByteSpan signature) {
    std::array<std::uint8_t, kPublicKeySize + kSha256DigestSize + kSignatureSize> buf{};
    const auto pub = key.to_bytes();
    std::memcpy(buf.data(), pub.data(), pub.size());
    std::memcpy(buf.data() + pub.size(), digest.data(), digest.size());
    std::memcpy(buf.data() + pub.size() + digest.size(), signature.data(),
                signature.size());
    MemoKey k{0xCBF29CE484222325ull, 0x84222325CBF29CE4ull};
    for (const std::uint8_t b : buf) {
        k.lo = (k.lo ^ b) * 0x100000001B3ull;
        k.hi = (k.hi ^ b) * 0x100000001B3ull;
        k.hi ^= k.hi >> 29;
    }
    return k;
}

/// Looks k up, counting a hit when the memo holds it.
std::optional<bool> memo_find(VerifyMemo& memo, const MemoKey& k) {
    std::lock_guard<std::mutex> lock(memo.mu);
    const auto it = memo.results.find(k);
    if (it == memo.results.end()) return std::nullopt;
    ++memo.hits;
    return it->second;
}

/// Stores k's verdict. A miss is counted only when this insert wins; a
/// caller that lost the race to another thread inserting the same triple
/// counts a hit. Every lookup thus counts once, and misses equal the
/// number of distinct triples, whatever the thread interleaving.
void memo_store(VerifyMemo& memo, const MemoKey& k, bool ok) {
    std::lock_guard<std::mutex> lock(memo.mu);
    if (memo.results.emplace(k, ok).second) {
        ++memo.misses;
    } else {
        ++memo.hits;
    }
}

/// Verifies a triple the memo did not hold and stores its own verdict.
bool memo_verify(VerifyMemo& memo, const MemoKey& k, const PreparedPublicKey& key,
                 const Sha256Digest& digest, ByteSpan signature) {
    const bool ok = ecdsa_verify(key, digest, signature);
    memo_store(memo, k, ok);
    return ok;
}

/// Consults the memo around ecdsa_verify. Signature length is checked
/// first so malformed input never lands in the table.
bool memoized_verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                     ByteSpan signature) {
    if (!g_verify_memo_enabled.load(std::memory_order_relaxed) ||
        signature.size() != kSignatureSize) {
        return ecdsa_verify(key, digest, signature);
    }
    const MemoKey k = memo_key(key.key(), digest, signature);
    VerifyMemo& memo = verify_memo();
    if (const std::optional<bool> known = memo_find(memo, k)) return *known;
    return memo_verify(memo, k, key, digest, signature);
}

/// Both software libraries wrap the same from-scratch ECDSA core (that code
/// sharing is the point of the security interface); they differ in the
/// measured execution profile of the real libraries on Cortex-M4.
class SoftwareBackend : public CryptoBackend {
public:
    SoftwareBackend(std::string_view name, const BackendCosts& costs)
        : name_(name), costs_(costs) {}

    std::string_view name() const override { return name_; }
    BackendCosts costs() const override { return costs_; }

    bool verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                ByteSpan signature) const override {
        return memoized_verify(key, digest, signature);
    }

    bool verify2(const PreparedPublicKey& key1, const Sha256Digest& digest1,
                 ByteSpan signature1, const PreparedPublicKey& key2,
                 const Sha256Digest& digest2, ByteSpan signature2) const override {
        if (!g_verify_memo_enabled.load(std::memory_order_relaxed) ||
            signature1.size() != kSignatureSize || signature2.size() != kSignatureSize) {
            return ecdsa_verify2(key1, digest1, signature1, key2, digest2, signature2);
        }
        // Per-signature memo: the batch answers "both valid?", but the memo
        // stores individual verdicts (a later single verify of either half
        // must see the same answer), so hits and misses are counted per
        // entry, not per pair. A pair with one half known verifies only
        // the other; only a pair with both halves unknown pays for the
        // batch.
        const MemoKey k1 = memo_key(key1.key(), digest1, signature1);
        const MemoKey k2 = memo_key(key2.key(), digest2, signature2);
        VerifyMemo& memo = verify_memo();
        std::optional<bool> v1 = memo_find(memo, k1);
        std::optional<bool> v2 = memo_find(memo, k2);
        if (!v1 && !v2 &&
            ecdsa_verify2(key1, digest1, signature1, key2, digest2, signature2)) {
            // Both halves proven valid by the batch.
            memo_store(memo, k1, true);
            memo_store(memo, k2, true);
            return true;
        }
        // One half is known, or the batch rejected the pair: each missing
        // half is verified alone and memoized with its own verdict.
        if (!v1) v1 = memo_verify(memo, k1, key1, digest1, signature1);
        if (!v2) v2 = memo_verify(memo, k2, key2, digest2, signature2);
        return *v1 && *v2;
    }

    Expected<Signature> sign(const PrivateKey& key,
                             const Sha256Digest& digest) const override {
        return ecdsa_sign(key, digest);
    }

private:
    std::string_view name_;
    BackendCosts costs_;
};

// Host speedups of this repo's verification kernels over their
// pre-optimisation references: prepared-key verify vs comb u1*G plus
// generic ladder u2*P, verify2 vs two prepared verifies, unrolled vs
// rolled SHA-256. Each is the median of 21 processes on a 4-vCPU Intel
// Xeon VM (RelWithDebInfo). They are constants so that the calibrated
// model is the same on every host; bench/device_verify prints the live
// readings.
constexpr double kVerifySpeedup = 2.45;
constexpr double kVerify2Speedup = 1.44;
constexpr double kSha256Speedup = 1.09;

}  // namespace

void set_verify_memo_enabled(bool enabled) {
    g_verify_memo_enabled.store(enabled, std::memory_order_relaxed);
}

bool verify_memo_enabled() {
    return g_verify_memo_enabled.load(std::memory_order_relaxed);
}

void verify_memo_reset() {
    VerifyMemo& memo = verify_memo();
    std::lock_guard<std::mutex> lock(memo.mu);
    memo.results.clear();
    memo.hits = 0;
    memo.misses = 0;
}

VerifyMemoStats verify_memo_stats() {
    VerifyMemo& memo = verify_memo();
    std::lock_guard<std::mutex> lock(memo.mu);
    return {memo.hits, memo.misses};
}

BackendCosts calibrate_software_costs(const BackendCosts& baseline) {
    BackendCosts out = baseline;
    out.verify_seconds = baseline.verify_seconds / kVerifySpeedup;
    // The batch pass prices the signature *pair*: the modelled MCU is
    // assumed to gain what the host gained from sharing one doubling walk
    // and one inversion across both signatures.
    out.verify2_seconds = 2.0 * out.verify_seconds / kVerify2Speedup;
    out.sha256_seconds_per_kb = baseline.sha256_seconds_per_kb / kSha256Speedup;
    return out;
}

std::unique_ptr<CryptoBackend> make_tinydtls_backend() {
    // TinyDTLS ships a compact, unoptimized ECC: smallest flash, slowest.
    return std::make_unique<SoftwareBackend>(
        "tinydtls", BackendCosts{.sign_seconds = 0.310,
                                 .verify_seconds = 0.360,
                                 .sha256_seconds_per_kb = 0.0016,
                                 .active_current_ma = 0.0});
}

std::unique_ptr<CryptoBackend> make_tinycrypt_backend() {
    // tinycrypt trades ~1.1 kB more flash for faster fixed-window ECC.
    return std::make_unique<SoftwareBackend>(
        "tinycrypt", BackendCosts{.sign_seconds = 0.230,
                                  .verify_seconds = 0.270,
                                  .sha256_seconds_per_kb = 0.0013,
                                  .active_current_ma = 0.0});
}

std::unique_ptr<CryptoBackend> make_tinydtls_backend(const BackendCosts& costs) {
    return std::make_unique<SoftwareBackend>("tinydtls", costs);
}

std::unique_ptr<CryptoBackend> make_tinycrypt_backend(const BackendCosts& costs) {
    return std::make_unique<SoftwareBackend>("tinycrypt", costs);
}

}  // namespace upkit::crypto
