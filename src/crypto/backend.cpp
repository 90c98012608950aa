#include "crypto/backend.hpp"

#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
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
// and the critical section is two hash probes (TSan runs the fleet suite).

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
    std::unordered_map<MemoKey, bool, MemoKeyHash> results;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
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

/// Consults the memo around the raw verify `fn`. Signature length is
/// checked first so malformed input never lands in the table.
template <typename Fn>
bool memoized_verify(const PublicKey& key, const Sha256Digest& digest,
                     ByteSpan signature, Fn&& fn) {
    if (!g_verify_memo_enabled.load(std::memory_order_relaxed) ||
        signature.size() != kSignatureSize) {
        return fn();
    }
    const MemoKey k = memo_key(key, digest, signature);
    VerifyMemo& memo = verify_memo();
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        auto it = memo.results.find(k);
        if (it != memo.results.end()) {
            ++memo.hits;
            return it->second;
        }
    }
    const bool ok = fn();
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        ++memo.misses;
        memo.results.emplace(k, ok);
    }
    return ok;
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

    bool verify(const PublicKey& key, const Sha256Digest& digest,
                ByteSpan signature) const override {
        return memoized_verify(key, digest, signature,
                               [&] { return ecdsa_verify(key, digest, signature); });
    }

    bool verify(const PreparedPublicKey& key, const Sha256Digest& digest,
                ByteSpan signature) const override {
        return memoized_verify(key.key(), digest, signature,
                               [&] { return ecdsa_verify(key, digest, signature); });
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
        // entry, not per pair.
        const MemoKey k1 = memo_key(key1.key(), digest1, signature1);
        const MemoKey k2 = memo_key(key2.key(), digest2, signature2);
        VerifyMemo& memo = verify_memo();
        bool have1 = false;
        bool have2 = false;
        bool v1 = false;
        bool v2 = false;
        {
            std::lock_guard<std::mutex> lock(memo.mu);
            if (auto it = memo.results.find(k1); it != memo.results.end()) {
                have1 = true;
                v1 = it->second;
            }
            if (auto it = memo.results.find(k2); it != memo.results.end()) {
                have2 = true;
                v2 = it->second;
            }
            memo.hits += static_cast<std::uint64_t>(have1) + static_cast<std::uint64_t>(have2);
        }
        if (have1 && have2) return v1 && v2;
        const bool pair_ok =
            ecdsa_verify2(key1, digest1, signature1, key2, digest2, signature2);
        if (pair_ok) {
            // Both halves proven valid by the batch; memoize the misses.
            std::lock_guard<std::mutex> lock(memo.mu);
            if (!have1) {
                ++memo.misses;
                memo.results.emplace(k1, true);
            }
            if (!have2) {
                ++memo.misses;
                memo.results.emplace(k2, true);
            }
            return true;
        }
        // The batch only rejects the pair; attribute per signature so each
        // missing half is memoized with its own verdict.
        auto resolve = [&](const PreparedPublicKey& key, const Sha256Digest& digest,
                           ByteSpan signature, const MemoKey& k) {
            const bool ok = ecdsa_verify(key, digest, signature);
            std::lock_guard<std::mutex> lock(memo.mu);
            ++memo.misses;
            memo.results.emplace(k, ok);
            return ok;
        };
        if (!have1) v1 = resolve(key1, digest1, signature1, k1);
        if (!have2) v2 = resolve(key2, digest2, signature2, k2);
        return v1 && v2;
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
