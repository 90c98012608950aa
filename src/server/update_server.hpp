// Update server (paper Fig. 2, steps 2-7).
//
// Holds published releases, announces new versions, and — per device
// request — binds an update image to the requesting device's token by
// adding ID / nonce / old-version to the manifest and signing the result
// (the second half of the double signature). When the token advertises a
// current version, the server derives a bsdiff delta against that release
// and LZSS-compresses it; otherwise it ships the full image.
//
// The request path is the fleet-scale hot path, so the expensive,
// token-independent work is cached content-addressed:
//  - chunk store: every published image's content-defined chunks, keyed by
//    chunk SHA-256 and refcounted across releases (server/chunk_store.hpp).
//    A device that reports the chunk digests it already holds (have/want
//    negotiation) is served only the missing chunks — payload bytes dedup
//    across versions and across endpoints. This replaces the retired
//    per-endpoint-pair bsdiff cache, which the response cache had starved
//    to a 0% hit rate by construction;
//  - response cache: serialized response envelopes keyed by the release
//    and transport shape (including the have-list hash for chunked
//    responses); per request only the token-dependent bytes (device ID,
//    nonce, server signature) are re-filled and re-signed.
// The per-request freshness signature is the one cost that can never be
// cached — which is exactly why mul_base runs off a comb table now.
#pragma once

#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "compress/lzss.hpp"
#include "crypto/ecdsa.hpp"
#include "server/chunk_store.hpp"
#include "server/vendor_server.hpp"
#include "sim/chaos.hpp"
#include "sim/trace.hpp"

namespace upkit::server {

/// Per-request accounting of what the server actually did, so campaign
/// simulations can charge a measured service time instead of a constant.
struct ServiceReceipt {
    unsigned sign_ops = 0;           // ECDSA signatures issued
    bool delta_attempted = false;    // bsdiff + LZSS ran for this request
    bool response_cache_hit = false; // envelope served from the response cache
    std::size_t payload_bytes = 0;
    /// Bytes fed to bsdiff when a delta was generated (old + new image).
    std::size_t delta_input_bytes = 0;
    /// Chunked (have/want) responses: payload assembled from the chunk
    /// store, counting only the chunks the device was missing.
    bool chunked = false;
    unsigned chunks_sent = 0;
    std::size_t chunk_bytes_deduped = 0;  // bytes skipped: device already had them
};

/// What travels to the device (via smartphone/gateway or directly).
struct UpdateResponse {
    manifest::Manifest manifest;
    Bytes manifest_bytes;  // wire manifest (native 200-byte or SUIT CBOR)
    Bytes payload;         // full firmware, or LZSS-compressed patch
    /// manifest_bytes is a SUIT envelope instead of the native format.
    bool suit_encoding = false;
    ServiceReceipt receipt;
};

/// Cumulative counters over the server's lifetime (campaigns snapshot and
/// diff them; see core::CampaignReport).
struct ServerStats {
    std::uint64_t requests = 0;            // prepare_update calls
    std::uint64_t sign_ops = 0;            // per-request freshness signatures
    std::uint64_t delta_generations = 0;   // bsdiff + LZSS runs (uncached)
    std::uint64_t response_hits = 0;
    std::uint64_t response_misses = 0;
    std::uint64_t response_evictions = 0;
    /// Chunk-store serving counters (have/want responses).
    std::uint64_t chunked_responses = 0;
    std::uint64_t chunk_hits = 0;          // chunks served from the store
    std::uint64_t chunk_misses = 0;        // fell back to slicing the release image
    std::uint64_t chunks_served = 0;
    std::uint64_t chunk_bytes_served = 0;
    std::uint64_t chunk_bytes_deduped = 0; // bytes devices already held
    std::uint64_t key_rotations = 0;       // device key re-registrations
    std::uint64_t publish_verifies = 0;    // vendor-signature checks at publish
};

/// Operational model of the server deployment, for campaign simulation.
///
/// prepare_update() itself is a pure function; what a rollout at scale
/// contends for is the deployment serving it. A request occupies one of
/// `concurrency` service slots for its service time; requests beyond that
/// wait in a FIFO admission queue (managed by the fleet engine, which is
/// where queueing delay and queue-depth statistics are measured).
///
/// A request's service time is one formula over what it cost, read from
/// its ServiceReceipt: a fixed part, the signatures issued, the payload
/// dispatched, and the delta generation when one ran. With the
/// per-operation costs at zero it is the plain fixed + per-KB charge. The
/// costs are fields the caller sets (bench/server_hotpath commits host
/// medians), so the model is a pure function and reruns stay
/// byte-identical.
struct ServerModel {
    /// Requests serviced simultaneously; 0 = unbounded (no contention).
    unsigned concurrency = 0;
    /// Fixed per-request service time (token check, cache lookup, dispatch).
    double service_time_s = 0.0;
    /// Added per KB of response payload (serialization, compression, I/O).
    double service_per_kb_s = 0.0;
    /// Added per ECDSA signature the request issued.
    double sign_s = 0.0;
    /// Added per KB of bsdiff + LZSS input when the request generated a delta.
    double delta_gen_per_kb_s = 0.0;

    /// Seeded fault plan for the deployment (outage windows make the server
    /// unreachable; see sim/chaos.hpp). Not owned — the caller keeps the
    /// plan alive across the campaign (set_model copies this struct, so the
    /// plan itself must not be a member). Null = no faults.
    const sim::ChaosPlan* chaos = nullptr;

    /// Service time of a request with no receipt (it was refused).
    double service_seconds(std::size_t payload_bytes) const {
        return service_time_s +
               service_per_kb_s * static_cast<double>(payload_bytes) / 1024.0;
    }

    double service_seconds(const ServiceReceipt& receipt) const {
        double s = service_time_s + sign_s * receipt.sign_ops +
                   service_per_kb_s * static_cast<double>(receipt.payload_bytes) / 1024.0;
        if (receipt.delta_attempted) {
            s += delta_gen_per_kb_s *
                 static_cast<double>(receipt.delta_input_bytes) / 1024.0;
        }
        return s;
    }
};

/// A device encryption key was replaced (register_device_key on an
/// already-registered device with a different key).
struct KeyRotation {
    std::uint32_t device_id = 0;
    /// 1 for the first rotation of a device, 2 for the second, ...
    std::uint32_t generation = 0;
};

class UpdateServer {
public:
    explicit UpdateServer(ByteSpan key_seed)
        : key_(crypto::PrivateKey::generate(key_seed)) {}

    crypto::PublicKey public_key() const { return key_.public_key(); }

    /// Trust anchor for publish-time verification. Once set, publish()
    /// rejects releases whose vendor signature or firmware digest does not
    /// check out — a compromised build pipeline is caught at ingest, not on
    /// ten thousand devices. The key is held in prepared (interned) form,
    /// so every publish reuses one precomputed verification table.
    void set_vendor_key(const crypto::PublicKey& key);

    /// Publishes a vendor-signed release. Past versions are retained so
    /// deltas can be derived against whatever a device currently runs.
    /// With a vendor key set (set_vendor_key), the release is verified
    /// first: kBadVendorSignature / kBadDigest on failure. A chunked
    /// release (manifest carries a chunk table) is structurally validated,
    /// its per-chunk digests checked against the image, and its chunks
    /// ingested into the content-addressed store.
    Status publish(Release release);

    /// Unpublishes one release and drops its chunk-store references;
    /// chunks no other release shares are freed. Cached response
    /// envelopes are invalidated wholesale (retirement is rare).
    Status retire_release(std::uint32_t app_id, std::uint16_t version);

    /// The latest version available for `app_id` (the "announcement").
    std::optional<std::uint16_t> latest_version(std::uint32_t app_id) const;

    /// Builds the device-bound, doubly-signed update image for a token.
    Expected<UpdateResponse> prepare_update(std::uint32_t app_id,
                                            const manifest::DeviceToken& token) const;

    /// Same, but bound to a specific published version instead of the
    /// latest (kNotFound when unpublished). Factory provisioning uses this:
    /// a synthetic fleet built after version N+1 is announced still boots
    /// from a version-N image, exactly like hardware that left the factory
    /// before the campaign.
    Expected<UpdateResponse> prepare_update(std::uint32_t app_id,
                                            const manifest::DeviceToken& token,
                                            std::uint16_t version) const;

    compress::LzssParams lzss_params() const { return lzss_params_; }
    void set_lzss_params(const compress::LzssParams& params) {
        const std::lock_guard<std::mutex> lock(mu_);
        lzss_params_ = params;
        invalidate_caches();  // cached patches were compressed with the old params
    }

    /// Service model used by campaign simulations (defaults to an ideal,
    /// uncontended server so single-session experiments are unaffected).
    const ServerModel& model() const { return model_; }
    void set_model(const ServerModel& model) { model_ = model; }

    // --- hot-path caches --------------------------------------------------

    /// Response-cache LRU capacity in entries; 0 disables the cache.
    /// Changing the capacity drops the existing entries.
    void set_response_cache_capacity(std::size_t entries);

    /// Snapshot of the counters, taken under the server mutex (by value:
    /// a reference would race with concurrent prepare_update calls).
    ServerStats stats() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

    /// Chunk-store occupancy/dedup snapshot (unique vs logical bytes —
    /// the storage-side dedup ratio).
    ChunkStore::Stats chunk_store_stats() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return chunk_store_.stats();
    }

    // --- confidentiality extension --------------------------------------

    /// Registers a device's long-term encryption public key; responses to
    /// that device are ChaCha20-encrypted under an ECDH-derived content key
    /// once encryption is enabled. Re-registering a *different* key is a
    /// key rotation: it is counted, logged (key_rotations()), traced when a
    /// tracer is attached, and all subsequent responses seal to the new key
    /// only — a device still holding the stale key fails the AEAD tag.
    /// Returns true when an existing, different key was replaced.
    bool register_device_key(std::uint32_t device_id, const crypto::PublicKey& key);

    /// Rotation log, in the order rotations happened.
    const std::vector<KeyRotation>& key_rotations() const { return key_rotations_; }

    void set_encryption_enabled(bool enabled) { encrypt_ = enabled; }

    /// Serve manifests as SUIT/CBOR envelopes (interop mode). The vendor
    /// pre-signed the SUIT to-be-signed bytes at release time; the server
    /// signs the envelope per request, exactly as in the native format.
    void set_suit_mode(bool enabled) { suit_mode_ = enabled; }

    /// Server-side administrative events (currently key rotations) are
    /// emitted here; campaign engines attach their own tracer separately.
    void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }

private:
    /// Everything in a response that does not depend on the device token.
    struct ResponseKey {
        std::uint32_t app_id = 0;
        std::uint16_t version = 0;
        std::uint16_t old_version = 0;  // 0 for full-image and chunked responses
        bool differential = false;
        bool chunked = false;
        /// FNV-1a over the have-list (chunked responses only): devices
        /// holding the same chunks share one cached envelope.
        std::uint64_t have_hash = 0;
        auto operator<=>(const ResponseKey&) const = default;
    };

    struct ResponseEntry {
        ResponseKey key;
        manifest::Manifest manifest;  // token fields + server signature stale
        Bytes manifest_bytes;         // native wire form (200 B + chunk table)
        Bytes payload;
    };

    /// Shared body of both prepare_update overloads; the caller holds mu_.
    /// `target` of 0 means "latest".
    Expected<UpdateResponse> prepare_update_locked(std::uint32_t app_id,
                                                   const manifest::DeviceToken& token,
                                                   std::uint16_t target) const;

    UpdateResponse finalize(manifest::Manifest m, Bytes payload,
                            const crypto::Signature& suit_vendor_sig,
                            ServiceReceipt receipt) const;
    /// Wraps `payload` as [ephemeral pub (64)] [ciphertext] when the device
    /// has a registered key; returns whether it did.
    bool maybe_encrypt(const manifest::DeviceToken& token, Bytes& payload) const;

    /// Generates the bsdiff+LZSS patch for base -> latest (nullopt when
    /// generation fails). Uncached: the response cache absorbs repeats,
    /// and the retired delta cache never hit behind it.
    std::optional<Bytes> compressed_delta(const Release& base, const Release& latest,
                                          ServiceReceipt& receipt) const;

    /// Assembles the missing-chunk payload for a chunked release against a
    /// device have-list. Updates chunk counters and `receipt`.
    Bytes assemble_chunks(const Release& release, const manifest::DeviceToken& token,
                          ServiceReceipt& receipt) const;

    /// Response-cache fast path: re-fills token fields + signature in a
    /// cached envelope. Only serves native-format, unencrypted responses.
    std::optional<UpdateResponse> response_from_cache(
        const ResponseKey& key, const manifest::DeviceToken& token,
        ServiceReceipt receipt) const;
    void store_response(const ResponseKey& key, const UpdateResponse& response) const;

    void invalidate_caches();

    crypto::PrivateKey key_;
    crypto::PreparedPublicKey vendor_key_;  // invalid until set_vendor_key
    std::map<std::uint32_t, std::map<std::uint16_t, Release>> releases_;  // app -> version
    compress::LzssParams lzss_params_{};
    ServerModel model_{};

    bool encrypt_ = false;
    bool suit_mode_ = false;
    std::map<std::uint32_t, crypto::PublicKey> device_keys_;
    std::map<std::uint32_t, std::uint32_t> device_key_generation_;
    std::vector<KeyRotation> key_rotations_;
    sim::Tracer* tracer_ = nullptr;
    mutable std::uint64_t ephemeral_counter_ = 0;

    /// One coarse mutex over the mutable state (caches, counters, the
    /// ephemeral-key counter, release/key maps). prepare_update holds it
    /// end to end: the deployment's real concurrency is modelled by
    /// ServerModel service slots, so the in-process lock is about memory
    /// safety (TSan-clean fleet engines), not throughput. The private
    /// helpers below assume the caller holds it.
    mutable std::mutex mu_;

    // Response LRU cache: most recent at the list front; the map points
    // into the list. Mutable: prepare_update is logically const (same
    // token -> same response bytes); caches and counters are bookkeeping.
    std::size_t response_capacity_ = 64;
    mutable std::list<ResponseEntry> response_lru_;
    mutable std::map<ResponseKey, std::list<ResponseEntry>::iterator> response_index_;
    /// Content-addressed chunks of every published chunked release.
    ChunkStore chunk_store_;
    mutable ServerStats stats_;
};

}  // namespace upkit::server
