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
// token-independent work is cached or counted once:
//  - response cache: serialized response envelopes keyed by the release
//    and transport shape (including the have-list hash for chunked
//    responses); per request only the token-dependent bytes (device ID,
//    nonce, server signature) are re-filled and re-signed. Every shape
//    (chunked, differential, full image) takes the same cache-or-build
//    path: one lookup, and on a miss one seal-sign-store step;
//  - chunked releases: publish() checks a release's chunk table once (it
//    must tile the image the release carries, and every chunk must hash to
//    its digest), and a device that reports the chunk digests it already
//    holds (have/want negotiation) is served only the missing chunks,
//    sliced from the retained release. The chunk index
//    (server/chunk_store.hpp) counts the distinct chunks across releases
//    for the storage dedup statistics; the releases hold the bytes, and
//    the serve path never reads the index.
// The per-request freshness signature is the one cost that can never be
// cached — which is exactly why mul_base runs off a comb table now, and why
// it is the one step prepare_update runs outside the server mutex.
#pragma once

#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "server/chunk_store.hpp"
#include "server/vendor_server.hpp"
#include "sim/chaos.hpp"
#include "sim/trace.hpp"
#include "suit/suit.hpp"

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
    /// Chunked (have/want) responses: payload sliced from the release,
    /// counting only the chunks the device was missing.
    bool chunked = false;
    unsigned chunks_sent = 0;
    std::size_t chunk_bytes_deduped = 0;  // bytes skipped: device already had them
};

/// What travels to the device (via smartphone/gateway or directly).
struct UpdateResponse {
    manifest::Manifest manifest;
    Bytes manifest_bytes;  // wire manifest (native 200-byte or SUIT CBOR)
    Bytes payload;         // full firmware, or LZSS-compressed patch
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
    /// Chunked-response serving counters (have/want responses).
    std::uint64_t chunked_responses = 0;
    std::uint64_t chunk_hits = 0;          // chunks served (equals chunks_served)
    std::uint64_t chunk_misses = 0;        // always 0: every served chunk was checked at publish
    std::uint64_t chunks_served = 0;
    std::uint64_t chunk_bytes_served = 0;
    std::uint64_t chunk_bytes_deduped = 0; // bytes devices already held
    std::uint64_t key_rotations = 0;       // device key re-registrations
    std::uint64_t publish_verifies = 0;    // vendor-signature checks at publish
};

/// Field-wise difference: the counts accrued between two stats() reads.
inline ServerStats operator-(const ServerStats& now, const ServerStats& then) {
    return ServerStats{
        .requests = now.requests - then.requests,
        .sign_ops = now.sign_ops - then.sign_ops,
        .delta_generations = now.delta_generations - then.delta_generations,
        .response_hits = now.response_hits - then.response_hits,
        .response_misses = now.response_misses - then.response_misses,
        .response_evictions = now.response_evictions - then.response_evictions,
        .chunked_responses = now.chunked_responses - then.chunked_responses,
        .chunk_hits = now.chunk_hits - then.chunk_hits,
        .chunk_misses = now.chunk_misses - then.chunk_misses,
        .chunks_served = now.chunks_served - then.chunks_served,
        .chunk_bytes_served = now.chunk_bytes_served - then.chunk_bytes_served,
        .chunk_bytes_deduped = now.chunk_bytes_deduped - then.chunk_bytes_deduped,
        .key_rotations = now.key_rotations - then.key_rotations,
        .publish_verifies = now.publish_verifies - then.publish_verifies,
    };
}

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
    /// The signing key is derived deterministically from `key_seed`; its
    /// public half is prepared here, once, as the trust anchor devices
    /// verify the server signature against.
    explicit UpdateServer(ByteSpan key_seed)
        : key_(crypto::PrivateKey::generate(key_seed)), public_key_(key_.public_key()) {}

    /// The prepared trust anchor: copies share one verification table.
    const crypto::PreparedPublicKey& public_key() const { return public_key_; }

    /// Trust anchor for publish-time verification. Once set, publish()
    /// rejects releases whose vendor signature or firmware digest does not
    /// check out — a compromised build pipeline is caught at ingest, not on
    /// ten thousand devices. The server keeps the vendor's handle, so every
    /// publish verifies through the table the vendor server prepared.
    void set_vendor_key(const crypto::PreparedPublicKey& key);

    /// Publishes a vendor-signed release. Past versions are retained so
    /// deltas can be derived against whatever a device currently runs.
    /// With a vendor key set (set_vendor_key), the release is verified
    /// first: kBadVendorSignature / kBadDigest on failure. A chunked
    /// release (manifest carries a chunk table) is checked once, before
    /// any chunk is served: the table must tile an image of exactly the
    /// size the release carries (kBadManifest), and every chunk must hash
    /// to its digest (kBadDigest). Its chunks are then counted in the
    /// chunk index.
    Status publish(Release release);

    /// Unpublishes one release and drops its chunk-index references;
    /// chunks no other release shares leave the index. Cached response
    /// envelopes are invalidated wholesale (retirement is rare).
    Status retire_release(std::uint32_t app_id, std::uint16_t version);

    /// The latest version available for `app_id` (the "announcement").
    std::optional<std::uint16_t> latest_version(std::uint32_t app_id) const;

    /// Builds the device-bound, doubly-signed update image for a token,
    /// from the latest release or, with a nonzero `version`, from that
    /// published version (kNotFound when unpublished). Factory
    /// provisioning pins a version: a synthetic fleet built after version
    /// N+1 is announced still boots from a version-N image, exactly like
    /// hardware that left the factory before the campaign.
    Expected<UpdateResponse> prepare_update(std::uint32_t app_id,
                                            const manifest::DeviceToken& token,
                                            std::uint16_t version = 0) const;

    /// Service model used by campaign simulations (defaults to an ideal,
    /// uncontended server so single-session experiments are unaffected).
    const ServerModel& model() const { return model_; }
    void set_model(const ServerModel& model) { model_ = model; }

    // --- hot-path counters ------------------------------------------------

    /// Snapshot of the counters, taken under the server mutex (by value:
    /// a reference would race with concurrent prepare_update calls).
    ServerStats stats() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

    /// Chunk-index occupancy/dedup snapshot (unique vs logical bytes —
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

    /// Wraps `payload` as [ephemeral pub (64)] [ciphertext] when the device
    /// has a registered key; returns whether it did.
    bool maybe_encrypt(const manifest::DeviceToken& token, Bytes& payload) const;

    /// Generates the bsdiff+LZSS patch for base -> latest; nullopt when
    /// generation fails or the patch is not worth shipping over the full
    /// image. Uncached: the response cache absorbs repeats, and the
    /// retired delta cache never hit behind it.
    std::optional<Bytes> compressed_delta(const Release& base, const Release& latest,
                                          ServiceReceipt& receipt) const;

    /// Assembles the missing-chunk payload for a chunked release against a
    /// device have-list, slicing the release image. Updates chunk counters
    /// and `receipt`.
    Bytes assemble_chunks(const Release& release, const manifest::DeviceToken& token,
                          ServiceReceipt& receipt) const;

    /// A response built under mu_ that still lacks its server signature:
    /// `tbs` is the digest the signature covers. A native envelope already
    /// sits in manifest_bytes with a placeholder signature; a SUIT response
    /// keeps its envelope, encoded once signed.
    struct UnsignedResponse {
        UpdateResponse response;
        crypto::Sha256Digest tbs{};
        std::optional<suit::Envelope> envelope;
    };

    /// Everything prepare_update does but the signature, under mu_.
    Expected<UnsignedResponse> prepare_unsigned(std::uint32_t app_id,
                                                const manifest::DeviceToken& token,
                                                std::uint16_t version) const;

    /// The cache half of every response shape: when the envelope is
    /// cacheable, the one cached under `key` with the token fields
    /// re-filled, counting the hit or the miss and the signature it will
    /// need. Only native-format, unencrypted envelopes are cacheable.
    std::optional<UnsignedResponse> cached_response(const ResponseKey& key, bool cacheable,
                                                    const manifest::DeviceToken& token,
                                                    ServiceReceipt receipt) const;

    /// The build half: binds `release` to the token in the shape `key`
    /// names, seals `payload` to the device when it has a registered key,
    /// counts the signature it will need, and caches the unsigned envelope
    /// under `key` when cacheable.
    UnsignedResponse seal_store(const ResponseKey& key, bool cacheable, const Release& release,
                                const manifest::DeviceToken& token, Bytes payload,
                                ServiceReceipt receipt) const;

    /// Signs `pending` with the server key and writes the signature into
    /// its wire bytes, for either encoding. Reads only the immutable key, so
    /// it runs without mu_: RFC 6979 makes the signature a pure function of
    /// key and digest, whichever thread computes it.
    UpdateResponse sign(UnsignedResponse pending) const;

    crypto::PrivateKey key_;
    crypto::PreparedPublicKey public_key_;
    // Invalid until set_vendor_key.
    crypto::PreparedPublicKey vendor_key_;  // lint: guarded-by(mu_)
    // app -> version -> release
    std::map<std::uint32_t, std::map<std::uint16_t, Release>> releases_;  // lint: guarded-by(mu_)
    ServerModel model_{};

    bool encrypt_ = false;
    bool suit_mode_ = false;
    std::map<std::uint32_t, crypto::PublicKey> device_keys_;        // lint: guarded-by(mu_)
    std::map<std::uint32_t, std::uint32_t> device_key_generation_;  // lint: guarded-by(mu_)
    std::vector<KeyRotation> key_rotations_;                        // lint: guarded-by(mu_)
    sim::Tracer* tracer_ = nullptr;
    mutable std::uint64_t ephemeral_counter_ = 0;  // lint: guarded-by(mu_)

    /// One coarse mutex over the mutable state (caches, counters, the
    /// ephemeral-key counter, release/key maps). prepare_update holds it
    /// over the lookup, the build (chunk assembly, delta, encryption), the
    /// cache insert and the counters, and releases it before the one step
    /// it does not cover: signing, which reads only the immutable key, so
    /// threaded callers sign in parallel. The deployment's real concurrency
    /// is modelled by ServerModel service slots, so the in-process lock is
    /// about memory safety (TSan-clean fleet engines and provisioning
    /// workers). The private helper functions other than sign() assume the
    /// caller holds it (`requires-lock`), and upkit-lint's lock-discipline
    /// rule checks every mutation of the fields annotated `guarded-by`.
    mutable std::mutex mu_;

    // Response LRU cache: most recent at the list front; the map points
    // into the list. Mutable: prepare_update is logically const (same
    // token -> same response bytes); caches and counters are bookkeeping.
    mutable std::list<ResponseEntry> response_lru_;  // lint: guarded-by(mu_)
    mutable std::map<ResponseKey, std::list<ResponseEntry>::iterator>
        response_index_;  // lint: guarded-by(mu_)
    /// Chunk counts of every published chunked release (no bytes).
    ChunkStore chunk_store_;     // lint: guarded-by(mu_)
    mutable ServerStats stats_;  // lint: guarded-by(mu_)
};

}  // namespace upkit::server
