#include "server/update_server.hpp"

#include <algorithm>
#include <cstring>

#include "common/endian.hpp"
#include "crypto/content_key.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256x4.hpp"
#include "diff/bsdiff.hpp"
#include "suit/suit.hpp"

namespace upkit::server {

namespace {

// Wire offsets of the token-dependent manifest fields (manifest/manifest.hpp).
constexpr std::size_t kDeviceIdOffset = 8;
constexpr std::size_t kNonceOffset = 12;
constexpr std::size_t kServerSigOffset = 136;

// FNV-1a over a have-list, as the response-cache key component: devices
// holding the same chunk set share one cached envelope.
std::uint64_t have_list_hash(const std::vector<std::uint64_t>& have) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t prefix : have) {
        for (int shift = 0; shift < 64; shift += 8) {
            h ^= (prefix >> shift) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

// Digest over the server-signed wire bytes: everything before the server
// signature field, plus the chunk table after it when present.
crypto::Sha256Digest server_signed_wire_digest(const Bytes& wire) {
    crypto::Sha256 hasher;
    hasher.update(ByteSpan(wire.data(), kServerSigOffset));
    if (wire.size() > manifest::kManifestSize) {
        hasher.update(ByteSpan(wire.data() + manifest::kManifestSize,
                               wire.size() - manifest::kManifestSize));
    }
    return hasher.finalize();
}

}  // namespace

void UpdateServer::set_vendor_key(const crypto::PublicKey& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    vendor_key_ = crypto::PreparedPublicKey(key);
}

Status UpdateServer::publish(Release release) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (vendor_key_.valid()) {
        // Publish-time ingest check: the vendor signature over the release
        // core, and the manifest's firmware digest against the actual
        // image. The prepared key makes repeated publishes reuse one
        // interned verification table (see PreparedPublicKey::intern_stats).
        const auto tbs = crypto::Sha256::digest(release.manifest.vendor_signed_bytes());
        if (!crypto::ecdsa_verify(vendor_key_, tbs,
                                  ByteSpan(release.manifest.vendor_signature.data(),
                                           release.manifest.vendor_signature.size()))) {
            return Status::kBadVendorSignature;
        }
        const auto fw_digest = crypto::Sha256::digest(release.firmware);
        if (!ct_equal(ByteSpan(fw_digest.data(), fw_digest.size()),
                      ByteSpan(release.manifest.digest.data(),
                               release.manifest.digest.size()))) {
            return Status::kBadDigest;
        }
        ++stats_.publish_verifies;
    }
    if (release.manifest.chunked) {
        // The table is distribution metadata this server re-signs per
        // request, so it is validated at ingest: structure (contiguous
        // tiling of the image) and every per-chunk digest.
        if (manifest::validate_chunk_table(release.manifest) != Status::kOk) {
            return Status::kBadManifest;
        }
        // All per-chunk digests at once through the multi-buffer kernel —
        // the chunks are independent buffers, exactly the shape sha256x4
        // exists for — then one comparison sweep.
        const auto& chunk_table = release.manifest.chunk_table;
        std::vector<ByteSpan> slices(chunk_table.size());
        std::vector<crypto::Sha256Digest> digests(chunk_table.size());
        for (std::size_t i = 0; i < chunk_table.size(); ++i) {
            slices[i] =
                ByteSpan(release.firmware.data() + chunk_table[i].offset, chunk_table[i].length);
        }
        crypto::sha256_multi(slices.data(), digests.data(), slices.size());
        for (std::size_t i = 0; i < chunk_table.size(); ++i) {
            if (!ct_equal(ByteSpan(digests[i].data(), digests[i].size()),
                          ByteSpan(chunk_table[i].digest.data(), chunk_table[i].digest.size()))) {
                return Status::kBadDigest;
            }
        }
    }
    auto& versions = releases_[release.manifest.app_id];
    const std::uint16_t version = release.manifest.version;
    if (versions.contains(version)) return Status::kAlreadyExists;
    if (release.manifest.chunked) {
        UPKIT_RETURN_IF_ERROR(
            chunk_store_.ingest(release.firmware, release.manifest.chunk_table));
    }
    versions.emplace(version, std::move(release));
    return Status::kOk;
}

Status UpdateServer::retire_release(std::uint32_t app_id, std::uint16_t version) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto apps = releases_.find(app_id);
    if (apps == releases_.end()) return Status::kNotFound;
    const auto it = apps->second.find(version);
    if (it == apps->second.end()) return Status::kNotFound;
    if (it->second.manifest.chunked) {
        chunk_store_.release(it->second.manifest.chunk_table);
    }
    apps->second.erase(it);
    invalidate_caches();
    return Status::kOk;
}

std::optional<std::uint16_t> UpdateServer::latest_version(std::uint32_t app_id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = releases_.find(app_id);
    if (it == releases_.end() || it->second.empty()) return std::nullopt;
    return it->second.rbegin()->first;
}

bool UpdateServer::register_device_key(std::uint32_t device_id,
                                       const crypto::PublicKey& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = device_keys_.find(device_id);
    if (it == device_keys_.end()) {
        device_keys_.emplace(device_id, key);
        return false;
    }
    if (it->second == key) return false;  // same key again: not a rotation
    it->second = key;
    const std::uint32_t generation = ++device_key_generation_[device_id];
    key_rotations_.push_back(KeyRotation{device_id, generation});
    ++stats_.key_rotations;
    if (tracer_ != nullptr) {
        tracer_->emit(sim::TraceEvent{.t = 0.0,
                                      .device_id = device_id,
                                      .type = sim::TraceType::kKeyRotation,
                                      .from = {},
                                      .to = {},
                                      .code = generation,
                                      .value = 0.0});
    }
    return true;
}

void UpdateServer::set_response_cache_capacity(std::size_t entries) {
    const std::lock_guard<std::mutex> lock(mu_);
    response_capacity_ = entries;
    response_lru_.clear();
    response_index_.clear();
}

// Assumes mu_ is held by the caller (set_lzss_params, retire_release).
void UpdateServer::invalidate_caches() {
    response_lru_.clear();
    response_index_.clear();
}

bool UpdateServer::maybe_encrypt(const manifest::DeviceToken& token, Bytes& payload) const {
    if (!encrypt_) return false;
    const auto key_it = device_keys_.find(token.device_id);
    if (key_it == device_keys_.end()) return false;

    // Fresh ephemeral key per response (deterministic for replayability).
    Bytes seed = key_.to_bytes();
    put_le64(seed, ++ephemeral_counter_);
    put_le32(seed, token.nonce);
    const crypto::PrivateKey ephemeral = crypto::PrivateKey::generate(seed);

    auto shared = crypto::ecdh_shared_secret(ephemeral, key_it->second);
    if (!shared) return false;  // registered key is invalid: ship plaintext
    const crypto::ContentKeys keys =
        crypto::derive_content_keys(*shared, token.device_id, token.nonce);

    // AEAD-seal with the (device, request) pair as associated data.
    Bytes aad;
    put_le32(aad, token.device_id);
    put_le32(aad, token.nonce);

    Bytes wrapped;
    const auto ephemeral_pub = ephemeral.public_key().to_bytes();
    wrapped.reserve(ephemeral_pub.size() + payload.size() + crypto::kPolyTagSize);
    append(wrapped, ByteSpan(ephemeral_pub.data(), ephemeral_pub.size()));
    append(wrapped, crypto::aead_seal(keys.key, keys.nonce, aad, payload));
    payload = std::move(wrapped);
    return true;
}

std::optional<Bytes> UpdateServer::compressed_delta(const Release& base,
                                                    const Release& latest,
                                                    ServiceReceipt& receipt) const {
    ++stats_.delta_generations;
    receipt.delta_input_bytes = base.firmware.size() + latest.firmware.size();
    auto patch = diff::bsdiff(base.firmware, latest.firmware);
    if (!patch) return std::nullopt;
    auto compressed = compress::lzss_compress(*patch, lzss_params_);
    if (!compressed) return std::nullopt;
    return std::move(*compressed);
}

Bytes UpdateServer::assemble_chunks(const Release& release,
                                    const manifest::DeviceToken& token,
                                    ServiceReceipt& receipt) const {
    receipt.chunked = true;
    Bytes payload;
    // The have-list is sorted (canonical wire order), so membership is a
    // binary search; the agent applies the identical prefix rule to decide
    // which chunks to expect on the air.
    const auto device_has = [&token](std::uint64_t prefix) {
        return std::binary_search(token.have.begin(), token.have.end(), prefix);
    };
    for (const manifest::ChunkRef& ref : release.manifest.chunk_table) {
        if (device_has(manifest::digest_prefix(ref.digest))) {
            receipt.chunk_bytes_deduped += ref.length;
            stats_.chunk_bytes_deduped += ref.length;
            continue;
        }
        const Bytes* stored = chunk_store_.find(ref.digest);
        if (stored != nullptr) {
            ++stats_.chunk_hits;
            append(payload, ByteSpan(stored->data(), stored->size()));
        } else {
            // Published before the store existed (or raced a retirement):
            // slice the retained image directly.
            ++stats_.chunk_misses;
            append(payload, ByteSpan(release.firmware.data() + ref.offset, ref.length));
        }
        ++receipt.chunks_sent;
        ++stats_.chunks_served;
        stats_.chunk_bytes_served += ref.length;
    }
    ++stats_.chunked_responses;
    return payload;
}

std::optional<UpdateResponse> UpdateServer::response_from_cache(
    const ResponseKey& key, const manifest::DeviceToken& token,
    ServiceReceipt receipt) const {
    if (response_capacity_ == 0) return std::nullopt;
    const auto it = response_index_.find(key);
    if (it == response_index_.end()) {
        ++stats_.response_misses;
        return std::nullopt;
    }
    ++stats_.response_hits;
    response_lru_.splice(response_lru_.begin(), response_lru_, it->second);
    const ResponseEntry& entry = *it->second;

    UpdateResponse response;
    response.manifest = entry.manifest;
    response.manifest.device_id = token.device_id;
    response.manifest.nonce = token.nonce;
    response.manifest_bytes = entry.manifest_bytes;
    response.payload = entry.payload;

    // Re-fill the token-dependent wire bytes and re-sign: the freshness
    // signature covers everything but itself (bytes before offset 136 plus
    // any chunk table after offset 200), so a patched envelope is
    // byte-identical to one built from scratch.
    Bytes& wire = response.manifest_bytes;
    store_le32(MutByteSpan(wire.data() + kDeviceIdOffset, 4), token.device_id);
    store_le32(MutByteSpan(wire.data() + kNonceOffset, 4), token.nonce);
    response.manifest.server_signature =
        crypto::ecdsa_sign(key_, server_signed_wire_digest(wire));
    std::memcpy(wire.data() + kServerSigOffset,
                response.manifest.server_signature.data(), crypto::kSignatureSize);
    ++stats_.sign_ops;

    receipt.sign_ops += 1;
    receipt.response_cache_hit = true;
    receipt.payload_bytes = response.payload.size();
    response.receipt = receipt;
    return response;
}

void UpdateServer::store_response(const ResponseKey& key,
                                  const UpdateResponse& response) const {
    if (response_capacity_ == 0) return;
    if (response_index_.contains(key)) return;
    response_lru_.push_front(ResponseEntry{key, response.manifest,
                                           response.manifest_bytes, response.payload});
    response_index_[key] = response_lru_.begin();
    if (response_lru_.size() > response_capacity_) {
        ++stats_.response_evictions;
        response_index_.erase(response_lru_.back().key);
        response_lru_.pop_back();
    }
}

UpdateResponse UpdateServer::finalize(manifest::Manifest m, Bytes payload,
                                      const crypto::Signature& suit_vendor_sig,
                                      ServiceReceipt receipt) const {
    m.payload_size = static_cast<std::uint32_t>(payload.size());
    UpdateResponse response;
    if (suit_mode_) {
        suit::Envelope envelope;
        m.vendor_signature = suit_vendor_sig;  // SUIT-form vendor signature
        envelope.vendor_signature = suit_vendor_sig;
        envelope.manifest_bstr = suit::cbor_encode(suit::manifest_map(m));
        envelope.server_signature = crypto::ecdsa_sign(
            key_, crypto::Sha256::digest(
                      suit::server_tbs(envelope.manifest_bstr, envelope.vendor_signature)));
        m.server_signature = envelope.server_signature;
        response.manifest_bytes = envelope.encode();
        response.suit_encoding = true;
    } else {
        m.server_signature =
            crypto::ecdsa_sign(key_, crypto::Sha256::digest(m.server_signed_bytes()));
        response.manifest_bytes = manifest::serialize(m);
    }
    ++stats_.sign_ops;
    receipt.sign_ops += 1;
    receipt.payload_bytes = payload.size();
    response.manifest = m;
    response.payload = std::move(payload);
    response.receipt = receipt;
    return response;
}

Expected<UpdateResponse> UpdateServer::prepare_update(
    std::uint32_t app_id, const manifest::DeviceToken& token) const {
    // Held end to end: every helper below touches the caches, counters, or
    // the ephemeral-key counter. Deployment concurrency is ServerModel's
    // job; this lock is for memory safety under threaded drivers.
    const std::lock_guard<std::mutex> lock(mu_);
    return prepare_update_locked(app_id, token, 0);
}

Expected<UpdateResponse> UpdateServer::prepare_update(
    std::uint32_t app_id, const manifest::DeviceToken& token,
    std::uint16_t version) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return prepare_update_locked(app_id, token, version);
}

Expected<UpdateResponse> UpdateServer::prepare_update_locked(
    std::uint32_t app_id, const manifest::DeviceToken& token,
    std::uint16_t target) const {
    ++stats_.requests;
    const auto apps = releases_.find(app_id);
    if (apps == releases_.end() || apps->second.empty()) return Status::kNotFound;
    const auto pinned = target == 0 ? apps->second.end() : apps->second.find(target);
    if (target != 0 && pinned == apps->second.end()) return Status::kNotFound;
    const Release& latest =
        target == 0 ? apps->second.rbegin()->second : pinned->second;

    // Encrypted payloads are sealed per (device, nonce) and SUIT envelopes
    // are re-encoded per request: neither can reuse a cached envelope.
    const bool cacheable_envelope =
        !suit_mode_ && !(encrypt_ && device_keys_.contains(token.device_id));
    ServiceReceipt receipt;

    manifest::Manifest m = latest.manifest;  // vendor fields + vendor signature
    m.device_id = token.device_id;
    m.nonce = token.nonce;

    // Chunked (have/want) path: the release carries a chunk table and the
    // device reported which chunk digests it already holds; serve only the
    // missing chunks from the content-addressed store. Encrypted transport
    // falls back to legacy paths — an AEAD-sealed payload cannot survive
    // per-chunk re-requests.
    if (latest.manifest.chunked && token.supports_chunked() && cacheable_envelope) {
        const ResponseKey key{app_id, latest.manifest.version, 0, false, true,
                              have_list_hash(token.have)};
        if (auto hit = response_from_cache(key, token, receipt)) return *hit;
        m.differential = false;
        m.old_version = 0;
        Bytes payload = assemble_chunks(latest, token, receipt);
        UpdateResponse response =
            finalize(m, std::move(payload), latest.suit_vendor_signature, receipt);
        store_response(key, response);
        return response;
    }

    // Legacy paths never ship the table: the flag and table are
    // server-controlled wire fields (outside the vendor signature), so
    // stripping them yields exactly the historical 200-byte manifest.
    m.chunked = false;
    m.chunk_table.clear();

    // Differential path: the token advertises the installed version and we
    // still hold that release.
    if (token.supports_differential()) {
        const auto base = apps->second.find(token.current_version);
        if (base != apps->second.end() &&
            base->second.manifest.version < latest.manifest.version) {
            const ResponseKey key{app_id, latest.manifest.version,
                                  token.current_version, true};
            if (cacheable_envelope) {
                // A cached differential envelope proves the threshold
                // decision: no need to touch the delta cache at all.
                if (auto hit = response_from_cache(key, token, receipt)) return *hit;
            }
            receipt.delta_attempted = true;
            auto compressed = compressed_delta(base->second, latest, receipt);
            if (compressed &&
                static_cast<double>(compressed->size()) <
                    delta_threshold_ * static_cast<double>(latest.firmware.size())) {
                m.differential = true;
                m.old_version = token.current_version;
                m.encrypted = maybe_encrypt(token, *compressed);
                UpdateResponse response = finalize(m, std::move(*compressed),
                                                   latest.suit_vendor_signature, receipt);
                if (cacheable_envelope) store_response(key, response);
                return response;
            }
        }
    }

    // Full-image path.
    const ResponseKey key{app_id, latest.manifest.version, 0, false};
    if (cacheable_envelope) {
        if (auto hit = response_from_cache(key, token, receipt)) return *hit;
    }
    m.differential = false;
    m.old_version = 0;
    Bytes payload = latest.firmware;
    m.encrypted = maybe_encrypt(token, payload);
    UpdateResponse response =
        finalize(m, std::move(payload), latest.suit_vendor_signature, receipt);
    if (cacheable_envelope) store_response(key, response);
    return response;
}

}  // namespace upkit::server
