#include "server/update_server.hpp"

#include <algorithm>
#include <cstring>

#include "common/endian.hpp"
#include "common/fnv1a.hpp"
#include "compress/lzss.hpp"
#include "crypto/content_key.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256x4.hpp"
#include "diff/bsdiff.hpp"
#include "suit/suit.hpp"

namespace upkit::server {

namespace {

// Deltas at least this fraction of the full image fall back to a
// full-image update: a delta that barely saves air time is not worth the
// on-device patching cost.
constexpr double kDeltaThreshold = 0.9;

// Response-cache LRU capacity in envelopes.
constexpr std::size_t kResponseCacheCapacity = 64;

// FNV-1a over a have-list, as the response-cache key component: devices
// holding the same chunk set share one cached envelope.
std::uint64_t have_list_hash(const std::vector<std::uint64_t>& have) {
    Fnv1a h;
    for (std::uint64_t prefix : have) h.mix(prefix);
    return h.value();
}

}  // namespace

void UpdateServer::set_vendor_key(const crypto::PreparedPublicKey& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    vendor_key_ = key;
}

Status UpdateServer::publish(Release release) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (vendor_key_.valid()) {
        // Publish-time ingest check: the vendor signature over the release
        // core, and the manifest's firmware digest against the actual
        // image. Every publish verifies through the one held handle.
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
        // request, and chunked responses slice the image by it, so it is
        // checked here, once: it must tile an image of exactly the size the
        // release carries (before any slice is read), and every per-chunk
        // digest must match.
        if (manifest::validate_chunk_table(release.manifest) != Status::kOk ||
            release.manifest.firmware_size != release.firmware.size()) {
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
    if (release.manifest.chunked) chunk_store_.ingest(release.manifest.chunk_table);
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
    response_lru_.clear();
    response_index_.clear();
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

bool UpdateServer::maybe_encrypt(  // lint: requires-lock(mu_)
    const manifest::DeviceToken& token, Bytes& payload) const {
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

std::optional<Bytes> UpdateServer::compressed_delta(  // lint: requires-lock(mu_)
    const Release& base, const Release& latest, ServiceReceipt& receipt) const {
    receipt.delta_attempted = true;
    ++stats_.delta_generations;
    receipt.delta_input_bytes = base.firmware.size() + latest.firmware.size();
    auto patch = diff::bsdiff(base.firmware, latest.firmware);
    if (!patch) return std::nullopt;
    // Default parameters: the window the device's decoder is built with.
    auto compressed = compress::lzss_compress(*patch);
    if (!compressed || static_cast<double>(compressed->size()) >=
                           kDeltaThreshold * static_cast<double>(latest.firmware.size())) {
        return std::nullopt;
    }
    return std::move(*compressed);
}

Bytes UpdateServer::assemble_chunks(  // lint: requires-lock(mu_)
    const Release& release, const manifest::DeviceToken& token,
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
        // publish() checked that the table tiles this image and that every
        // slice hashes to its digest.
        append(payload, ByteSpan(release.firmware.data() + ref.offset, ref.length));
        ++stats_.chunk_hits;
        ++receipt.chunks_sent;
        ++stats_.chunks_served;
        stats_.chunk_bytes_served += ref.length;
    }
    ++stats_.chunked_responses;
    return payload;
}

std::optional<UpdateServer::UnsignedResponse> UpdateServer::cached_response(  // lint: requires-lock(mu_)
    const ResponseKey& key, bool cacheable, const manifest::DeviceToken& token,
    ServiceReceipt receipt) const {
    if (!cacheable) return std::nullopt;
    const auto it = response_index_.find(key);
    if (it == response_index_.end()) {
        ++stats_.response_misses;
        return std::nullopt;
    }
    ++stats_.response_hits;
    response_lru_.splice(response_lru_.begin(), response_lru_, it->second);
    const ResponseEntry& entry = *it->second;

    UnsignedResponse pending;
    UpdateResponse& response = pending.response;
    response.manifest = entry.manifest;
    response.manifest.device_id = token.device_id;
    response.manifest.nonce = token.nonce;
    response.manifest_bytes = entry.manifest_bytes;
    response.payload = entry.payload;

    // Re-fill the token-dependent wire bytes: the freshness signature
    // covers every wire byte but itself, so once signed, a patched envelope
    // is byte-identical to one built from scratch.
    Bytes& wire = response.manifest_bytes;
    store_le32(MutByteSpan(wire.data() + manifest::kDeviceIdOffset, 4), token.device_id);
    store_le32(MutByteSpan(wire.data() + manifest::kNonceOffset, 4), token.nonce);
    pending.tbs = manifest::server_signed_digest(wire);
    ++stats_.sign_ops;

    receipt.sign_ops += 1;
    receipt.response_cache_hit = true;
    receipt.payload_bytes = response.payload.size();
    response.receipt = receipt;
    return pending;
}

UpdateServer::UnsignedResponse UpdateServer::seal_store(  // lint: requires-lock(mu_)
    const ResponseKey& key, bool cacheable, const Release& release,
    const manifest::DeviceToken& token, Bytes payload, ServiceReceipt receipt) const {
    manifest::Manifest m = release.manifest;  // vendor fields + vendor signature
    m.device_id = token.device_id;
    m.nonce = token.nonce;
    m.differential = key.differential;
    m.old_version = key.old_version;
    if (!key.chunked) {
        // Unchunked shapes never ship the table: the flag and table are
        // server-controlled wire fields (outside the vendor signature), so
        // stripping them yields exactly the historical 200-byte manifest.
        m.chunked = false;
        m.chunk_table.clear();
    }
    m.encrypted = maybe_encrypt(token, payload);
    m.payload_size = static_cast<std::uint32_t>(payload.size());

    UnsignedResponse pending;
    UpdateResponse& response = pending.response;
    if (suit_mode_) {
        suit::Envelope envelope;
        m.vendor_signature = release.suit_vendor_signature;  // SUIT-form vendor signature
        envelope.vendor_signature = release.suit_vendor_signature;
        envelope.manifest_bstr = suit::cbor_encode(suit::manifest_map(m));
        pending.tbs = crypto::Sha256::digest(
            suit::server_tbs(envelope.manifest_bstr, envelope.vendor_signature));
        pending.envelope = std::move(envelope);
    } else {
        response.manifest_bytes = manifest::serialize(m);
        pending.tbs = manifest::server_signed_digest(response.manifest_bytes);
    }
    ++stats_.sign_ops;
    receipt.sign_ops += 1;
    receipt.payload_bytes = payload.size();
    response.manifest = std::move(m);
    response.payload = std::move(payload);
    response.receipt = receipt;

    if (cacheable && !response_index_.contains(key)) {
        response_lru_.push_front(ResponseEntry{key, response.manifest,
                                               response.manifest_bytes, response.payload});
        response_index_[key] = response_lru_.begin();
        if (response_lru_.size() > kResponseCacheCapacity) {
            ++stats_.response_evictions;
            response_index_.erase(response_lru_.back().key);
            response_lru_.pop_back();
        }
    }
    return pending;
}

UpdateResponse UpdateServer::sign(UnsignedResponse pending) const {
    UpdateResponse& response = pending.response;
    response.manifest.server_signature = crypto::ecdsa_sign(key_, pending.tbs);
    if (pending.envelope) {
        pending.envelope->server_signature = response.manifest.server_signature;
        response.manifest_bytes = pending.envelope->encode();
    } else {
        std::memcpy(response.manifest_bytes.data() + manifest::kServerSignatureOffset,
                    response.manifest.server_signature.data(), crypto::kSignatureSize);
    }
    return std::move(response);
}

Expected<UpdateResponse> UpdateServer::prepare_update(
    std::uint32_t app_id, const manifest::DeviceToken& token,
    std::uint16_t version) const {
    auto pending = prepare_unsigned(app_id, token, version);
    if (!pending) return pending.status();
    return sign(std::move(*pending));
}

Expected<UpdateServer::UnsignedResponse> UpdateServer::prepare_unsigned(
    std::uint32_t app_id, const manifest::DeviceToken& token,
    std::uint16_t version) const {
    // Held over everything but the signature: every helper below touches
    // the caches, counters, or the ephemeral-key counter. Deployment
    // concurrency is ServerModel's job; this lock is for memory safety
    // under threaded drivers.
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    const auto apps = releases_.find(app_id);
    if (apps == releases_.end() || apps->second.empty()) return Status::kNotFound;
    const auto& versions = apps->second;
    const auto target = version == 0 ? std::prev(versions.end()) : versions.find(version);
    if (target == versions.end()) return Status::kNotFound;
    const Release& release = target->second;

    // Encrypted payloads are sealed per (device, nonce) and SUIT envelopes
    // are re-encoded per request: neither can reuse a cached envelope.
    const bool cacheable =
        !suit_mode_ && !(encrypt_ && device_keys_.contains(token.device_id));
    ServiceReceipt receipt;

    // Every shape below is one cache-or-build step keyed by what it ships.
    // Chunked (have/want): the release carries a chunk table and the
    // device reported which chunk digests it already holds; serve only the
    // missing chunks. Encrypted transport takes the unchunked shapes — an
    // AEAD-sealed payload cannot survive per-chunk re-requests.
    if (release.manifest.chunked && token.supports_chunked() && cacheable) {
        const ResponseKey key{app_id, target->first, 0, false, true,
                              have_list_hash(token.have)};
        if (auto hit = cached_response(key, cacheable, token, receipt)) {
            return std::move(*hit);
        }
        Bytes payload = assemble_chunks(release, token, receipt);
        return seal_store(key, cacheable, release, token, std::move(payload), receipt);
    }

    // Differential: the token advertises the installed version and we still
    // hold that release. A cached differential envelope proves the
    // threshold decision, so a hit skips bsdiff entirely; a patch not worth
    // shipping falls through to the full image.
    if (token.supports_differential()) {
        const auto base = versions.find(token.current_version);
        if (base != versions.end() && base->first < target->first) {
            const ResponseKey key{app_id, target->first, token.current_version, true};
            if (auto hit = cached_response(key, cacheable, token, receipt)) {
                return std::move(*hit);
            }
            if (auto patch = compressed_delta(base->second, release, receipt)) {
                return seal_store(key, cacheable, release, token, std::move(*patch), receipt);
            }
        }
    }

    // Full image.
    const ResponseKey key{app_id, target->first, 0, false};
    if (auto hit = cached_response(key, cacheable, token, receipt)) return std::move(*hit);
    return seal_store(key, cacheable, release, token, release.firmware, receipt);
}

}  // namespace upkit::server
