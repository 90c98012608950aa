// release_train: the update server's write path beside its read path. The
// vendor publishes a train of chunked releases across eight product lines
// while a seeded population of devices spread over the live versions keeps
// requesting updates — chunked (have-list) tokens, differential tokens and
// plain full-image tokens. Each publish moves one product line's latest
// version, so that line's response shapes miss once and stale envelopes age
// out of the 64-entry response cache; the oldest releases are retired at the
// end of the train. Hits cost a re-signature, chunk misses assemble chunks,
// delta misses run bsdiff + LZSS.
#include <algorithm>
#include <array>
#include <cstdio>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "server/update_server.hpp"
#include "server/vendor_server.hpp"
#include "sim/firmware.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace upkit;

namespace {

constexpr unsigned kApps = 8;
constexpr std::size_t kImageBytes = 64 * 1024;
/// v1..v4 are live when a repetition starts; each line publishes v5 during
/// it. Devices run v1..v3, so each line has 3 have-list, 3 differential and
/// 1 full-image response shape: 56 live shapes, under the 64-entry cache.
constexpr std::uint16_t kLiveVersions = 4;
constexpr std::uint16_t kNewVersion = kLiveVersions + 1;
constexpr std::uint16_t kOldestDeviceVersion = 1;
constexpr std::uint16_t kNewestDeviceVersion = 3;
constexpr std::size_t kDevices = 512;
/// Requests per repetition: at least 1000, so the p99 has 10 beyond it.
constexpr std::size_t kRequests = 1024;
constexpr std::uint32_t kAppBase = 0x7A1500;

enum class Kind { kChunked, kDifferential, kFull };

struct Device {
    std::uint32_t id = 0;
    unsigned app = 0;
    std::uint16_t version = 0;
    Kind kind = Kind::kFull;
};

struct Inputs {
    /// firmware[app][v - 1] for v = 1..kNewVersion.
    std::array<std::array<Bytes, kNewVersion>, kApps> firmware;
    /// have[app][v - 1]: the have-list of a device running v.
    std::array<std::array<std::vector<std::uint64_t>, kNewVersion>, kApps> have;
    std::vector<Device> devices;
    /// The request stream: device index and nonce per request.
    std::vector<std::pair<std::size_t, std::uint32_t>> requests;
    /// publish_order[k]: the line that publishes v5 before request
    /// publish_at(k).
    std::array<unsigned, kApps> publish_order{};
    std::string vendor_seed;
    std::string server_seed;
};

std::size_t publish_at(unsigned k) { return 64 + 128 * static_cast<std::size_t>(k); }

std::uint32_t app_id(unsigned app) { return kAppBase + app; }

/// The access pattern — which device runs what, which device asks when, the
/// publish order — is part of the workload, not of the seed: it fixes how
/// many requests hit, miss a chunk shape or miss a delta shape, so seeds
/// differ in content (images, keys, ids, nonces) but not in cache behaviour.
constexpr std::uint64_t kPatternSeed = 0x7A1F0C0DEull;

Inputs make_inputs(std::uint64_t seed) {
    Inputs in;
    Rng rng(kPatternSeed);
    Rng nonces(derive_seed(seed, 1));
    for (unsigned a = 0; a < kApps; ++a) {
        in.firmware[a][0] =
            sim::generate_firmware({.size = kImageBytes, .seed = derive_seed(seed, 100 + a)});
        for (std::uint16_t v = 2; v <= kNewVersion; ++v) {
            in.firmware[a][v - 1] = sim::mutate_app_change(
                in.firmware[a][v - 2], derive_seed(seed, 1000 + 16 * a + v));
        }
        for (std::uint16_t v = 1; v <= kNewVersion; ++v) {
            in.have[a][v - 1] = have_list(in.firmware[a][v - 1]);
        }
    }
    const std::uint32_t first_id =
        0x300000 + static_cast<std::uint32_t>(derive_seed(seed, 2) % 0x100000);
    in.devices.resize(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
        Device& device = in.devices[d];
        device.id = first_id + static_cast<std::uint32_t>(d);
        device.app = static_cast<unsigned>(d % kApps);
        device.version = static_cast<std::uint16_t>(
            rng.between(kOldestDeviceVersion, kNewestDeviceVersion));
        const std::uint64_t k = rng.below(7);
        device.kind = k < 3 ? Kind::kChunked : k < 6 ? Kind::kDifferential : Kind::kFull;
    }
    in.requests.resize(kRequests);
    for (auto& [device, nonce] : in.requests) {
        device = rng.below(kDevices);
        nonce = nonces.next_u32();
    }
    for (unsigned a = 0; a < kApps; ++a) in.publish_order[a] = a;
    for (unsigned a = kApps - 1; a > 0; --a) {
        std::swap(in.publish_order[a], in.publish_order[rng.below(a + 1)]);
    }
    in.vendor_seed = "perfbench-train-vendor-" + std::to_string(seed);
    in.server_seed = "perfbench-train-server-" + std::to_string(seed);
    return in;
}

manifest::DeviceToken token_of(const Inputs& in, const Device& device, std::uint32_t nonce) {
    manifest::DeviceToken token{.device_id = device.id, .nonce = nonce};
    if (device.kind == Kind::kDifferential) token.current_version = device.version;
    if (device.kind == Kind::kChunked) token.have = in.have[device.app][device.version - 1];
    return token;
}

enum class RequestClass { kHit, kChunkMiss, kDeltaMiss };

RequestClass classify(const server::ServiceReceipt& receipt) {
    if (receipt.response_cache_hit) return RequestClass::kHit;
    return receipt.delta_attempted ? RequestClass::kDeltaMiss : RequestClass::kChunkMiss;
}

const char* span_name(RequestClass c) {
    switch (c) {
        case RequestClass::kHit: return "server.prepare_update.hit";
        case RequestClass::kChunkMiss: return "server.prepare_update.chunk_miss";
        case RequestClass::kDeltaMiss: return "server.prepare_update.delta_miss";
    }
    return "server.prepare_update";
}

struct Rep {
    /// Keys, then each set-up publish, then each warm-up request.
    std::vector<double> setup_steps_s;
    double train_s = 0.0;  // summed host time of the train's calls
    std::vector<double> request_us;
    /// The train's publishes and retirements, in call order.
    std::vector<double> release_us;
    std::array<std::vector<double>, 3> class_us;
    std::vector<double> create_us, publish_us, retire_us;
    server::ServerStats stats;  // during the train only
    server::ChunkStore::Stats store;
    std::string output;
};

/// Times one call: host seconds into `train_s`, and a span when traced.
template <typename Fn>
double timed(SpanRecorder* spans, const char* name, std::uint64_t request, Fn fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (spans != nullptr) spans->add(name, spans->to_us(t0), spans->to_us(t1), -1, request);
    return seconds_between(t0, t1);
}

/// Creates and publishes one chunked release; returns the host seconds.
double publish_release(server::VendorServer& vendor, server::UpdateServer& server,
                       const Inputs& in, unsigned app, std::uint16_t version, SpanRecorder* spans,
                       Rep& rep) {
    server::Release release;
    const double create_s = timed(spans, "server.create_release", app, [&] {
        release = vendor.create_release(in.firmware[app][version - 1],
                                        {.version = version, .app_id = app_id(app),
                                         .chunked = true});
    });
    Status status = Status::kOk;
    const double publish_s = timed(spans, "server.publish", app,
                                   [&] { status = server.publish(std::move(release)); });
    must(status, "publish");
    rep.create_us.push_back(1e6 * create_s);
    rep.publish_us.push_back(1e6 * publish_s);
    return create_s + publish_s;
}

/// Checks one response against its token and the line's latest version.
bool response_ok(const Expected<server::UpdateResponse>& response, const Device& device,
                 std::uint32_t nonce, std::uint16_t latest) {
    if (!response) return false;
    const manifest::Manifest& m = response->manifest;
    const bool shape_ok = device.kind == Kind::kChunked        ? m.chunked && !m.differential
                          : device.kind == Kind::kDifferential ? m.differential && !m.chunked
                                                               : !m.differential && !m.chunked;
    return shape_ok && m.device_id == device.id && m.nonce == nonce && m.version == latest &&
           m.app_id == app_id(device.app);
}

/// One repetition, rebuilt from the inputs. Set-up: keys, v1..v4 of every
/// line, and one request per live response shape to warm the cache. Timed:
/// the request stream with a v5 publish interleaved for each line, then the
/// retirement of every line's v1.
Rep run_rep(const Inputs& in, SpanRecorder* spans, Result& result) {
    Rep rep;
    const Clock::time_point t0 = Clock::now();
    server::VendorServer vendor(to_bytes(in.vendor_seed));
    server::UpdateServer server(to_bytes(in.server_seed));
    server.set_vendor_key(vendor.public_key());
    rep.setup_steps_s.push_back(seconds_since(t0));
    for (unsigned a = 0; a < kApps; ++a) {
        for (std::uint16_t v = 1; v <= kLiveVersions; ++v) {
            rep.setup_steps_s.push_back(publish_release(vendor, server, in, a, v, spans, rep));
        }
    }
    std::vector<bool> warmed(kApps * 3 * kNewVersion, false);
    for (const Device& device : in.devices) {
        const std::size_t shape =
            (device.app * 3 + static_cast<std::size_t>(device.kind)) * kNewVersion +
            (device.kind == Kind::kFull ? 0 : device.version);
        if (warmed[shape]) continue;
        warmed[shape] = true;
        const Clock::time_point tw = Clock::now();
        must(server.prepare_update(app_id(device.app), token_of(in, device, 0)).status(),
             "warm prepare_update");
        rep.setup_steps_s.push_back(seconds_since(tw));
    }

    const server::ServerStats before = server.stats();
    std::array<std::uint16_t, kApps> latest;
    latest.fill(kLiveVersions);
    crypto::Sha256 outputs;
    unsigned next_publish = 0;
    for (std::size_t r = 0; r < kRequests; ++r) {
        if (next_publish < kApps && r == publish_at(next_publish)) {
            const unsigned app = in.publish_order[next_publish++];
            const double s = publish_release(vendor, server, in, app, kNewVersion, spans, rep);
            rep.train_s += s;
            rep.release_us.push_back(1e6 * s);
            latest[app] = kNewVersion;
        }
        const auto& [index, nonce] = in.requests[r];
        const Device& device = in.devices[index];
        const manifest::DeviceToken token = token_of(in, device, nonce);
        const Clock::time_point t1 = Clock::now();
        const Expected<server::UpdateResponse> response =
            server.prepare_update(app_id(device.app), token);
        const Clock::time_point t2 = Clock::now();
        const double s = seconds_between(t1, t2);
        rep.train_s += s;
        rep.request_us.push_back(1e6 * s);

        ++result.attempted;
        if (!response_ok(response, device, nonce, latest[device.app])) {
            ++result.failed;
            std::fprintf(stderr, "perfbench: request %zu (device %u) got a wrong response\n", r,
                         device.id);
            continue;
        }
        const RequestClass c = classify(response->receipt);
        rep.class_us[static_cast<std::size_t>(c)].push_back(1e6 * s);
        if (spans != nullptr) spans->add(span_name(c), spans->to_us(t1), spans->to_us(t2), -1, r);
        outputs.update(response->manifest_bytes);
        outputs.update(response->payload);
    }
    rep.store = server.chunk_store_stats();
    for (unsigned a = 0; a < kApps; ++a) {
        Status status = Status::kOk;
        const double s = timed(spans, "server.retire_release", a, [&] {
            status = server.retire_release(app_id(a), 1);
        });
        must(status, "retire_release");
        rep.train_s += s;
        rep.release_us.push_back(1e6 * s);
        rep.retire_us.push_back(1e6 * s);
    }
    rep.stats = stats_delta(server.stats(), before);
    const crypto::Sha256Digest digest = outputs.finalize();
    rep.output = hex_encode(ByteSpan(digest.data(), digest.size()));
    return rep;
}

Result run_untraced(const Options& options, const Inputs& in) {
    Result result;
    StepMinima setup_s, request_us, release_us;
    std::vector<double> train_s;
    std::vector<std::string> outputs;
    result.reps = repeat_for(options.seconds, 5, 400, [&](unsigned i) {
        const Rep rep = run_rep(in, nullptr, result);
        outputs.push_back(rep.output);
        if (i == 0) return;
        setup_s.add(rep.setup_steps_s);
        request_us.add(rep.request_us);
        release_us.add(rep.release_us);
        train_s.push_back(rep.train_s);
    });
    check_outputs(outputs, result);
    const double best_train_us = request_us.total() + release_us.total();
    std::printf("release_train: %zu requests and %u publishes + retires per repetition, "
                "%u repetitions\n",
                kRequests, kApps, result.reps);
    std::printf("  train: sum of per-call minima %.3f s; per repetition min %.3f s,"
                " median %.3f s\n",
                best_train_us / 1e6, minimum(train_s), median(train_s));
    result.metrics = {
        {"setup_s", setup_s.total(), "s"},
        {"items_per_s", 1e6 * kRequests / best_train_us, "1/s", "requests_per_s"},
        {"item_p50_us", median(request_us.minima()), "us", "request_p50_us"},
        {"item_tail_us", tail(request_us.minima()), "us", "request_p99_us"},
    };
    return result;
}

Result run_traced(const Options& options, const Inputs& in) {
    Result result;
    std::vector<double> untraced_s;
    std::vector<std::string> outputs;
    SpanRecorder spans;
    SpanRecorder best_spans;
    Rep best;
    double best_traced_s = 0.0;
    result.reps = repeat_for(options.seconds, 2, 200, [&](unsigned i) {
        const Rep base = run_rep(in, nullptr, result);
        outputs.push_back(base.output);
        spans.clear();
        Rep traced = run_rep(in, &spans, result);
        outputs.push_back(traced.output);
        if (i == 0) return;
        untraced_s.push_back(base.train_s);
        if (best_traced_s == 0.0 || traced.train_s < best_traced_s) {
            best_traced_s = traced.train_s;
            best_spans = spans;
            best = std::move(traced);
        }
    });
    check_outputs(outputs, result);

    const auto count = [&](RequestClass c) {
        return best.class_us[static_cast<std::size_t>(c)].size();
    };
    std::printf("release_train traced: %zu requests per repetition, %u repetitions\n", kRequests,
                result.reps);
    print_overhead("release_train, fastest repetitions", best_traced_s, minimum(untraced_s));
    std::printf("  request classes: %zu hits, %zu chunk misses, %zu delta misses of %zu\n",
                count(RequestClass::kHit), count(RequestClass::kChunkMiss),
                count(RequestClass::kDeltaMiss), kRequests);
    print_span_table("release_train", best_spans);

    double request_total_us = 0.0;
    for (const double us : best.request_us) request_total_us += us;
    const auto class_median = [&](RequestClass c) {
        return median(best.class_us[static_cast<std::size_t>(c)]);
    };
    result.metrics = {
        {"server.vendor_release_us", median(best.create_us), "us"},
        {"server.publish_us", median(best.publish_us), "us"},
        {"server.retire_us", median(best.retire_us), "us"},
        {"server.request_hit_us", class_median(RequestClass::kHit), "us"},
        {"server.request_chunk_miss_us", class_median(RequestClass::kChunkMiss), "us"},
        {"server.request_delta_miss_us", class_median(RequestClass::kDeltaMiss), "us"},
        {"server.prepare_update_us", request_total_us / kRequests, "us"},
        {"server.delta_generations", static_cast<double>(best.stats.delta_generations),
         "count"},
        {"server.evictions", static_cast<double>(best.stats.response_evictions), "count"},
        {"server.chunk_dedup_ratio",
         best.store.unique_bytes > 0 ? static_cast<double>(best.store.logical_bytes) /
                                           static_cast<double>(best.store.unique_bytes)
                                     : 0.0,
         "ratio"},
        {"server.sign_ops", static_cast<double>(best.stats.sign_ops), "count"},
        {"server.response_hit_ratio",
         best.stats.requests > 0 ? static_cast<double>(best.stats.response_hits) /
                                       static_cast<double>(best.stats.requests)
                                 : 0.0,
         "ratio"},
    };

    // Crypto probe on this workload's keys, the first device's token shape
    // and a line's v1 image.
    const Device& probe_device = in.devices[0];
    manifest::DeviceToken probe_token = token_of(in, probe_device, 1);
    probe_token.current_version = 0;
    add_crypto_metrics(in.vendor_seed, in.server_seed, in.firmware[probe_device.app][0],
                       app_id(probe_device.app), probe_token, result);
    if (!options.spans_out.empty() && !best_spans.write_jsonl(options.spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", options.spans_out.c_str());
    }
    return result;
}

}  // namespace

Result run_release_train(const Options& options) {
    const Inputs in = make_inputs(options.seed);
    return options.trace ? run_traced(options, in) : run_untraced(options, in);
}

}  // namespace perfbench
