// System-level property tests:
//   1. Power-loss sweep — cut power after N flash operations for every N
//      across the whole update; the device must NEVER brick: after reboot
//      it runs either the old or (late cuts) the new version, and a retry
//      always converges to the new version.
//   2. FSM transition matrix — every agent entry point from every state
//      either performs its legal transition or returns kFsmBadState and
//      leaves the machine usable.
//   3. Manifest intake sweep — seeded structural mutants of each wire
//      encoding, fed chunk by chunk, are rejected early or keep the header.
//   4. Fleet campaigns — heterogeneous fleets converge.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/endian.hpp"
#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "suit/suit.hpp"
#include "test_env.hpp"
#include "verify/verifier.hpp"

namespace upkit::core {
namespace {

using agent::FsmState;
using testenv::kAppId;
using testenv::TestEnv;

// ----------------------------------------------------------- power loss

class PowerLossSweep
    : public ::testing::TestWithParam<std::tuple<SlotLayout, int>> {};

TEST_P(PowerLossSweep, NeverBricksAndRetryConverges) {
    const auto [layout, op] = GetParam();
    TestEnv env;
    auto device = env.make_device(layout);
    env.publish_os_update(2, 60);

    // Arm the cut: the Nth flash write/erase from here on dies. The plan
    // survives reboots, so late indexes land inside the post-update boot —
    // for the static layout that is the journaled install swap itself.
    device->internal_flash().schedule_power_loss_range(
        {static_cast<std::uint64_t>(op)});

    UpdateSession session(*device, env.server, net::ble_gatt());
    const SessionReport report = session.run(kAppId);

    // Whatever happened, rebooting must bring the device back: a cut during
    // boot itself surfaces as kFlashPowerLoss (the next reset retries), and
    // only kNotFound — no valid image anywhere — is a brick.
    std::uint16_t booted_version = 0;
    for (int attempt = 0; attempt < 4; ++attempt) {
        auto boot = device->reboot();
        if (boot.has_value()) {
            booted_version = boot->booted.version;
            break;
        }
        ASSERT_NE(boot.status(), Status::kNotFound)
            << "device bricked at op " << op;
    }
    EXPECT_TRUE(booted_version == 1 || booted_version == 2) << booted_version;

    device->internal_flash().disarm_power_loss();
    if (device->identity().installed_version != 2) {
        // Retry converges (flash was revived by the reboot).
        UpdateSession retry(*device, env.server, net::ble_gatt());
        const SessionReport retry_report = retry.run(kAppId);
        ASSERT_EQ(retry_report.status, Status::kOk) << "retry failed at op " << op;
    }
    EXPECT_EQ(device->identity().installed_version, 2);
    (void)report;
}

// A 48 kB image writes ~12 sectors (erase+write pairs) plus the manifest;
// sweeping 0..30 covers cuts in invalidation, manifest write, and every
// payload sector. (The exhaustive sweep over EVERY op — including all of
// the boot-time install — is fault_injection_test.cpp.)
INSTANTIATE_TEST_SUITE_P(EveryFlashOp, PowerLossSweep,
                         ::testing::Combine(::testing::Values(
                                                SlotLayout::kAB,
                                                SlotLayout::kStaticInternal),
                                            ::testing::Range(0, 30)));

// ----------------------------------------------------------- FSM matrix

struct FsmCase {
    FsmState state;
    int operation;  // 0 = request_token, 1 = offer_manifest, 2 = offer_payload
};

class FsmMatrix : public ::testing::Test {
protected:
    FsmMatrix() {
        device_ = env_.make_device(SlotLayout::kAB);
        env_.publish_os_update(2, 61);
    }

    /// Drives the agent into the requested state.
    void drive_to(FsmState target) {
        agent::UpdateAgent& agent = device_->agent();
        if (target == FsmState::kWaiting) return;
        auto token = agent.request_device_token();
        ASSERT_TRUE(token.has_value());
        if (target == FsmState::kReceiveManifest) return;
        auto response = env_.server.prepare_update(kAppId, *token);
        ASSERT_TRUE(response.has_value());
        response_ = *response;
        if (target == FsmState::kCleaning) {
            ASSERT_EQ(agent.offer_manifest(Bytes(manifest::kManifestSize, 0xAA)), Status::kOk);
            ASSERT_NE(agent.end_manifest(), Status::kOk);
            return;
        }
        ASSERT_EQ(agent.offer_manifest(response_.manifest_bytes), Status::kOk);
        ASSERT_EQ(agent.end_manifest(), Status::kOk);
        if (target == FsmState::kReceiveFirmware) return;
        for (std::size_t off = 0; off < response_.payload.size(); off += 4096) {
            const std::size_t len = std::min<std::size_t>(4096, response_.payload.size() - off);
            ASSERT_EQ(agent.offer_payload(ByteSpan(response_.payload).subspan(off, len)),
                      Status::kOk);
        }
        ASSERT_EQ(agent.state(), FsmState::kReadyToReboot);
    }

    TestEnv env_;
    std::unique_ptr<Device> device_;
    server::UpdateResponse response_;
};

TEST_F(FsmMatrix, TokenOnlyFromWaitingOrCleaning) {
    for (const FsmState state : {FsmState::kWaiting, FsmState::kCleaning}) {
        TestEnv env;
        auto device = env.make_device(SlotLayout::kAB);
        env.publish_os_update(2, 61);
        agent::UpdateAgent& agent = device->agent();
        if (state == FsmState::kCleaning) {
            ASSERT_TRUE(agent.request_device_token().has_value());
            ASSERT_EQ(agent.offer_manifest(Bytes(manifest::kManifestSize, 0xAA)), Status::kOk);
            ASSERT_NE(agent.end_manifest(), Status::kOk);
            ASSERT_EQ(agent.state(), FsmState::kCleaning);
        }
        EXPECT_TRUE(agent.request_device_token().has_value()) << to_string(state);
    }
}

TEST_F(FsmMatrix, TokenRejectedMidTransfer) {
    for (const FsmState state :
         {FsmState::kReceiveManifest, FsmState::kReceiveFirmware, FsmState::kReadyToReboot}) {
        TestEnv env;
        auto device = env.make_device(SlotLayout::kAB);
        env.publish_os_update(2, 61);
        agent::UpdateAgent& agent = device->agent();
        auto token = agent.request_device_token();
        ASSERT_TRUE(token.has_value());
        if (state != FsmState::kReceiveManifest) {
            auto response = env.server.prepare_update(kAppId, *token);
            ASSERT_EQ(agent.offer_manifest(response->manifest_bytes), Status::kOk);
            ASSERT_EQ(agent.end_manifest(), Status::kOk);
            if (state == FsmState::kReadyToReboot) {
                ASSERT_EQ(agent.offer_payload(response->payload), Status::kOk);
            }
        }
        EXPECT_EQ(agent.request_device_token().status(), Status::kFsmBadState)
            << to_string(state);
    }
}

TEST_F(FsmMatrix, ManifestRejectedOutsideReceiveManifest) {
    drive_to(FsmState::kReceiveFirmware);
    EXPECT_EQ(device_->agent().offer_manifest(Bytes(10, 0)), Status::kFsmBadState);
}

TEST_F(FsmMatrix, PayloadRejectedBeforeManifest) {
    drive_to(FsmState::kReceiveManifest);
    EXPECT_EQ(device_->agent().offer_payload(Bytes(10, 0)), Status::kFsmBadState);
}

TEST_F(FsmMatrix, PayloadRejectedAfterCompletion) {
    drive_to(FsmState::kReceiveFirmware);
    agent::UpdateAgent& agent = device_->agent();
    ASSERT_EQ(agent.offer_payload(response_.payload), Status::kOk);
    ASSERT_EQ(agent.state(), FsmState::kReadyToReboot);
    EXPECT_EQ(agent.offer_payload(Bytes(10, 0)), Status::kFsmBadState);
}

TEST_F(FsmMatrix, CleanFromAnyStateReturnsToWaiting) {
    for (const FsmState state : {FsmState::kWaiting, FsmState::kReceiveManifest,
                                 FsmState::kReceiveFirmware, FsmState::kReadyToReboot}) {
        TestEnv env;
        auto device = env.make_device(SlotLayout::kAB);
        env.publish_os_update(2, 61);
        agent::UpdateAgent& agent = device->agent();
        if (state != FsmState::kWaiting) {
            auto token = agent.request_device_token();
            if (state != FsmState::kReceiveManifest) {
                auto response = env.server.prepare_update(kAppId, *token);
                ASSERT_EQ(agent.offer_manifest(response->manifest_bytes), Status::kOk);
                ASSERT_EQ(agent.end_manifest(), Status::kOk);
                if (state == FsmState::kReadyToReboot) {
                    ASSERT_EQ(agent.offer_payload(response->payload), Status::kOk);
                }
            }
        }
        agent.clean();
        EXPECT_EQ(agent.state(), FsmState::kWaiting) << to_string(state);
        // And the agent is usable again.
        EXPECT_TRUE(agent.request_device_token().has_value()) << to_string(state);
    }
}

// ----------------------------------------------------------- intake sweep
//
// A seeded, structure-aware mutation sweep over the agent's one manifest
// intake. A plain native manifest, a chunked one and a SUIT envelope are
// mutated field by field (boundary values, chunk counts, truncation at
// every field boundary, trailing bytes, single-byte flips), and each mutant
// is fed after a fresh token in chunks of 1, 100 and 244 bytes. It is
// rejected, or accepted with the original's header; a rejection comes no
// later than the chunk that takes the frame past verify::header_size,
// counts once in manifests_rejected, and no flash byte is written before
// acceptance.

enum class FrameKind { kPlain, kChunked, kSuit };

/// One structural edit. Every feed mutates a freshly served frame: the
/// server signs each token's nonce into it.
using Mutation = std::function<void(Bytes&)>;

constexpr std::uint64_t kSweepSeed = 7;
constexpr int kFlipsPerFrame = 32;

/// (offset, width) of every field of the 200-byte native core.
constexpr std::pair<std::size_t, std::size_t> kNativeFields[] = {
    {0, 4},   {4, 2},   {6, 2},   {8, 4},   {12, 4},  {16, 2},  {18, 2},  {20, 4},
    {24, 32}, {56, 4},  {60, 4},  {64, 4},  {68, 4},  {72, 64}, {136, 64}};

/// Overwrites the little-endian field at [offset, offset + width) with 0,
/// 1, max - 1 and max, one mutant each, and truncates the frame there.
void mutate_field(std::vector<Mutation>& out, std::size_t offset, std::size_t width) {
    Bytes one(width, 0x00), below_max(width, 0xFF);
    one[0] = 0x01;
    below_max[0] = 0xFE;
    for (const Bytes& value : {Bytes(width, 0x00), one, below_max, Bytes(width, 0xFF)}) {
        out.push_back([offset, value](Bytes& frame) {
            std::copy(value.begin(), value.end(),
                      frame.begin() + static_cast<std::ptrdiff_t>(offset));
        });
    }
    out.push_back([offset](Bytes& frame) { frame.resize(offset); });
}

/// A zero and a non-zero trailing byte, then single-byte flips. (A SUIT
/// frame's length follows its nonce's CBOR width, so a flip wraps.)
void mutate_tail_and_flips(std::vector<Mutation>& out, std::size_t size, Rng& rng) {
    out.push_back([](Bytes& frame) { frame.push_back(0x00); });
    out.push_back([](Bytes& frame) { frame.push_back(0x01); });
    for (int i = 0; i < kFlipsPerFrame; ++i) {
        const std::size_t at = rng.below(size);
        const auto mask = static_cast<std::uint8_t>(1 + rng.below(255));
        out.push_back([at, mask](Bytes& frame) { frame[at % frame.size()] ^= mask; });
    }
}

std::vector<Mutation> native_mutations(const Bytes& frame, Rng& rng) {
    std::vector<Mutation> out;
    for (const auto& [offset, width] : kNativeFields) mutate_field(out, offset, width);
    if (frame.size() > manifest::kManifestSize) {
        // The chunk count: its boundary values, the largest count the
        // format allows and one more; then the first and last entries.
        mutate_field(out, manifest::kManifestSize, 4);
        for (const std::size_t count :
             {manifest::kMaxChunkEntries, manifest::kMaxChunkEntries + 1}) {
            out.push_back([count](Bytes& f) {
                Bytes le;
                put_le32(le, static_cast<std::uint32_t>(count));
                std::copy(le.begin(), le.end(),
                          f.begin() + static_cast<std::ptrdiff_t>(manifest::kManifestSize));
            });
        }
        const std::size_t table = manifest::kManifestSize + 4;
        const std::size_t entries = (frame.size() - table) / manifest::kChunkEntrySize;
        for (const std::size_t entry : {std::size_t{0}, entries - 1}) {
            const std::size_t base = table + entry * manifest::kChunkEntrySize;
            mutate_field(out, base, 4);
            mutate_field(out, base + 4, 4);
            mutate_field(out, base + 8, 32);
        }
    }
    mutate_tail_and_flips(out, frame.size(), rng);
    return out;
}

/// Start offsets of every CBOR data item in `item` (one item, `at` bytes
/// into the frame), descending into arrays, maps, and a byte string that
/// holds a map (the envelope's manifest).
void item_starts(ByteSpan item, std::size_t at, std::vector<std::size_t>& out) {
    out.push_back(at);
    const unsigned info = item[0] & 0x1F;
    const std::size_t head = info < 24 ? 1 : 1 + (std::size_t{1} << (info - 24));
    ByteSpan children = item.subspan(head);
    const unsigned major = item[0] >> 5;
    if (major == 2) {
        const auto inner = suit::cbor_decode(children);
        if (inner && inner->is_map()) item_starts(children, at + head, out);
        return;
    }
    if (major != 4 && major != 5) return;
    while (!children.empty()) {
        ByteSpan rest = children;
        ASSERT_TRUE(suit::cbor_decode_prefix(rest).has_value());
        const std::size_t child_at = at + item.size() - children.size();
        item_starts(children.first(children.size() - rest.size()), child_at, out);
        children = rest;
    }
}

/// Sets (or, with no value, removes) one field of the envelope's manifest
/// map, a top-level one or one inside the `key` submap when `sub` is set,
/// and re-encodes the envelope.
Mutation set_suit_field(std::int64_t key, std::optional<std::int64_t> sub,
                        std::optional<suit::CborValue> value) {
    return [=](Bytes& frame) {
        auto envelope = suit::parse_envelope(frame);
        ASSERT_TRUE(envelope.has_value());
        suit::CborMap map = suit::cbor_decode(envelope->manifest_bstr)->as_map();
        const auto put = [&](suit::CborMap& m, std::int64_t k) {
            if (value) m.insert_or_assign(k, *value);
            else m.erase(k);
        };
        if (sub) {
            suit::CborMap inner = map.at(key).as_map();
            put(inner, *sub);
            map.insert_or_assign(key, suit::CborValue(std::move(inner)));
        } else {
            put(map, key);
        }
        envelope->manifest_bstr = suit::cbor_encode(suit::CborValue(std::move(map)));
        frame = envelope->encode();
    };
}

std::vector<Mutation> suit_mutations(const Bytes& frame, Rng& rng) {
    std::vector<Mutation> out;
    const std::vector<suit::CborValue> uints = {
        std::uint64_t{0},      std::uint64_t{1},           std::uint64_t{0xFFFF},
        std::uint64_t{0x10000}, std::uint64_t{0xFFFFFFFF}, std::uint64_t{0x100000000},
        ~std::uint64_t{0}};
    const auto each_value = [&](std::int64_t key, std::optional<std::int64_t> sub,
                                const std::vector<suit::CborValue>& values) {
        for (const suit::CborValue& v : values) out.push_back(set_suit_field(key, sub, v));
        out.push_back(set_suit_field(key, sub, std::nullopt));
    };
    each_value(suit::kKeyManifestVersion, std::nullopt, uints);
    each_value(suit::kKeySequenceNumber, std::nullopt, uints);
    std::vector<suit::CborValue> components;
    for (const suit::CborValue& v : uints) components.emplace_back(suit::CborArray{v});
    each_value(suit::kKeyCommon, suit::kCommonComponentId, components);
    each_value(suit::kKeyCommon, suit::kCommonDigest,
               {Bytes(32, 0x00), Bytes(32, 0xFF), Bytes(31, 0x00)});
    each_value(suit::kKeyCommon, suit::kCommonImageSize, uints);
    each_value(suit::kKeyCommon, suit::kCommonLinkOffset, uints);
    for (const std::int64_t param : {suit::kParamDeviceId, suit::kParamNonce,
                                     suit::kParamOldVersion, suit::kParamPayloadSize}) {
        each_value(suit::kKeyUpkitParams, param, uints);
    }
    for (const std::int64_t flag : {suit::kParamDifferential, suit::kParamEncrypted}) {
        each_value(suit::kKeyUpkitParams, flag, {false, true, std::uint64_t{1}});
    }
    // The signatures: boundary bytes and a short one.
    for (const std::size_t index : {0u, 1u}) {
        for (const Bytes& sig : {Bytes(64, 0x00), Bytes(64, 0xFF), Bytes(63, 0x00)}) {
            out.push_back([index, sig](Bytes& f) {
                suit::CborMap envelope = suit::cbor_decode(f)->as_map();
                suit::CborArray auth = envelope.at(suit::kKeyAuthWrapper).as_array();
                auth[index] = suit::CborValue(sig);
                envelope.insert_or_assign(suit::kKeyAuthWrapper, suit::CborValue(std::move(auth)));
                f = suit::cbor_encode(suit::CborValue(std::move(envelope)));
            });
        }
    }
    std::vector<std::size_t> starts;
    item_starts(frame, 0, starts);
    for (const std::size_t at : starts) out.push_back([at](Bytes& f) { f.resize(at); });
    mutate_tail_and_flips(out, frame.size(), rng);
    return out;
}

class IntakeSweep : public ::testing::Test {
protected:
    IntakeSweep() {
        DeviceConfig config = env_.device_config(SlotLayout::kAB);
        config.enable_chunked = true;
        device_ = std::make_unique<Device>(config);
        auto factory = env_.server.prepare_update(
            kAppId, {.device_id = testenv::kDeviceId, .nonce = 0, .current_version = 0});
        EXPECT_TRUE(factory.has_value());
        EXPECT_EQ(device_->provision_factory(*factory), Status::kOk);
        EXPECT_EQ(env_.server.publish(env_.vendor.create_release(
                      sim::mutate_app_change(env_.base_firmware, 62, 1000),
                      {.version = 2, .app_id = kAppId, .chunked = true})),
                  Status::kOk);
    }

    /// A fresh token, and the server's answer to it in `kind`'s shape.
    server::UpdateResponse serve(FrameKind kind) {
        agent::UpdateAgent& agent = device_->agent();
        agent.clean();
        auto token = agent.request_device_token();
        EXPECT_TRUE(token.has_value());
        manifest::DeviceToken asked = *token;
        if (kind != FrameKind::kChunked) {
            asked.have.clear();         // a whole image...
            asked.current_version = 0;  // ...not a patch
        }
        env_.server.set_suit_mode(kind == FrameKind::kSuit);
        auto response = env_.server.prepare_update(kAppId, asked);
        env_.server.set_suit_mode(false);
        EXPECT_TRUE(response.has_value());
        EXPECT_EQ(response->manifest.chunked, kind == FrameKind::kChunked);
        return std::move(*response);
    }

    /// Feeds every mutant of a `kind` frame in chunks of 1, 100 and 244
    /// bytes and checks the intake's contract on each.
    void sweep(FrameKind kind) {
        Rng rng(kSweepSeed);
        const Bytes frame = serve(kind).manifest_bytes;
        const std::vector<Mutation> mutations =
            kind == FrameKind::kSuit ? suit_mutations(frame, rng) : native_mutations(frame, rng);
        agent::UpdateAgent& agent = device_->agent();
        const flash::SimFlash& flash = device_->internal_flash();
        unsigned accepted = 0;
        unsigned rejected = 0;
        for (std::size_t i = 0; i < mutations.size(); ++i) {
            for (const std::size_t chunk : {1u, 100u, 244u}) {
                SCOPED_TRACE("mutant " + std::to_string(i) + ", chunk " + std::to_string(chunk));
                const server::UpdateResponse original = serve(kind);
                Bytes mutant = original.manifest_bytes;
                mutations[i](mutant);
                const std::uint64_t counted = agent.stats().manifests_rejected;
                const std::uint64_t written = flash.bytes_written();

                Status verdict = Status::kOk;
                for (std::size_t fed = 0; fed < mutant.size() && verdict == Status::kOk;) {
                    const std::size_t len = std::min(chunk, mutant.size() - fed);
                    verdict = agent.offer_manifest(ByteSpan(mutant).subspan(fed, len));
                    fed += len;
                    const std::size_t limit = verify::header_size(ByteSpan(mutant).first(fed));
                    if (verdict == Status::kOk) {
                        EXPECT_TRUE(limit == 0 || fed <= limit) << "took byte " << fed;
                    }
                }
                EXPECT_EQ(flash.bytes_written(), written);
                if (verdict == Status::kOk) verdict = agent.end_manifest();

                if (verdict == Status::kOk) {
                    ++accepted;
                    EXPECT_EQ(agent.stats().manifests_rejected, counted);
                    ASSERT_TRUE(agent.pending_manifest().has_value());
                    EXPECT_EQ(manifest::serialize(*agent.pending_manifest()),
                              manifest::serialize(original.manifest));
                } else {
                    ++rejected;
                    EXPECT_EQ(agent.stats().manifests_rejected, counted + 1) << to_string(verdict);
                    EXPECT_EQ(flash.bytes_written(), written);
                }
            }
        }
        // Neither verdict may be vacuous: some mutants (a field set to the
        // value it had, trailing padding on an envelope) keep the header.
        EXPECT_GT(accepted, 0u);
        EXPECT_GT(rejected, 0u);
    }

    TestEnv env_;
    std::unique_ptr<Device> device_;
};

TEST_F(IntakeSweep, PlainNativeManifest) { sweep(FrameKind::kPlain); }
TEST_F(IntakeSweep, ChunkedNativeManifest) { sweep(FrameKind::kChunked); }
TEST_F(IntakeSweep, SuitEnvelope) { sweep(FrameKind::kSuit); }

// ----------------------------------------------------------- fleet

TEST(FleetTest, HeterogeneousFleetConverges) {
    TestEnv env;
    std::vector<std::unique_ptr<Device>> devices;
    FleetCampaign campaign(env.server);

    for (int i = 0; i < 6; ++i) {
        DeviceConfig config = env.device_config(i % 2 == 0 ? SlotLayout::kAB
                                                           : SlotLayout::kStaticInternal);
        config.device_id = 0x3000 + static_cast<std::uint32_t>(i);
        config.seed = static_cast<std::uint64_t>(i) + 1;
        config.enable_differential = (i % 3 != 0);
        auto device = std::make_unique<Device>(config);
        auto factory = env.server.prepare_update(
            kAppId, {.device_id = config.device_id, .nonce = 0, .current_version = 0});
        ASSERT_TRUE(factory.has_value());
        ASSERT_EQ(device->provision_factory(*factory), Status::kOk);

        net::LinkParams link = (i % 2 == 0) ? net::ble_gatt() : net::coap_6lowpan();
        link.loss_probability = (i == 5) ? 0.05 : 0.0;  // one flaky device
        campaign.add(*device, link);
        devices.push_back(std::move(device));
    }

    env.publish_os_update(2, 62);
    const CampaignReport report = campaign.run(kAppId);
    EXPECT_EQ(report.succeeded, 6u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.differential_updates, 4u);  // devices 1,2,4,5 support diff
    EXPECT_GT(report.total_energy_mj, 0.0);
    for (const auto& result : report.devices) {
        EXPECT_EQ(result.final_version, 2) << result.device_id;
    }
}

TEST(FleetTest, DeadLinkReportsFailureAfterRetries) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.publish_os_update(2, 63);

    net::LinkParams dead = net::ble_gatt();
    dead.loss_probability = 1.0;
    FleetCampaign campaign(env.server);
    campaign.add(*device, dead);
    const CampaignReport report = campaign.run(kAppId, {.max_attempts = 2});
    EXPECT_EQ(report.failed, 1u);
    ASSERT_EQ(report.devices.size(), 1u);
    EXPECT_EQ(report.devices[0].attempts, 2u);
    EXPECT_EQ(device->identity().installed_version, 1);
}

TEST(FleetTest, FlakyLinkConvergesWithBackoffNotBusyLooping) {
    TestEnv env(4 * 1024);  // small image: few chunks, attempt outcomes swing
    // This device id's deterministic loss stream sinks the first attempts on
    // the flaky link below and converges on the fourth.
    DeviceConfig config = env.device_config(SlotLayout::kAB);
    config.device_id = 0x400C;
    auto device = std::make_unique<Device>(config);
    auto factory = env.server.prepare_update(
        kAppId, {.device_id = config.device_id, .nonce = 0, .current_version = 0});
    ASSERT_TRUE(factory.has_value());
    ASSERT_EQ(device->provision_factory(*factory), Status::kOk);
    env.publish_os_update(2, 64);

    // Lossy enough that whole attempts abort (a chunk exhausts its 16
    // retransmissions), but recoverable across attempts since each retry
    // draws fresh channel conditions.
    net::LinkParams flaky = net::ble_gatt();
    flaky.loss_probability = 0.85;
    FleetCampaign campaign(env.server);
    campaign.add(*device, flaky);

    const CampaignReport report = campaign.run(kAppId, {.max_attempts = 20});
    ASSERT_EQ(report.devices.size(), 1u);
    const CampaignDeviceResult& result = report.devices[0];
    EXPECT_EQ(result.status, Status::kOk);
    EXPECT_EQ(result.final_version, 2);
    // The link is bad enough that several attempts must have failed...
    EXPECT_GT(result.attempts, 1u);
    // ...and every failed attempt slept instead of hammering the server:
    // virtual time between attempts grows exponentially, not by zero.
    EXPECT_GT(result.backoff_s, 0.0);
    EXPECT_GE(result.time_s, result.backoff_s);
}

TEST(FleetTest, BackoffDelaysGrowExponentiallyAndStayJittered) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);
    env.publish_os_update(2, 65);

    net::LinkParams dead = net::ble_gatt();
    dead.loss_probability = 1.0;  // every attempt fails: pure backoff test
    FleetCampaign campaign(env.server);
    campaign.add(*device, dead);

    FleetPolicy policy;
    policy.max_attempts = 5;
    policy.initial_backoff_s = 2.0;
    policy.backoff_factor = 2.0;
    policy.max_backoff_s = 300.0;
    policy.jitter = 0.25;
    const CampaignReport report = campaign.run(kAppId, policy);
    ASSERT_EQ(report.devices.size(), 1u);
    const CampaignDeviceResult& result = report.devices[0];
    EXPECT_EQ(result.attempts, 5u);
    // 4 sleeps of nominal 2+4+8+16 = 30 s, each jittered by at most ±25%.
    EXPECT_GE(result.backoff_s, 30.0 * 0.75);
    EXPECT_LE(result.backoff_s, 30.0 * 1.25);
    // And a rerun replays the identical schedule (deterministic jitter) —
    // in a fresh world, since the jitter stream depends only on device id.
    TestEnv env2;
    auto device2 = env2.make_device(SlotLayout::kAB);
    env2.publish_os_update(2, 65);
    FleetCampaign campaign2(env2.server);
    campaign2.add(*device2, dead);
    const CampaignReport report2 = campaign2.run(kAppId, policy);
    ASSERT_EQ(report2.devices.size(), 1u);
    EXPECT_DOUBLE_EQ(report2.devices[0].backoff_s, result.backoff_s);
}

TEST(FleetTest, AlreadyCurrentFleetDoesNotRetryStaleOffers) {
    TestEnv env;
    auto device = env.make_device(SlotLayout::kAB);  // already at latest (v1)
    FleetCampaign campaign(env.server);
    campaign.add(*device, net::ble_gatt());
    const CampaignReport report = campaign.run(kAppId, {.max_attempts = 5});
    ASSERT_EQ(report.devices.size(), 1u);
    EXPECT_EQ(report.devices[0].status, Status::kStaleVersion);
    EXPECT_EQ(report.devices[0].attempts, 1u);  // no pointless retries
}

}  // namespace
}  // namespace upkit::core
