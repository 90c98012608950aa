#include "core/session.hpp"

#include <algorithm>

namespace upkit::core {

namespace {

/// ByteSink delivering transport chunks into an agent entry point.
class AgentPayloadSink final : public ByteSink {
public:
    explicit AgentPayloadSink(agent::UpdateAgent& agent) : agent_(agent) {}
    Status write(ByteSpan data) override { return agent_.offer_payload(data); }

private:
    agent::UpdateAgent& agent_;
};

/// Backoff rounds spent waiting for an outage to end before the session
/// gives up with kUnavailable (bounds the DES event count per attempt).
constexpr unsigned kMaxReconnectWaits = 64;

/// Per-chunk re-requests tolerated per attempt before the session gives up
/// as kBadDigest (a link this dirty will not finish anyway).
constexpr unsigned kMaxChunkRetries = 64;

}  // namespace

std::string_view SessionDriver::phase_name(Phase p) {
    switch (p) {
        case Phase::kStart: return "start";
        case Phase::kSendToken: return "send-token";
        case Phase::kAwaitServer: return "await-server";
        case Phase::kRecvManifest: return "recv-manifest";
        case Phase::kRecvPayload: return "recv-payload";
        case Phase::kReconnect: return "reconnect";
        case Phase::kReboot: return "reboot";
        case Phase::kConfirm: return "confirm";
        case Phase::kRollback: return "rollback";
        case Phase::kDone: return "done";
    }
    return "?";
}

SessionDriver::SessionDriver(Device& device, net::Transport& transport,
                             sim::Tracer* tracer, double trace_offset)
    : device_(&device),
      transport_(&transport),
      tracer_(tracer),
      trace_offset_(trace_offset),
      t_start_(device.clock().now()),
      e_start_(device.meter().total_millijoules()),
      verify_base_(device.agent().stats().verification_seconds) {}

void SessionDriver::emit(sim::TraceType type, std::uint32_t code, double value,
                         std::string_view from, std::string_view to) {
    if (tracer_ == nullptr) return;
    tracer_->emit(sim::TraceEvent{.t = device_->clock().now() - trace_offset_,
                                  .device_id = device_->identity().device_id,
                                  .type = type,
                                  .from = from,
                                  .to = to,
                                  .code = code,
                                  .value = value});
}

void SessionDriver::enter_phase(Phase next) {
    emit(sim::TraceType::kSessionPhase, 0, 0.0, phase_name(phase_), phase_name(next));
    phase_ = next;
}

Expected<boot::BootReport> SessionDriver::reboot() {
    const double boot_start = device_->clock().now();
    auto boot_report = device_->reboot();
    report_.rebooted = true;
    if (boot_report) {
        const double boot_elapsed = device_->clock().now() - boot_start;
        report_.phases.verification_s += boot_report->verification_seconds;
        report_.phases.loading_s += boot_elapsed - boot_report->verification_seconds;
    }
    return boot_report;
}

SessionDriver::StepResult SessionDriver::finish(Status status) {
    // Don't leave the FSM armed when the session dies between the token
    // and a verdict (server error, transport failure): the next session
    // must be able to request a fresh token. (Fetch the agent anew —
    // a reboot replaces the object.)
    if (status != Status::kOk && !report_.rebooted) {
        agent::UpdateAgent& current = device_->agent();
        if (current.state() != agent::FsmState::kWaiting &&
            current.state() != agent::FsmState::kCleaning) {
            current.clean();
        }
    }
    const double elapsed = device_->clock().now() - t_start_;
    report_.phases.verification_s += agent_verify_;
    report_.phases.propagation_s =
        elapsed - report_.phases.verification_s - report_.phases.loading_s;
    report_.status = status;
    report_.bytes_over_air = transport_->bytes_to_device() + transport_->bytes_from_device();
    report_.final_version = device_->identity().installed_version;
    report_.energy_mj = device_->meter().total_millijoules() - e_start_;
    enter_phase(Phase::kDone);
    emit(sim::TraceType::kSessionEnd, static_cast<std::uint32_t>(status), elapsed);
    return StepResult{Want::kFinished};
}

void SessionDriver::provide_response(Expected<server::UpdateResponse> response) {
    assert(phase_ == Phase::kAwaitServer && "no server request outstanding");
    if (response) {
        response_ = std::move(*response);
        if (interceptor_) interceptor_(*response_);
        response_status_ = Status::kOk;
    } else {
        response_status_ = response.status();
    }
}

SessionDriver::StepResult SessionDriver::step() {
    switch (phase_) {
        case Phase::kStart: {
            // --- propagation: device token (steps 4-5) ----------------------
            auto token = device_->agent().request_device_token();
            if (!token) return finish(token.status());
            token_ = *token;
            token_bytes_ = manifest::serialize(*token_);
            uplink_offset_ = 0;
            resumes_left_ = transport_resumes_;
            enter_phase(Phase::kSendToken);
            return yield();
        }

        case Phase::kSendToken: {
            if (transport_->chunk_from_device(token_bytes_, uplink_offset_) != Status::kOk) {
                return finish(Status::kTransportError);
            }
            if (uplink_offset_ < token_bytes_.size()) return yield();
            // Token uploaded: the server request is now in flight; the owner
            // resolves it (queueing + service) and provides the response.
            enter_phase(Phase::kAwaitServer);
            return StepResult{Want::kServer};
        }

        case Phase::kAwaitServer: {
            // --- server prepared the doubly-signed image (steps 6-7) --------
            if (response_status_ != Status::kOk) {
                if (resuming_ && response_status_ == Status::kUnavailable &&
                    resumes_left_ > 0) {
                    // The outage outlasted the reconnect: the request hit a
                    // still-down server. Wait another round.
                    --resumes_left_;
                    reconnect_waits_ = 0;
                    enter_phase(Phase::kReconnect);
                    return yield();
                }
                return finish(response_status_);
            }
            assert(response_.has_value() && "provide_response() not called");
            if (resuming_) {
                // Refreshed-token response: the agent's manifest, pipeline,
                // and partially-written slot survived the outage. Check the
                // server still serves the same update, then continue the
                // payload from the committed offset — the manifest phase is
                // not repeated (the stored header keeps the originally
                // signed manifest for the bootloader's re-verification).
                resuming_ = false;
                agent::UpdateAgent& agent = device_->agent();
                if (!agent.pending_manifest().has_value() ||
                    agent.pending_manifest()->version != response_->manifest.version) {
                    return finish(Status::kStaleVersion);  // superseded mid-outage
                }
                payload_offset_ = static_cast<std::size_t>(agent.payload_offset());
                enter_phase(Phase::kRecvPayload);
                return yield();
            }
            report_.differential = response_->manifest.differential;
            report_.chunked = response_->manifest.chunked;
            manifest_offset_ = 0;
            manifest_sink_ = BytesSink{};
            enter_phase(Phase::kRecvManifest);
            return yield();
        }

        case Phase::kRecvManifest: {
            // --- propagation: manifest (step 8), verified on arrival (9) ----
            if (transport_->chunk_to_device(response_->manifest_bytes, manifest_offset_,
                                            manifest_sink_) != Status::kOk) {
                return finish(Status::kTransportError);
            }
            if (manifest_offset_ < response_->manifest_bytes.size()) return yield();
            agent::UpdateAgent& agent = device_->agent();
            const Status manifest_verdict =
                response_->suit_encoding
                    ? agent.offer_suit_manifest(manifest_sink_.bytes())
                    : agent.offer_manifest(manifest_sink_.bytes());
            agent_verify_ = agent.stats().verification_seconds - verify_base_;
            if (manifest_verdict != Status::kOk) {
                // Early rejection: no firmware download, no reboot (the
                // paper's headline security/efficiency win).
                report_.rejected_before_download = true;
                return finish(manifest_verdict);
            }
            if (agent.update_ready()) {
                // Chunked update fully assembled from chunks the device
                // already held: there is no payload phase at all.
                enter_phase(Phase::kReboot);
                return yield();
            }
            chunk_poison_pending_.clear();
            if (chunk_chaos_ != nullptr && agent.chunked_transfer()) {
                const auto& chunks = agent.air_chunks();
                chunk_poison_pending_.assign(chunks.size(), false);
                for (std::size_t i = 0; i < chunks.size(); ++i) {
                    chunk_poison_pending_[i] = chunk_chaos_->payload_chunk_corrupted(
                        device_->identity().device_id, chunks[i].table_index);
                }
            }
            payload_offset_ = 0;
            enter_phase(Phase::kRecvPayload);
            return yield();
        }

        case Phase::kRecvPayload: {
            // --- propagation: payload through the pipeline (steps 11-13) ----
            // On a transport timeout the proxy may reconnect and resume from
            // the agent's committed offset (the FSM and pipeline survive
            // link drops).
            agent::UpdateAgent& agent = device_->agent();
            AgentPayloadSink sink(agent);
            Status verdict;
            // Chunk-targeted chaos: if the upcoming MTU window overlaps an
            // air chunk still marked for its one-shot corruption, deliver a
            // locally-mangled copy of the window (one bit flip inside the
            // marked chunk). The agent's per-chunk digest check rejects it
            // and the driver re-sends just that chunk — the clean copy, the
            // mark having been spent.
            std::size_t poison = chunk_poison_pending_.size();
            if (!chunk_poison_pending_.empty()) {
                const auto& chunks = agent.air_chunks();
                const std::size_t len = std::min(transport_->link().mtu,
                                                 response_->payload.size() - payload_offset_);
                for (std::size_t i = 0; i < chunks.size(); ++i) {
                    if (chunk_poison_pending_[i] &&
                        payload_offset_ < chunks[i].wire_offset + chunks[i].length &&
                        payload_offset_ + len > chunks[i].wire_offset) {
                        poison = i;
                        break;
                    }
                }
            }
            if (poison != chunk_poison_pending_.size()) {
                const auto& chunk = agent.air_chunks()[poison];
                const std::size_t len = std::min(transport_->link().mtu,
                                                 response_->payload.size() - payload_offset_);
                Bytes window(response_->payload.begin() +
                                 static_cast<std::ptrdiff_t>(payload_offset_),
                             response_->payload.begin() +
                                 static_cast<std::ptrdiff_t>(payload_offset_ + len));
                const std::size_t flip = chunk.wire_offset > payload_offset_
                                             ? chunk.wire_offset - payload_offset_
                                             : 0;
                window[flip] ^= 0x20;
                chunk_poison_pending_[poison] = false;
                std::size_t local = 0;
                verdict = transport_->chunk_to_device(window, local, sink);
                payload_offset_ += local;
            } else {
                verdict =
                    transport_->chunk_to_device(response_->payload, payload_offset_, sink);
            }
            agent_verify_ = agent.stats().verification_seconds - verify_base_;
            if (verdict == Status::kChunkDigestMismatch) {
                // The agent dropped the bad chunk before flash and rolled
                // its offset back to the last committed byte; re-send from
                // there. Not a session failure unless it keeps happening.
                ++report_.chunk_retries;
                if (report_.chunk_retries > kMaxChunkRetries) {
                    report_.rejected_after_download = true;
                    return finish(Status::kBadDigest);
                }
                payload_offset_ = static_cast<std::size_t>(agent.payload_offset());
                return yield();
            }
            if (verdict == Status::kTimeout && resumes_left_ > 0) {
                --resumes_left_;
                ++report_.transport_resumes;
                payload_offset_ = static_cast<std::size_t>(agent.payload_offset());
                if (outage_probe_ && outage_probe_() && !response_->manifest.encrypted) {
                    // The server is down, so an instant reconnect would just
                    // time out again: wait the outage out and re-handshake.
                    // (Encrypted payloads are bound to the original nonce
                    // and cannot survive a token refresh mid-stream.)
                    reconnect_waits_ = 0;
                    enter_phase(Phase::kReconnect);
                }
                return yield();
            }
            if (verdict != Status::kOk) {
                report_.rejected_after_download = true;
                return finish(verdict);
            }
            if (payload_offset_ < response_->payload.size()) return yield();
            if (!agent.update_ready()) {
                report_.rejected_after_download = true;
                return finish(Status::kBadDigest);
            }
            enter_phase(Phase::kReboot);
            return yield();
        }

        case Phase::kReconnect: {
            device_->clock().advance(reconnect_backoff_s_);
            if (outage_probe_ && outage_probe_()) {
                if (++reconnect_waits_ >= kMaxReconnectWaits) {
                    return finish(Status::kUnavailable);
                }
                return yield();  // still down; probe again after backoff
            }
            auto token = device_->agent().refresh_token();
            if (!token) return finish(token.status());
            token_ = *token;
            token_bytes_ = manifest::serialize(*token_);
            uplink_offset_ = 0;
            resuming_ = true;
            ++report_.token_refreshes;
            emit(sim::TraceType::kTokenRefresh, report_.token_refreshes, 0.0);
            enter_phase(Phase::kSendToken);
            return yield();
        }

        case Phase::kReboot: {
            // --- reboot + bootloader verification + loading (steps 15-18) ---
            auto boot_report = reboot();
            if (!boot_report) return finish(boot_report.status());

            if (boot_report->booted.version != response_->manifest.version) {
                return finish(Status::kStaleVersion);  // rollback happened
            }
            if (boot_report->trial_boot) {
                report_.trial_boot = true;
                enter_phase(Phase::kConfirm);
                return yield();
            }
            return finish(Status::kOk);
        }

        case Phase::kConfirm: {
            // --- boot-confirm protocol: self-test, then confirm or die ------
            agent::UpdateAgent& agent = device_->agent();
            const bool healthy =
                agent.run_self_test(device_->identity().installed_version);
            if (healthy && device_->bootloader().confirm_boot() == Status::kOk) {
                report_.confirmed = true;
                emit(sim::TraceType::kTrialBoot, 1, 0.0);
                return finish(Status::kOk);
            }
            enter_phase(Phase::kRollback);
            return yield();
        }

        case Phase::kRollback: {
            // The unhealthy image never confirms; the device limps along
            // until the modelled watchdog fires at the trial deadline and
            // resets it. The bootloader then reverts the unconfirmed slot
            // and the previous version boots.
            const double deadline = device_->bootloader().trial_deadline();
            if (device_->clock().now() < deadline) {
                device_->clock().advance(deadline - device_->clock().now());
            }
            auto boot_report = reboot();
            if (!boot_report) return finish(boot_report.status());
            report_.rolled_back = boot_report->rolled_back;
            emit(sim::TraceType::kTrialBoot, 2, 0.0);
            return finish(Status::kSelfTestFailed);
        }

        case Phase::kDone:
            break;
    }
    return StepResult{Want::kFinished};
}

SessionReport UpdateSession::run(std::uint32_t app_id) {
    // The session timeline starts at 0 when the session does.
    const double trace_offset = device_->clock().now();
    if (tracer_ != nullptr) device_->set_tracer(tracer_, trace_offset);
    SessionDriver driver(*device_, transport_, tracer_, trace_offset);
    driver.set_interceptor(interceptor_);
    driver.set_transport_resumes(transport_resumes_);
    driver.set_chunk_chaos(chunk_chaos_);

    // Pump the driver to completion: an uncontended server answers after its
    // configured service time (zero by default), never queueing.
    for (;;) {
        const SessionDriver::StepResult result = driver.step();
        if (result.want == SessionDriver::Want::kFinished) break;
        if (result.want == SessionDriver::Want::kServer) {
            auto response = server_->prepare_update(app_id, driver.token());
            const double service =
                response ? server_->model().service_seconds(response->receipt)
                         : server_->model().service_seconds(std::size_t{0});
            device_->clock().advance(service);
            driver.provide_response(std::move(response));
        }
    }
    if (tracer_ != nullptr) device_->set_tracer(nullptr);
    return driver.report();
}

}  // namespace upkit::core
