#include "net/transport.hpp"

#include <algorithm>

namespace upkit::net {

double Transport::transfer_chunk_seconds(std::size_t payload_bytes, bool* aborted,
                                         bool* corrupted) {
    *aborted = false;
    *corrupted = false;
    // Conditions are re-evaluated per transmission attempt at the campaign
    // instant the attempt starts, so a burst or outage that begins
    // mid-chunk affects the retries but not the attempts before it. With no
    // plan bound they are neutral: one rng draw per attempt iff the link's
    // own loss is positive.
    double seconds = 0.0;
    unsigned attempts = 0;
    for (;;) {
        const sim::ChaosPlan::Conditions c =
            chaos_.plan == nullptr
                ? sim::ChaosPlan::Conditions{}
                : chaos_.plan->conditions(clock_->now() - chaos_.campaign_offset + seconds,
                                          chaos_.device_id, chaos_.payload_via_server,
                                          chaos_.region);
        seconds += link_.chunk_seconds(payload_bytes,
                                       {c.extra_loss, c.overhead_factor});
        bool lost;
        if (c.blocked) {
            lost = true;  // server down: deterministic loss, no rng draw
        } else {
            // A plan's bursts are capped short of certain loss; a link's own
            // loss is not, so a dead link (loss 1.0) still aborts.
            double loss = link_.loss_probability + c.extra_loss;
            if (chaos_.plan != nullptr) loss = std::min(0.99, loss);
            lost = loss > 0.0 && rng_.chance(loss);
        }
        if (!lost) {
            *corrupted = c.corrupt;
            return seconds;
        }
        if (++attempts > max_retries_) {
            *aborted = true;
            return seconds;
        }
        ++retransmissions_;
    }
}

Status Transport::chunk_to_device(ByteSpan data, std::size_t& offset, ByteSink& sink,
                                  double* seconds) {
    const std::size_t len = std::min(link_.mtu, data.size() - offset);
    bool aborted = false;
    bool corrupted = false;
    const double s = transfer_chunk_seconds(len, &aborted, &corrupted);
    clock_->advance(s);
    if (meter_ != nullptr) meter_->charge(sim::Component::kRadioRx, s);
    if (seconds != nullptr) *seconds = s;
    if (aborted) return Status::kTimeout;
    if (corrupted) {
        // In-transit bit flip the link layer missed; the agent's digest
        // check catches it after download.
        Bytes mangled(data.begin() + static_cast<std::ptrdiff_t>(offset),
                      data.begin() + static_cast<std::ptrdiff_t>(offset + len));
        mangled[len / 2] ^= 0x40;
        UPKIT_RETURN_IF_ERROR(sink.write(ByteSpan(mangled.data(), mangled.size())));
    } else {
        UPKIT_RETURN_IF_ERROR(sink.write(data.subspan(offset, len)));
    }
    offset += len;
    bytes_down_ += len;
    return Status::kOk;
}

Status Transport::chunk_from_device(ByteSpan data, std::size_t& offset, double* seconds) {
    const std::size_t len = std::min(link_.mtu, data.size() - offset);
    bool aborted = false;
    bool corrupted = false;
    const double s = transfer_chunk_seconds(len, &aborted, &corrupted);
    clock_->advance(s);
    if (meter_ != nullptr) meter_->charge(sim::Component::kRadioTx, s);
    if (seconds != nullptr) *seconds = s;
    if (aborted) return Status::kTimeout;
    offset += len;
    bytes_up_ += len;
    return Status::kOk;
}

Status Transport::to_device(ByteSpan data, ByteSink& sink) {
    std::size_t offset = 0;
    while (offset < data.size()) {
        UPKIT_RETURN_IF_ERROR(chunk_to_device(data, offset, sink));
    }
    return Status::kOk;
}

Status Transport::from_device(ByteSpan data) {
    std::size_t offset = 0;
    while (offset < data.size()) {
        UPKIT_RETURN_IF_ERROR(chunk_from_device(data, offset));
    }
    return Status::kOk;
}

}  // namespace upkit::net
