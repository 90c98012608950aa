#include "net/transport.hpp"

#include <algorithm>

namespace upkit::net {

Status Transport::send_chunk(std::size_t payload_bytes, sim::Component radio) {
    // Conditions are re-evaluated per transmission attempt at the campaign
    // instant the attempt starts, so a burst or outage that begins
    // mid-chunk affects the retries but not the attempts before it. With no
    // plan bound they are neutral: one rng draw per attempt iff the link's
    // own loss is positive.
    const double airtime = link_.chunk_seconds(payload_bytes);
    const double campaign_t = clock_->now() - chaos_.campaign_offset;
    double seconds = 0.0;
    unsigned attempts = 0;
    Status status = Status::kOk;
    for (;;) {
        const sim::ChaosPlan::Conditions c =
            chaos_.plan == nullptr
                ? sim::ChaosPlan::Conditions{}
                : chaos_.plan->conditions(campaign_t + seconds, chaos_.device_id,
                                          chaos_.region);
        seconds += airtime;
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
        if (!lost) break;
        if (++attempts > max_retries_) {
            status = Status::kTimeout;
            break;
        }
        ++retransmissions_;
    }
    clock_->advance(seconds);
    if (meter_ != nullptr) meter_->charge(radio, seconds);
    return status;
}

Status Transport::chunk_to_device(ByteSpan data, std::size_t& offset, ByteSink& sink) {
    const std::size_t len = std::min(link_.mtu, data.size() - offset);
    UPKIT_RETURN_IF_ERROR(send_chunk(len, sim::Component::kRadioRx));
    UPKIT_RETURN_IF_ERROR(sink.write(data.subspan(offset, len)));
    offset += len;
    bytes_down_ += len;
    return Status::kOk;
}

Status Transport::chunk_from_device(ByteSpan data, std::size_t& offset) {
    const std::size_t len = std::min(link_.mtu, data.size() - offset);
    UPKIT_RETURN_IF_ERROR(send_chunk(len, sim::Component::kRadioTx));
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
