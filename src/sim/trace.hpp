// Structured trace layer for campaign observability.
//
// Agents, session drivers, and the fleet engine emit typed events — FSM
// transitions, session phase changes, server-queue enter/exit, retries —
// onto a Tracer, which fans them out to attached sinks. Two sinks are
// provided: a fixed-capacity ring buffer (cheap enough to leave on for a
// million-event campaign, keeps the tail for post-mortem) and a JSONL sink
// (one self-describing object per line; byte-identical across reruns of the
// same seed, which is what the determinism tests diff). A null Tracer* means
// tracing is off; emitters guard with `if (tracer_)`.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv1a.hpp"

namespace upkit::sim {

enum class TraceType : std::uint8_t {
    kSessionStart,   // attempt begins            (code = attempt #)
    kSessionPhase,   // driver phase transition   (from/to = phase names)
    kSessionEnd,     // attempt finished          (code = Status, value = duration s)
    kFsmTransition,  // agent FSM edge            (from/to = state names)
    kQueueEnter,     // server request enqueued   (code = queue depth after)
    kQueueExit,      // request admitted          (value = wait s, code = depth after)
    kServiceDone,    // server finished serving   (value = service s)
    kRetryScheduled, // backoff sleep programmed  (code = next attempt #, value = delay s)
    kWaveStart,      // rollout wave released     (code = wave index)
    kServerCache,    // request served            (code = cache bits, value = sign ops)
    kKeyRotation,    // device key re-registered  (code = rotation generation)
    kWavePromote,    // cohort passed its gate    (code = promoted wave, value = success rate)
    kBreakerTrip,    // circuit breaker tripped   (code = wave, value = failure rate)
    kServerOutage,   // request hit a down server (value = retry delay s)
    kTrialBoot,      // trial-boot verdict        (code = 1 confirmed, 2 rolled back)
    kTokenRefresh,   // session token re-issued   (code = refresh count)
    kEdgeFallback,   // regional edge down, origin took the request (code = region)
    kEdgeCache,      // edge served a request     (code = region, value = 1 hit / 0 miss)
};

/// Bit layout of the `code` field on kServerCache events.
inline constexpr std::uint32_t kCacheBitChunked = 1;      // payload of missing chunks
inline constexpr std::uint32_t kCacheBitResponseHit = 2;  // envelope from response cache
inline constexpr std::uint32_t kCacheBitDeltaAttempt = 4; // bsdiff delta generated

constexpr std::string_view to_string(TraceType t) {
    switch (t) {
        case TraceType::kSessionStart: return "session-start";
        case TraceType::kSessionPhase: return "phase";
        case TraceType::kSessionEnd: return "session-end";
        case TraceType::kFsmTransition: return "fsm";
        case TraceType::kQueueEnter: return "queue-enter";
        case TraceType::kQueueExit: return "queue-exit";
        case TraceType::kServiceDone: return "service-done";
        case TraceType::kRetryScheduled: return "retry";
        case TraceType::kWaveStart: return "wave";
        case TraceType::kServerCache: return "server-cache";
        case TraceType::kKeyRotation: return "key-rotation";
        case TraceType::kWavePromote: return "wave-promote";
        case TraceType::kBreakerTrip: return "breaker-trip";
        case TraceType::kServerOutage: return "server-outage";
        case TraceType::kTrialBoot: return "trial-boot";
        case TraceType::kTokenRefresh: return "token-refresh";
        case TraceType::kEdgeFallback: return "edge-fallback";
        case TraceType::kEdgeCache: return "edge-cache";
    }
    return "?";
}

/// One trace record. `from`/`to` must point at storage that outlives the
/// sink (in practice: the static names returned by to_string overloads).
struct TraceEvent {
    double t = 0.0;               // campaign-timeline seconds
    std::uint32_t device_id = 0;  // 0 = campaign-level event (e.g. waves)
    TraceType type{};
    std::string_view from;        // optional state/phase names
    std::string_view to;
    std::uint32_t code = 0;       // type-specific small integer (see enum)
    double value = 0.0;           // type-specific seconds (see enum)
};

class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void on_event(const TraceEvent& event) = 0;
};

/// Keeps the most recent `capacity` events; total_seen() tells how many were
/// emitted overall, so tests can assert on volume without storing millions.
class RingBufferSink final : public TraceSink {
public:
    explicit RingBufferSink(std::size_t capacity) : capacity_(capacity) {}

    void on_event(const TraceEvent& event) override {
        ++total_seen_;
        if (events_.size() == capacity_) events_.pop_front();
        events_.push_back(event);
    }

    const std::deque<TraceEvent>& events() const { return events_; }
    std::uint64_t total_seen() const { return total_seen_; }
    void clear() { events_.clear(); total_seen_ = 0; }

private:
    std::size_t capacity_;
    std::deque<TraceEvent> events_;
    std::uint64_t total_seen_ = 0;
};

/// Rolling FNV-1a over every field of every event, in emission order. One
/// u64 stands in for the full JSONL diff: equal fingerprints across reruns,
/// shard counts, or engines mean the streams were identical event-for-event
/// (the differential battery compares this alongside CampaignReports, and
/// keeps the JSONL byte-diff for the small cases where storing it is cheap).
class FingerprintSink final : public TraceSink {
public:
    void on_event(const TraceEvent& event) override {
        hash_.mix(event.t);
        hash_.mix(std::uint64_t{event.device_id});
        hash_.mix(static_cast<std::uint64_t>(event.type));
        hash_.mix(event.from);
        hash_.mix(event.to);
        hash_.mix(std::uint64_t{event.code});
        hash_.mix(event.value);
        ++events_;
    }

    std::uint64_t fingerprint() const { return hash_.value(); }
    std::uint64_t events() const { return events_; }
    void reset() {
        hash_ = Fnv1a{};
        events_ = 0;
    }

private:
    Fnv1a hash_;
    std::uint64_t events_ = 0;
};

/// Appends one JSON object per event to a caller-owned string. Formatting is
/// fixed (printf "%.9g" for times) so identical event streams serialize to
/// identical bytes — the determinism tests rely on that.
class JsonlSink final : public TraceSink {
public:
    explicit JsonlSink(std::string& out) : out_(&out) {}

    void on_event(const TraceEvent& event) override;

private:
    std::string* out_;
};

/// Fan-out point. Emitters hold a Tracer* (null = tracing disabled).
class Tracer {
public:
    void add_sink(TraceSink& sink) { sinks_.push_back(&sink); }

    void emit(const TraceEvent& event) {
        for (TraceSink* sink : sinks_) sink->on_event(event);
    }

private:
    std::vector<TraceSink*> sinks_;
};

}  // namespace upkit::sim
