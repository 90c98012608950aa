// Discrete-event scheduler: the single campaign timeline every fleet-scale
// experiment runs on.
//
// A min-heap of timed callbacks ordered by (timestamp, insertion sequence):
// the sequence number gives FIFO semantics for events scheduled at the same
// instant, which is what makes a campaign deterministic — two runs with the
// same seeds pop the exact same event order. Scheduling into the past is a
// programming error (asserted; clamped to now in release builds) so causality
// on the shared timeline can never be violated.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/clock.hpp"

namespace upkit::sim {

class EventScheduler {
public:
    using Callback = std::function<void()>;

    double now() const { return now_s_; }
    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }
    std::uint64_t events_processed() const { return processed_; }

    /// Schedules `fn` at absolute time `t` on the campaign timeline.
    /// Invariant: t >= now() (no event may be scheduled in the past), up to
    /// floating-point slack: timestamps that round-trip through a device
    /// clock offset (DeviceClockView) can land a few ulps behind now(), so
    /// such stragglers are clamped forward and only genuinely-past times
    /// (beyond any accumulation error) trip the assert.
    void schedule_at(double t, Callback fn) {
        assert(t >= now_s_ - 1e-9 * (1.0 + now_s_) &&
               "event scheduled in the past");
        if (t < now_s_) t = now_s_;
        heap_.push(Event{t, seq_++, std::move(fn)});
    }

    /// Schedules `fn` after a delay of `dt` seconds (dt < 0 clamps to now).
    void schedule_in(double dt, Callback fn) {
        schedule_at(dt > 0 ? now_s_ + dt : now_s_, std::move(fn));
    }

    /// Runs events in timestamp order until the heap drains or `max_events`
    /// have been processed (0 = no budget). Returns events processed by
    /// this call; callers with a budget can check empty() to distinguish
    /// completion from budget exhaustion.
    std::uint64_t run(std::uint64_t max_events = 0) {
        std::uint64_t n = 0;
        while (!heap_.empty() && (max_events == 0 || n < max_events)) {
            // Move the callback out before popping: the callback may
            // schedule new events (heap reallocation invalidates top()).
            Event ev = heap_.top();
            heap_.pop();
            assert(ev.t >= now_s_);
            now_s_ = ev.t;
            ++n;
            ++processed_;
            ev.fn();
        }
        return n;
    }

private:
    struct Event {
        double t;
        std::uint64_t seq;
        Callback fn;
    };
    struct After {
        bool operator()(const Event& a, const Event& b) const {
            if (a.t != b.t) return a.t > b.t;
            return a.seq > b.seq;  // FIFO among equal timestamps
        }
    };

    std::priority_queue<Event, std::vector<Event>, After> heap_;
    double now_s_ = 0.0;
    std::uint64_t seq_ = 0;
    std::uint64_t processed_ = 0;
};

/// A device's private view of the shared campaign timeline.
///
/// Each simulated Device owns a VirtualClock that started at its own zero
/// (provisioning already advanced it); a campaign runs many such devices on
/// one EventScheduler timeline. The view binds the two at campaign start:
/// `sync_to(T)` advances the device clock so the device has experienced all
/// idle time up to campaign instant T (queue waits, backoff sleeps, wave
/// stagger), and `campaign_now()` maps the device clock back onto the shared
/// timeline. Device-side work (airtime, crypto, flash) still advances the
/// underlying clock directly; the view only ever moves it forward.
class DeviceClockView {
public:
    DeviceClockView() = default;

    /// Binds `clock` to the campaign timeline; the device's current local
    /// time is declared to correspond to campaign instant `campaign_t`.
    DeviceClockView(VirtualClock& clock, double campaign_t)
        : clock_(&clock), offset_(clock.now() - campaign_t) {}

    /// Idles the device forward to campaign instant `t` (no-op if the device
    /// is already at or past it — its own work may have outrun the wait).
    void sync_to(double t) {
        const double target = t + offset_;
        if (clock_->now() < target) clock_->advance(target - clock_->now());
    }

    double campaign_now() const { return clock_->now() - offset_; }

    /// device-local time minus this = campaign time (trace emitters and the
    /// transport's chaos binding use it).
    double offset() const { return offset_; }

private:
    VirtualClock* clock_ = nullptr;
    double offset_ = 0.0;
};

}  // namespace upkit::sim
