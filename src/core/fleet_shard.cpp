// The fleet engine: one coordinator, fed by an inline or a threaded
// segment source.
//
// The coordinator owns the one EventScheduler, the admission queues, the
// rollout state machine (waves, breaker, promotion), the server, and the
// campaign tracer. Whatever the shard count, its handlers make the same
// schedule_at/schedule_in calls at the same times, at the same program
// points, in the same order, so the heap pops the same (time, seq)
// sequence. The shard count only picks where device sessions step — the
// *segment source*:
//
//  - Inline (0 shards, the default). The coordinator builds each attempt's
//    transport and driver, hands over server responses, and steps the
//    driver once per consume event, at that event's instant. The driver's
//    traces go straight to the campaign tracer.
//  - Threaded (N shards). A device's *segment* — the run of steps between
//    two global interaction points (attempt start / server response → next
//    server request / session end) — is a pure function of device-local
//    state plus its start instant, because each kDelay step's continuation
//    fires exactly at the device clock's own next instant. So the worker
//    that owns the device (shard = fleet index % shards) computes the whole
//    segment ahead of time, recording per step its outcome and the trace
//    events it emitted (into a per-shard buffering sink). The coordinator
//    consumes one record per event — blocking only when a shard hasn't
//    caught up — and emits the buffered traces into the campaign tracer at
//    that point in the global order.
//
// Both sources step through one helper (advance), which mirrors
// EventScheduler::schedule_at's forward clamp bit for bit, so a threaded
// record holds exactly the step the inline source would take at that
// event: every shard count replays the inline run byte for byte.
// tests/fleet_shard_test.cpp pins both sources to golden report and trace
// fingerprints.
//
// Thread-safety contract (threaded source): a device's Device/Transport/
// SessionDriver/clock view are touched by exactly one thread at a time —
// its shard worker while a segment runs, the coordinator while the driver
// is parked (at kServer, for token reads and the server response; at
// kFinished, for the report and terminal accounting). Handoffs synchronize
// on the segment buffer's mutex (coordinator blocks popping the record the
// worker pushed) and the shard queue's mutex (worker runs the task the
// coordinator submitted), so every crossing has a happens-before edge. The
// coordinator-side fields (results, jitter RNG, cohort state, queues) are
// never touched by workers.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/fleet.hpp"
#include "sim/chaos.hpp"
#include "sim/energy.hpp"
#include "sim/shard.hpp"

namespace upkit::core {

namespace {

/// Per-cohort rollout state, kept for every campaign (a cohort is never
/// empty, so `released` is 0 until it releases; a device is terminal once
/// it counts in `succeeded` or `failed`). Attempt counters form the
/// breaker's failure window and are reset when a paused breaker resumes.
struct CohortState {
    unsigned released = 0;
    unsigned succeeded = 0;
    unsigned failed = 0;
    unsigned rolled_back = 0;
    unsigned attempts_done = 0;
    unsigned attempts_failed = 0;
    double release_s = 0.0;
    double complete_s = 0.0;
};

/// Contiguous cohort partition of fleet indices: the canary first, then
/// wave_size chunks in add() order. Without a configured canary the first
/// wave is the canary, so cohort k is simply [k·wave_size, (k+1)·wave_size).
struct CohortPartition {
    std::size_t total = 0;
    std::size_t wave_size = 1;
    std::size_t canary = 0;

    CohortPartition(std::size_t total_devices, unsigned policy_wave_size,
                    unsigned policy_canary_size)
        : total(total_devices),
          wave_size(policy_wave_size == 0 ? std::max<std::size_t>(total_devices, 1)
                                          : policy_wave_size),
          canary(std::min<std::size_t>(policy_canary_size != 0 ? policy_canary_size
                                                               : wave_size,
                                       total_devices)) {}

    unsigned cohort_of(std::size_t i) const {
        if (i < canary) return 0;
        return static_cast<unsigned>(1 + (i - canary) / wave_size);
    }

    std::pair<std::size_t, std::size_t> range(unsigned k) const {
        if (k == 0) return {0, canary};
        const std::size_t lo = canary + static_cast<std::size_t>(k - 1) * wave_size;
        return {lo, std::min(total, lo + wave_size)};
    }

    unsigned count() const { return total == 0 ? 0 : cohort_of(total - 1) + 1; }
};

/// Everything the engine tracks for one fleet member. The session fields
/// (view, transport, driver, serving_region) cross the handoff boundary
/// (see the contract above); the rest is the coordinator's alone.
struct DeviceState {
    FleetMember* member = nullptr;
    sim::DeviceClockView view;
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<SessionDriver> driver;
    /// Regional edge serving the current attempt (-1 = origin). Written by
    /// the coordinator while the driver is parked; handed to the driver
    /// through the transport's chaos binding.
    int serving_region = -1;

    /// `result.attempts` counts the attempts launched so far.
    CampaignDeviceResult result;
    Rng jitter_rng{0};
    double e0 = 0.0;
    double enqueue_t = 0.0;
    bool done = false;
    /// The current attempt retargeted the origin at connect time because the
    /// home region was inside an outage window (its trace is emitted with
    /// kSessionStart, so cohort release keeps fleet-order emission).
    bool start_fallback = false;
};

/// How a step wants to continue, and the campaign instant it fires at.
struct Step {
    SessionDriver::Want want = SessionDriver::Want::kDelay;
    double t = 0.0;
};

/// Steps device `d` at campaign instant `t`: idle the device forward to
/// `t`, step, map the device clock back to the campaign timeline, and clamp
/// the continuation forward the way EventScheduler::schedule_at would.
Step advance(DeviceState& d, double t) {
    d.view.sync_to(t);
    const SessionDriver::Want want = d.driver->step().want;
    double tn = d.view.campaign_now();
    if (tn < t) tn = t;  // schedule_at's forward clamp, bit-for-bit
    return {want, tn};
}

/// One precomputed step and the traces it emitted.
struct StepRec {
    Step step;
    std::vector<sim::TraceEvent> traces;
};

/// Worker → coordinator handoff for one device. push() under the mutex
/// publishes the record (and everything the segment wrote before it);
/// pop() blocks until the owning shard has produced the next record.
struct SegmentBuffer {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<StepRec> recs;

    void push(StepRec&& rec) {
        {
            std::lock_guard<std::mutex> lock(mu);
            recs.push_back(std::move(rec));
        }
        cv.notify_one();
    }

    StepRec pop() {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return !recs.empty(); });
        StepRec rec = std::move(recs.front());
        recs.pop_front();
        return rec;
    }
};

/// Redirects a shard Tracer's fan-out into the StepRec being computed.
/// One per shard: tasks on a shard run sequentially, so the current-target
/// pointer is only ever touched by that shard's worker thread.
class BufferSink final : public sim::TraceSink {
public:
    void on_event(const sim::TraceEvent& event) override {
        if (out_ != nullptr) out_->push_back(event);
    }
    void set_target(std::vector<sim::TraceEvent>* out) { out_ = out; }

private:
    std::vector<sim::TraceEvent>* out_ = nullptr;
};

struct ShardCtx {
    sim::Tracer tracer;
    BufferSink sink;
    ShardCtx() { tracer.add_sink(sink); }
};

/// Runs one segment on the worker thread, starting at campaign instant `t`
/// (the time of the coordinator event that kicked it off), until the driver
/// parks at a server request or finishes.
void run_segment(DeviceState& d, ShardCtx& sc, SegmentBuffer& out, double t) {
    for (;;) {
        StepRec rec;
        sc.sink.set_target(&rec.traces);
        rec.step = advance(d, t);
        sc.sink.set_target(nullptr);
        t = rec.step.t;
        const bool more = rec.step.want == SessionDriver::Want::kDelay;
        out.push(std::move(rec));
        if (!more) return;
    }
}

/// Where device sessions step: on the coordinator (0 shards) or on shard
/// workers (see the file comment). The only place the shard count is read.
class SegmentSource {
public:
    SegmentSource(unsigned shards, std::vector<DeviceState>& devices, sim::Tracer* tracer)
        : devices_(devices), tracer_(tracer) {
        if (shards > 0) threads_ = std::make_unique<Threads>(shards, devices.size());
    }

    /// The tracer device `i` and its driver emit into.
    sim::Tracer* device_tracer(std::size_t i) {
        if (threads_ == nullptr || tracer_ == nullptr) return tracer_;
        return &threads_->ctx[i % threads_->shards].tracer;
    }

    /// Runs `handoff` — an attempt start or a server-response handoff — on
    /// device `i`, whose next segment starts at campaign instant `t`.
    /// Inline it runs now; threaded it runs on the device's shard, followed
    /// by that segment.
    template <class Handoff>
    void hand_off(std::size_t i, double t, Handoff handoff) {
        if (threads_ == nullptr) {
            handoff();
            return;
        }
        const std::size_t shard = i % threads_->shards;
        DeviceState& d = devices_[i];
        ShardCtx& sc = threads_->ctx[shard];
        SegmentBuffer& out = threads_->buffers[i];
        threads_->pool.submit(shard, [&d, &sc, &out, t, handoff = std::move(handoff)] {
            handoff();
            run_segment(d, sc, out, t);
        });
    }

    /// Device `i`'s next step, for the event at campaign instant `t`.
    Step next(std::size_t i, double t) {
        if (threads_ == nullptr) return advance(devices_[i], t);
        StepRec rec = threads_->buffers[i].pop();
        if (tracer_ != nullptr) {
            // The step's own traces, at this point in the global order —
            // exactly where the inline source's step emits them.
            for (const sim::TraceEvent& e : rec.traces) tracer_->emit(e);
        }
        return rec.step;
    }

    /// Finishes every queued segment and joins the workers: an exhausted
    /// event budget can leave shards mid-segment, and the join is the
    /// happens-before edge for every terminal device read after it.
    void join() { threads_.reset(); }

private:
    struct Threads {
        Threads(unsigned n, std::size_t devices)
            : shards(n), ctx(std::make_unique<ShardCtx[]>(n)), buffers(devices), pool(n) {}
        std::size_t shards;
        std::unique_ptr<ShardCtx[]> ctx;
        std::vector<SegmentBuffer> buffers;
        sim::ShardPool pool;  // declared last: joins before the buffers go
    };

    std::vector<DeviceState>& devices_;
    sim::Tracer* tracer_;
    std::unique_ptr<Threads> threads_;
};

}  // namespace

CampaignReport FleetCampaign::run(std::uint32_t app_id, const FleetPolicy& policy) {
    CampaignReport report;
    sim::EventScheduler sched;
    const server::ServerStats stats_before = server_->stats();
    const crypto::VerifyMemoStats memo_before = crypto::verify_memo_stats();
    const server::ServerModel& model = server_->model();

    std::vector<DeviceState> devs(members_.size());  // sized once: handlers keep refs
    SegmentSource source(shards_, devs, tracer_);

    // Serving targets: regional edges 0..edges-1 plus the origin as the last
    // entry (target 0 without edges). Only the edges' own stats reach the
    // report; `report.server` aggregates across every target.
    const EdgeTopology& topo = edges_;
    const std::size_t edge_count = topo.edges;
    const std::size_t origin_target = edge_count;
    struct Target {
        std::deque<std::size_t> queue;  // FIFO admission queue of device indices
        unsigned in_service = 0;
        unsigned cap = 0;
        ServerQueueStats stats;
        server::EdgeCache cache;    // edges only
        std::uint64_t fallbacks = 0;
    };
    const auto cap_of = [](const server::ServerModel& m) {
        return m.concurrency == 0 ? std::numeric_limits<unsigned>::max() : m.concurrency;
    };
    std::vector<Target> targets(edge_count + 1);
    for (std::size_t r = 0; r < edge_count; ++r) targets[r].cap = cap_of(topo.model);
    targets[origin_target].cap = cap_of(model);

    // Fault injection, when the server model carries a chaos plan.
    const sim::ChaosPlan* chaos = model.chaos;

    const CohortPartition part(members_.size(), policy.wave_size, policy.canary_size);
    const unsigned cohort_count = part.count();

    // Rollout state. `aborted` stops retries and promotions for good;
    // `paused` defers them until the breaker's cool-down elapses.
    std::vector<CohortState> cohorts(cohort_count);
    unsigned next_release = 0;  // next cohort the promotion gate releases
    unsigned trips = 0;
    bool aborted = false;
    bool paused = false;
    std::vector<std::pair<std::size_t, double>> paused_retries;

    const auto trace = [&](sim::TraceType type, std::uint32_t device_id,
                           std::uint32_t code, double value) {
        if (tracer_ != nullptr) {
            tracer_->emit(sim::TraceEvent{.t = sched.now(),
                                          .device_id = device_id,
                                          .type = type,
                                          .from = {},
                                          .to = {},
                                          .code = code,
                                          .value = value});
        }
    };

    // The attempt sees the plan through its transport: the payload
    // transfers, and the driver probes outages, under the serving target's
    // fault domain (home edge, or the origin after a fallback).
    const auto bind_chaos = [chaos](DeviceState& d) {
        d.transport->set_chaos({.plan = chaos,
                                .campaign_offset = d.view.offset(),
                                .region = d.serving_region});
    };
    const auto target_of = [origin_target](int region) {
        return region >= 0 ? static_cast<std::size_t>(region) : origin_target;
    };

    // Hands device i's parked driver the server's answer (a response, or a
    // failure status for an outage rejection).
    const auto provide = [&](std::size_t i,
                             std::shared_ptr<Expected<server::UpdateResponse>> response) {
        DeviceState& d = devs[i];
        source.hand_off(i, sched.now(), [&d, chaos, bind_chaos,
                                         response = std::move(response)] {
            if (chaos != nullptr) bind_chaos(d);
            d.driver->provide_response(std::move(*response));
        });
    };

    // The event handlers form a cycle (consume → enqueue → admit →
    // consume), so they live in std::functions declared up front. Handlers
    // never recurse through the scheduler — continuations are scheduled,
    // not called — so stack depth stays flat no matter how long a session
    // runs.
    std::function<void(std::size_t)> consume;
    std::function<void(std::size_t)> enqueue;
    std::function<void(std::size_t)> admit;
    std::function<void(std::size_t)> session_done;
    std::function<void(unsigned)> release_cohort;
    std::function<void()> maybe_promote;
    std::function<void(unsigned, double, bool)> trip_breaker;

    // One step of device i's session; its consequence (next step, server
    // request, completion) lands at the instant the step ended.
    consume = [&](std::size_t i) {
        const Step step = source.next(i, sched.now());
        switch (step.want) {
            case SessionDriver::Want::kDelay:
                sched.schedule_at(step.t, [&consume, i] { consume(i); });
                break;
            case SessionDriver::Want::kServer:
                sched.schedule_at(step.t, [&enqueue, i] { enqueue(i); });
                break;
            case SessionDriver::Want::kFinished:
                sched.schedule_at(step.t, [&session_done, i] { session_done(i); });
                break;
        }
    };

    enqueue = [&](std::size_t i) {
        DeviceState& d = devs[i];
        // The serving target was pinned at attempt start (home region, or
        // the origin after a connect-time fallback); here we only handle
        // faults that began mid-attempt.
        std::size_t target = target_of(d.serving_region);
        if (chaos != nullptr) {
            bool down = chaos->down(d.serving_region, sched.now());
            if (down && target != origin_target && topo.origin_fallback &&
                !chaos->down(-1, sched.now())) {
                // Regional outage, origin healthy: retarget.
                ++targets[target].fallbacks;
                trace(sim::TraceType::kEdgeFallback, d.result.device_id,
                      static_cast<std::uint32_t>(target), 0.0);
                target = origin_target;
                d.serving_region = -1;
                down = false;
            }
            if (down) {
                // The deployment is down: the request never reaches the
                // admission queue — the device's connect timeout expires and
                // the attempt sees kUnavailable (the driver's reconnect path
                // then waits the outage out).
                constexpr double kConnectTimeoutS = 10.0;
                for (ServerQueueStats* q : {&report.server, &targets[target].stats}) {
                    ++q->outage_rejections;
                }
                trace(sim::TraceType::kServerOutage, d.result.device_id, 0,
                      kConnectTimeoutS);
                sched.schedule_in(kConnectTimeoutS, [&, i] {
                    provide(i, std::make_shared<Expected<server::UpdateResponse>>(
                                   Status::kUnavailable));
                    consume(i);
                });
                return;
            }
        }
        d.enqueue_t = sched.now();
        Target& tg = targets[target];
        tg.queue.push_back(i);
        for (ServerQueueStats* q : {&report.server, &tg.stats}) {
            q->peak_depth = std::max(q->peak_depth, static_cast<unsigned>(tg.queue.size()));
        }
        trace(sim::TraceType::kQueueEnter, d.result.device_id,
              static_cast<std::uint32_t>(tg.queue.size()), 0.0);
        admit(target);
    };

    admit = [&](std::size_t target) {
        Target& tg = targets[target];
        const bool is_origin = target == origin_target;
        const server::ServerModel& tmodel = is_origin ? model : topo.model;
        while (tg.in_service < tg.cap && !tg.queue.empty()) {
            const std::size_t i = tg.queue.front();
            tg.queue.pop_front();
            DeviceState& d = devs[i];
            const double wait = sched.now() - d.enqueue_t;
            d.result.queue_wait_s += wait;
            for (ServerQueueStats* q : {&report.server, &tg.stats}) {
                ++q->requests;
                q->total_wait_s += wait;
                q->max_wait_s = std::max(q->max_wait_s, wait);
            }
            trace(sim::TraceType::kQueueExit, d.result.device_id,
                  static_cast<std::uint32_t>(tg.queue.size()), wait);

            // The request occupies a service slot while the server builds
            // the device-bound image (prepare_update is the work product;
            // the model says what the deployment charges for it, from the
            // request's ServiceReceipt: signatures issued, delta generated
            // or not, payload dispatched). With edges the
            // origin still prepares and signs every response — the edge is a
            // payload cache, never a signing authority. The driver is parked
            // at kServer, so its token is stable to read here.
            auto response = std::make_shared<Expected<server::UpdateResponse>>(
                server_->prepare_update(app_id, d.driver->token()));
            if (*response) {
                const server::ServiceReceipt& r = (*response)->receipt;
                std::uint32_t bits = 0;
                if (r.chunked) bits |= sim::kCacheBitChunked;
                if (r.response_cache_hit) bits |= sim::kCacheBitResponseHit;
                if (r.delta_attempted) bits |= sim::kCacheBitDeltaAttempt;
                trace(sim::TraceType::kServerCache, d.result.device_id, bits,
                      static_cast<double>(r.sign_ops));
            }
            double service = *response ? tmodel.service_seconds((*response)->receipt)
                                       : tmodel.service_seconds(std::size_t{0});
            if (!is_origin && *response) {
                // Edge payload cache: a miss pulls the bytes from the
                // origin over the backhaul before serving.
                const bool hit = tg.cache.serve(**response);
                trace(sim::TraceType::kEdgeCache, d.result.device_id,
                      static_cast<std::uint32_t>(target), hit ? 1.0 : 0.0);
                if (!hit) {
                    service += topo.backhaul_rtt_s +
                               topo.backhaul_per_kb_s *
                                   static_cast<double>((*response)->payload.size() +
                                                       (*response)->manifest_bytes.size()) /
                                   1024.0;
                }
            }
            ++tg.in_service;
            for (ServerQueueStats* q : {&report.server, &tg.stats}) {
                q->peak_in_service = std::max(q->peak_in_service, tg.in_service);
                q->busy_s += service;
            }
            sched.schedule_in(service, [&, i, target, response, service] {
                --targets[target].in_service;
                trace(sim::TraceType::kServiceDone, devs[i].result.device_id, 0, service);
                provide(i, response);
                admit(target);  // the freed slot may admit the next request
                consume(i);
            });
        }
    };

    // An attempt starts in two halves, so that cohort release can launch a
    // whole wave before consuming any of it (shards then compute their
    // devices' first segments concurrently). launch picks the serving
    // target and builds the session; open emits the start traces and takes
    // the first step.
    const auto launch = [&](std::size_t i) {
        DeviceState& d = devs[i];
        const unsigned attempt = ++d.result.attempts;
        const double now = sched.now();
        // The attempt's serving target is chosen now, before the uplink: the
        // transport's chaos binding, which the driver's outage probes read
        // too, is bound to it for the whole attempt. A device whose home
        // region is already dark retargets the origin here (when fallback is
        // on and the origin is up) — otherwise its uplink would time the
        // outage out without ever reaching the admission queue.
        d.serving_region = edge_count > 0 ? static_cast<int>(i % edge_count) : -1;
        d.start_fallback = chaos != nullptr && d.serving_region >= 0 &&
                           topo.origin_fallback && chaos->down(d.serving_region, now) &&
                           !chaos->down(-1, now);
        if (d.start_fallback) {
            ++targets[target_of(d.serving_region)].fallbacks;
            d.serving_region = -1;
        }
        const std::uint32_t id = d.result.device_id;
        sim::Tracer* const tracer = source.device_tracer(i);
        source.hand_off(i, now, [&d, &policy, id, attempt, now, tracer, chaos, bind_chaos] {
            d.view.sync_to(now);
            Device& device = *d.member->device;
            // Fresh loss seed per attempt: a retry sees new channel
            // conditions, not a replay of the exact packet losses that sank
            // the previous attempt.
            d.transport = std::make_unique<net::Transport>(
                d.member->link, device.clock(), &device.meter(),
                id * 1000003ull + (attempt - 1));
            d.transport->set_max_retries(policy.transport_max_retries);
            d.driver = std::make_unique<SessionDriver>(device, *d.transport, tracer,
                                                       d.view.offset());
            d.driver->set_transport_resumes(policy.transport_resumes);
            d.driver->set_reconnect_backoff(policy.reconnect_backoff_s);
            if (chaos != nullptr) bind_chaos(d);
        });
    };
    const auto open = [&](std::size_t i) {
        const DeviceState& d = devs[i];
        if (d.start_fallback) {
            trace(sim::TraceType::kEdgeFallback, d.result.device_id,
                  static_cast<std::uint32_t>(i % edge_count), 0.0);
        }
        trace(sim::TraceType::kSessionStart, d.result.device_id, d.result.attempts, 0.0);
        consume(i);
    };
    const auto start_attempt = [&](std::size_t i) {
        launch(i);
        open(i);
    };

    trip_breaker = [&](unsigned k, double failure_rate, bool force_abort) {
        ++trips;
        const bool abort_now =
            force_abort || policy.breaker_abort || trips > policy.breaker_max_trips;
        report.breaker_trips.push_back(BreakerTrip{.t = sched.now(),
                                                   .wave = k,
                                                   .failures = cohorts[k].attempts_failed,
                                                   .completed = cohorts[k].attempts_done,
                                                   .released = cohorts[k].released,
                                                   .failure_rate = failure_rate,
                                                   .aborted = abort_now});
        trace(sim::TraceType::kBreakerTrip, 0, k, failure_rate);
        if (abort_now) {
            aborted = true;
            return;
        }
        paused = true;
        sched.schedule_in(policy.breaker_pause_s, [&] {
            if (aborted) return;
            paused = false;
            // Windowed breaker: restart the failure window, or the pre-pause
            // failures would instantly re-trip it on resume.
            for (CohortState& w : cohorts) {
                w.attempts_done = 0;
                w.attempts_failed = 0;
            }
            auto deferred = std::move(paused_retries);
            paused_retries.clear();
            for (const auto& [idx, delay] : deferred) {
                sched.schedule_in(delay, [&start_attempt, idx] { start_attempt(idx); });
            }
            maybe_promote();
        });
    };

    session_done = [&](std::size_t i) {
        DeviceState& d = devs[i];
        // Driver parked at kFinished: the report and the device's terminal
        // state are stable to read.
        const SessionReport last = d.driver->report();
        d.result.bytes_over_air += last.bytes_over_air;  // all attempts count
        d.result.verification_s += last.phases.verification_s;
        d.result.transport_resumes += last.transport_resumes;
        d.result.token_refreshes += last.token_refreshes;
        d.result.chunk_retries += last.chunk_retries;
        if (last.confirmed) d.result.confirmed = true;
        if (last.rolled_back) d.result.rolled_back = true;
        d.driver.reset();
        d.transport.reset();

        // Attempt-level breaker window: count the outcome, then let the
        // breaker react before this device decides whether to retry.
        CohortState& w = cohorts[d.result.wave];
        ++w.attempts_done;
        if (last.status != Status::kOk) ++w.attempts_failed;
        if (!aborted && !paused && policy.breaker_failure_rate > 0.0 &&
            w.attempts_failed >= policy.breaker_min_failures) {
            const double rate = static_cast<double>(w.attempts_failed) /
                                static_cast<double>(w.attempts_done);
            if (rate > policy.breaker_failure_rate) {
                trip_breaker(d.result.wave, rate, /*force_abort=*/false);
            }
        }

        const bool give_up = last.status == Status::kOk ||
                             // A stale offer will not get fresher by retrying.
                             last.status == Status::kStaleVersion ||
                             // The image booted but failed its self-test; a
                             // re-download installs the same bad image.
                             last.status == Status::kSelfTestFailed ||
                             aborted ||
                             d.result.attempts >= policy.max_attempts;
        if (!give_up) {
            double delay = 0.0;
            if (policy.initial_backoff_s > 0) {
                delay = policy.initial_backoff_s *
                        std::pow(policy.backoff_factor,
                                 static_cast<double>(d.result.attempts - 1));
                delay = std::min(delay, policy.max_backoff_s);
                // u uniform in [-1, 1): delay stays positive for jitter < 1.
                const double u =
                    static_cast<double>(d.jitter_rng.next_u32()) / 2147483648.0 - 1.0;
                delay *= 1.0 + policy.jitter * u;
                d.result.backoff_s += delay;
            }
            trace(sim::TraceType::kRetryScheduled, d.result.device_id,
                  d.result.attempts + 1, delay);
            if (paused) {
                // Deferred until the breaker resumes (jitter already drawn,
                // so the rng stream is identical either way).
                paused_retries.emplace_back(i, delay);
            } else {
                sched.schedule_in(delay, [&start_attempt, i] { start_attempt(i); });
            }
            return;
        }

        Device& device = *d.member->device;
        d.done = true;
        d.result.status = last.status;
        d.result.final_version = device.identity().installed_version;
        d.result.differential = last.differential;
        d.result.chunked = last.chunked;
        d.result.end_s = sched.now();
        d.result.time_s = d.result.end_s - d.result.start_s;
        d.result.energy_mj = device.meter().total_millijoules() - d.e0;
        device.set_tracer(nullptr);

        if (d.result.status == Status::kOk) ++w.succeeded;
        else ++w.failed;
        if (d.result.rolled_back) ++w.rolled_back;
        w.complete_s = sched.now();
        maybe_promote();
    };

    // Binds every device of cohort k to the campaign timeline at the
    // current instant and launches the whole cohort before opening any of
    // it (binding and launching emit no trace).
    release_cohort = [&](unsigned k) {
        if (aborted) return;
        // A promotion is scheduled only while the breaker is closed and
        // every released device is terminal, so until this release no
        // session can finish and trip the breaker.
        assert(!paused && "cohort released inside a breaker pause");
        CohortState& w = cohorts[k];
        w.release_s = sched.now();
        trace(sim::TraceType::kWaveStart, 0, k, 0.0);
        const auto [lo, hi] = part.range(k);
        for (std::size_t i = lo; i < hi; ++i) {
            DeviceState& d = devs[i];
            d.member = &members_[i];
            Device& device = *d.member->device;
            d.result.device_id = device.identity().device_id;
            d.result.wave = k;
            d.result.start_s = sched.now();
            // Deterministic jitter stream: a function of the device id only,
            // so a rerun of the same campaign replays the same delays.
            d.jitter_rng.reseed(0x9E3779B97F4A7C15ull ^ d.result.device_id);
            d.view = sim::DeviceClockView(device.clock(), sched.now());
            d.e0 = device.meter().total_millijoules();
            device.set_tracer(source.device_tracer(i), d.view.offset());
            if (chaos != nullptr) {
                device.set_health_hook([chaos](std::uint16_t version) {
                    return chaos->self_test_passes(version);
                });
            }
            ++w.released;
            launch(i);
        }
        for (std::size_t i = lo; i < hi; ++i) open(i);
    };

    maybe_promote = [&] {
        if (aborted || paused) return;
        if (next_release >= cohort_count) return;
        const CohortState& prev = cohorts[next_release - 1];
        if (prev.released == 0 || prev.succeeded + prev.failed < prev.released) return;
        const double rate =
            static_cast<double>(prev.succeeded) / static_cast<double>(prev.released);
        if (policy.promote_success_rate > 0.0 && rate < policy.promote_success_rate) {
            // Gate failure: the cohort's devices are already terminal — a
            // pause cannot heal them, so a failed gate always aborts.
            trip_breaker(next_release - 1, 1.0 - rate, /*force_abort=*/true);
            return;
        }
        const unsigned k = next_release;
        ++next_release;  // bumped at scheduling time: no double promotion
        trace(sim::TraceType::kWavePromote, 0, k, rate);
        sched.schedule_in(policy.wave_stagger_s,
                          [&release_cohort, k] { release_cohort(k); });
    };

    // The one read of the policy's gating: ungated, the clock releases every
    // cohort k at k · wave_stagger_s and none is left for the gate; gated,
    // only the canary is scheduled and the promotion gate earns the rest.
    next_release = policy.gated() ? std::min(cohort_count, 1u) : cohort_count;
    for (unsigned k = 0; k < next_release; ++k) {
        sched.schedule_at(static_cast<double>(k) * policy.wave_stagger_s,
                          [&release_cohort, k] { release_cohort(k); });
    }

    sched.run(event_budget_);
    source.join();

    // Aggregate in member order (stable regardless of interleaving).
    report.devices.reserve(devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i) {
        DeviceState& d = devs[i];
        if (d.member == nullptr) {
            // Never released, so never offered the update: halted by an
            // aborted rollout (contained, not an OTA failure), or stuck
            // behind an exhausted event budget.
            d.result.device_id = members_[i].device->identity().device_id;
            d.result.wave = part.cohort_of(i);
            d.result.status = aborted ? Status::kCampaignHalted : Status::kResourceExhausted;
            if (aborted) ++report.halted_devices;
            else ++report.failed;
            report.devices.push_back(std::move(d.result));
            continue;
        }
        if (!d.done) {
            // Event budget exhausted mid-session: surface the stuck device
            // rather than pretending it failed over the air.
            d.result.status = Status::kResourceExhausted;
            d.member->device->set_tracer(nullptr);
        }
        if (d.result.status == Status::kOk) {
            ++report.succeeded;
            if (d.result.differential) ++report.differential_updates;
            if (d.result.chunked) ++report.chunked_updates;
        } else {
            ++report.failed;
        }
        report.chunk_retries += d.result.chunk_retries;
        // Battery cost of the verification seconds: CPU active draw plus
        // the HSM's supply current where one did the verifying.
        const Device& device = *d.member->device;
        const double draw_ma = device.config().platform->cpu_active_ma +
                               device.verifier().backend().costs().active_current_ma;
        d.result.verification_mah = sim::milliamp_hours(d.result.verification_s, draw_ma);
        ++report.exposed_devices;
        if (d.result.confirmed) ++report.confirmed_devices;
        if (d.result.rolled_back) ++report.rolled_back_devices;
        report.verification_mah += d.result.verification_mah;
        report.total_energy_mj += d.result.energy_mj;
        report.total_bytes += d.result.bytes_over_air;
        report.verification_s += d.result.verification_s;
        report.makespan_s = std::max(report.makespan_s, d.result.end_s);
        report.devices.push_back(std::move(d.result));
    }
    for (unsigned k = 0; k < cohort_count; ++k) {
        const CohortState& w = cohorts[k];
        if (w.released == 0) continue;
        report.waves.push_back(WaveStats{.wave = k,
                                         .released = w.released,
                                         .succeeded = w.succeeded,
                                         .failed = w.failed,
                                         .rolled_back = w.rolled_back,
                                         .release_s = w.release_s,
                                         .complete_s = w.complete_s});
    }
    for (std::size_t r = 0; r < edge_count; ++r) {
        report.edges.push_back(EdgeReport{.region = static_cast<unsigned>(r),
                                          .queue = targets[r].stats,
                                          .cache = targets[r].cache.stats(),
                                          .fallbacks = targets[r].fallbacks});
    }
    report.events_processed = sched.events_processed();
    report.server_stats = server_->stats() - stats_before;
    const crypto::VerifyMemoStats memo_after = crypto::verify_memo_stats();
    report.verify_memo = {memo_after.hits - memo_before.hits,
                          memo_after.misses - memo_before.misses};
    return report;
}

}  // namespace upkit::core
