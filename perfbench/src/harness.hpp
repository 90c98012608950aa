// Shared scaffolding for the UpKit repository benchmark: host clocks,
// order statistics, output digests, the repetition loop, the benchmark-side
// span recorder and the result record each workload fills in.
//
// Host time and simulated outputs are kept apart on purpose. Simulated
// outputs (campaign fingerprints, session reports, response bytes) are
// folded into one digest per repetition and must repeat exactly; host times
// are only ever reported as order statistics over repetitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
    return seconds_between(t0, Clock::now());
}

double median(std::vector<double> values);
/// The tail latency of a sample: the slowest value that still has
/// kTailBeyond values beyond it — the highest percentile the sample size
/// supports with ten values past it (p99 at 1,000+ values).
inline constexpr std::size_t kTailBeyond = 10;
double tail(std::vector<double> values);
double minimum(const std::vector<double>& values);

/// Per-step minimum over repetitions. Every repetition is rebuilt from the
/// same inputs, so step k (a request, a session, a provisioning batch) is
/// the same work in each, and its fastest time is the one least disturbed
/// by the host. Host interference comes in bursts of milliseconds, so a
/// short step's minimum stays steady where a whole repetition's time does
/// not (README "Host noise").
class StepMinima {
public:
    /// Folds in one repetition's step times; every repetition has the same
    /// number of steps.
    void add(const std::vector<double>& steps);
    const std::vector<double>& minima() const { return minima_; }
    double total() const;

private:
    std::vector<double> minima_;
};

/// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// `v` as 16 lowercase hex digits.
std::string hex_u64(std::uint64_t v);

/// FNV-1a over the simulated outputs of one repetition.
class Digest {
public:
    void mix(std::uint64_t v);
    void mix(double v);
    std::string hex() const;

private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Where the traced run writes its spans (JSONL); empty = nowhere.
    std::string spans_out;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    /// What the generic metric means on this workload, for the printed
    /// table only (e.g. "requests_per_s").
    std::string alias = {};
};

/// What one workload run reports. `attempted` counts checked operations
/// (devices rolled out, sessions, requests, repetitions compared);
/// `failed` those whose outcome diverged from what was expected.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    unsigned reps = 0;
    /// Output digest of the first repetition (pinned per seed by run.py).
    std::string output;
    std::vector<Metric> metrics;
};

/// Runs one discarded warm-up repetition, then repetitions until `seconds`
/// of wall time have passed (at least `min_reps`, at most `max_reps`).
/// `rep(i)` runs repetition i (0 = warm-up).
unsigned repeat_for(double seconds, unsigned min_reps, unsigned max_reps,
                    const std::function<void(unsigned)>& rep);

/// Compares every repetition's output digest with the first one, counts the
/// repetitions that diverged into `result` (one attempted check each) and
/// records the first digest as the run's output.
void check_outputs(const std::vector<std::string>& digests, Result& result);

/// Peak resident set size of this process in MB (10^6 bytes).
double peak_rss_mb();

/// Set-up steps cannot diverge by design (their inputs are fixed); a failure
/// is a broken program, so the benchmark stops without a result.
void must(upkit::Status status, const char* what);

/// Benchmark-side spans around the calls the benchmark makes into the
/// program's public functions. Kept in memory; written out at exit.
class SpanRecorder {
public:
    struct Span {
        const char* name = "";  // static storage
        double start_us = 0.0;
        double end_us = 0.0;
        std::int32_t parent = -1;
        std::uint64_t request = 0;
    };

    struct Row {
        std::string name;
        std::uint64_t count = 0;
        double total_us = 0.0;
        double self_us = 0.0;
        double median_us = 0.0;
    };

    SpanRecorder() : origin_(Clock::now()) {}

    double now_us() const { return to_us(Clock::now()); }
    double to_us(Clock::time_point t) const {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    }

    /// Opens a span; close it with end(). Spans opened while another is
    /// open must name it as `parent`.
    std::int32_t begin(const char* name, std::uint64_t request, std::int32_t parent = -1);
    void end(std::int32_t id);
    std::int32_t add(const char* name, double start_us, double end_us, std::int32_t parent,
                     std::uint64_t request);

    void clear() { spans_.clear(); }

    /// Per span name: count, total, self time (duration minus the part its
    /// children cover) and median duration, in first-seen order.
    std::vector<Row> summarize() const;

    bool write_jsonl(const std::string& path) const;

private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/// Prints the per-layer table of a traced repetition.
void print_span_table(const char* workload, const SpanRecorder& spans);

/// Prints "traced X ms vs untraced Y ms" with the overhead in percent.
void print_overhead(const char* what, double traced_s, double untraced_s);

}  // namespace perfbench
