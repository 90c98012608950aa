#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return values[values.size() > kTailBeyond ? values.size() - 1 - kTailBeyond : 0];
}

double minimum(const std::vector<double>& values) {
    return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

void StepMinima::add(const std::vector<double>& steps) {
    if (minima_.empty()) {
        minima_ = steps;
        return;
    }
    if (steps.size() != minima_.size()) {
        std::fprintf(stderr, "perfbench: a repetition ran %zu steps, the first ran %zu\n",
                     steps.size(), minima_.size());
        std::exit(2);
    }
    for (std::size_t k = 0; k < steps.size(); ++k) minima_[k] = std::min(minima_[k], steps[k]);
}

double StepMinima::total() const {
    double sum = 0.0;
    for (const double m : minima_) sum += m;
    return sum;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void Digest::mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xFFu;
        h_ *= 0x100000001B3ull;
    }
}

void Digest::mix(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
}

std::string hex_u64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::string Digest::hex() const { return hex_u64(h_); }

unsigned repeat_for(double seconds, unsigned min_reps, unsigned max_reps,
                    const std::function<void(unsigned)>& rep) {
    rep(0);  // warm-up: caches, lazily built tables, allocator arenas
    const Clock::time_point t0 = Clock::now();
    unsigned done = 0;
    while (done < max_reps && (done < min_reps || seconds_since(t0) < seconds)) {
        rep(++done);
    }
    return done;
}

void check_outputs(const std::vector<std::string>& digests, Result& result) {
    if (digests.empty()) return;
    result.output = digests[0];
    for (std::size_t i = 1; i < digests.size(); ++i) {
        ++result.attempted;
        if (digests[i] != digests[0]) {
            ++result.failed;
            std::fprintf(stderr, "perfbench: repetition %zu output %s != first %s\n", i,
                         digests[i].c_str(), digests[0].c_str());
        }
    }
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

void must(upkit::Status status, const char* what) {
    if (status == upkit::Status::kOk) return;
    std::fprintf(stderr, "perfbench: %s failed with status %d\n", what, static_cast<int>(status));
    std::exit(2);
}

std::int32_t SpanRecorder::begin(const char* name, std::uint64_t request, std::int32_t parent) {
    const double t = now_us();
    return add(name, t, t, parent, request);
}

void SpanRecorder::end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

std::int32_t SpanRecorder::add(const char* name, double start_us, double end_us,
                               std::int32_t parent, std::uint64_t request) {
    spans_.push_back(Span{name, start_us, end_us, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<SpanRecorder::Row> SpanRecorder::summarize() const {
    // Children of one parent never overlap (one client thread), so the part
    // of a span its children cover is the sum of their durations.
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    std::vector<Row> rows;
    std::map<std::string, std::size_t> index;
    std::vector<std::vector<double>> durations;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto [it, fresh] = index.emplace(s.name, rows.size());
        if (fresh) {
            rows.push_back(Row{s.name});
            durations.emplace_back();
        }
        Row& row = rows[it->second];
        const double d = s.end_us - s.start_us;
        ++row.count;
        row.total_us += d;
        row.self_us += d - child_us[i];
        durations[it->second].push_back(d);
    }
    for (std::size_t k = 0; k < rows.size(); ++k) rows[k].median_us = median(durations[k]);
    return rows;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                     "\"parent\":%d,\"request\":%llu}\n",
                     i, s.name, s.start_us, s.end_us, s.parent,
                     static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
}

void print_span_table(const char* workload, const SpanRecorder& spans) {
    std::printf("\nper-layer spans, %s (fastest traced repetition)\n", workload);
    std::printf("  %-28s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms",
                "median_us");
    for (const SpanRecorder::Row& row : spans.summarize()) {
        std::printf("  %-28s %9llu %12.3f %12.3f %12.2f\n", row.name.c_str(),
                    static_cast<unsigned long long>(row.count), row.total_us / 1e3,
                    row.self_us / 1e3, row.median_us);
    }
}

void print_overhead(const char* what, double traced_s, double untraced_s) {
    std::printf("tracing overhead, %s: traced %.3f ms vs untraced %.3f ms (%+.1f%%)\n", what,
                traced_s * 1e3, untraced_s * 1e3,
                untraced_s > 0.0 ? 100.0 * (traced_s / untraced_s - 1.0) : 0.0);
}

}  // namespace perfbench
