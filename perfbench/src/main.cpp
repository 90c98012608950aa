// upkit_perf: one workload per process.
//
//   upkit_perf --workload <fleet_rollout|device_sessions|release_train>
//              --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Prints human-readable tables, then one JSON line with the run's checked
// operation counts, its output digest and its metrics (end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1). perfbench/run.py builds
// this binary, checks the digest against the pinned values and prints the
// benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "upkit_perf: %s\nusage: upkit_perf --workload <fleet_rollout|device_sessions|"
                 "release_train> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const char* flag = argv[i];
        if (i + 1 >= argc) usage("missing value");
        const char* value = argv[++i];
        char* end = nullptr;
        if (std::strcmp(flag, "--workload") == 0) {
            options.workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            options.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0') usage("bad --seed");
        } else if (std::strcmp(flag, "--seconds") == 0) {
            options.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(options.seconds >= 0.0)) usage("bad --seconds");
        } else if (std::strcmp(flag, "--trace") == 0) {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("bad --trace");
            options.trace = value[0] == '1';
        } else if (std::strcmp(flag, "--spans-out") == 0) {
            options.spans_out = value;
        } else {
            usage("unknown flag");
        }
    }
    if (options.workload.empty()) usage("no --workload");
    return options;
}

void print_result(const Options& options, const Result& result) {
    std::printf("\n%s metrics (%s):\n", options.workload.c_str(),
                options.trace ? "per-layer" : "end-to-end");
    for (const perfbench::Metric& m : result.metrics) {
        std::printf("  %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.alias.c_str());
    }
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"reps\":%u,"
                "\"attempted\":%llu,\"failed\":%llu,\"output\":\"%s\",\"metrics\":{",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0, result.reps,
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), result.output.c_str());
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const perfbench::Metric& m = result.metrics[i];
        std::printf("%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                    m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);
    Result result;
    if (options.workload == "fleet_rollout") {
        result = perfbench::run_fleet_rollout(options);
    } else if (options.workload == "device_sessions") {
        result = perfbench::run_device_sessions(options);
    } else if (options.workload == "release_train") {
        result = perfbench::run_release_train(options);
    } else {
        usage("unknown workload");
    }
    if (!options.trace) {
        // One workload per process, so the peak is this workload's own.
        result.metrics.push_back({"peak_rss_mb", perfbench::peak_rss_mb(), "MB"});
    }
    print_result(options, result);
    return result.failed == 0 ? 0 : 1;
}
