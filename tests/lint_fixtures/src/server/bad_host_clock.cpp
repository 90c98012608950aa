// Fixture: a host clock timing a cost model in src/ — must trip
// `banned-wall-clock`. A service time measured this way differs from host
// to host, so the simulated campaign it feeds would too.
#include <chrono>

double measured_sign_seconds() {
    const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
