// Fixture: a class annotates its guarded field in its header; the member
// function in bad_lock_split.cpp mutates it with no lock held.
#pragma once

#include <cstdint>
#include <mutex>

namespace upkit {

class SplitCounter {
public:
    void bump();

private:
    std::mutex mu_;
    std::uint64_t hits_ = 0;  // lint: guarded-by(mu_)
};

}  // namespace upkit
