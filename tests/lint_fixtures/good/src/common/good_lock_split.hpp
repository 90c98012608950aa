// Negative fixture: a guarded field annotated in the header and mutated in
// good_lock_split.cpp under the lock or inside a `requires-lock` helper.
#pragma once

#include <cstdint>
#include <mutex>

namespace upkit {

class LockedSplitCounter {
public:
    void bump();

private:
    void bump_locked();

    std::mutex mu_;
    std::uint64_t hits_ = 0;  // lint: guarded-by(mu_)
};

}  // namespace upkit
