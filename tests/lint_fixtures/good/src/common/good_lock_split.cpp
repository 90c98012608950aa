// Negative fixture: every mutation of the header-annotated field holds the
// lock, directly or through a helper whose caller holds it.
#include "common/good_lock_split.hpp"

namespace upkit {

void LockedSplitCounter::bump() {
    std::lock_guard<std::mutex> lock(mu_);
    bump_locked();
}

void LockedSplitCounter::bump_locked() {  // lint: requires-lock(mu_)
    ++hits_;
}

}  // namespace upkit
