// Fixture: the field is annotated in bad_lock_split.hpp, the mutation sits
// here — lock-discipline must read the header's annotation and trip.
#include "common/bad_lock_split.hpp"

namespace upkit {

void SplitCounter::bump() {
    ++hits_;
}

}  // namespace upkit
