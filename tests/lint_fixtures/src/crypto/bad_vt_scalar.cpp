// Fixture: variable-time scalar multiplication on a private scalar without
// the `public-scalar` annotation — must trip `vt-scalar-mul`.
#include "crypto/p256.hpp"

namespace upkit::crypto {

AffinePoint leak_public_key(const P256& curve, const U256& secret_d) {
    return *curve.mul_base(secret_d);
}

// The batch kernel is variable-time by design (signature verification
// inputs are public); feeding it a secret scalar without the annotation
// must trip the same rule.
bool leak_via_batch(const P256& curve, const U256& secret_d, const P256::Precomputed& p1,
                    const P256::Precomputed& p2) {
    return *curve.verify2_combination(secret_d, secret_d, p1, secret_d, secret_d, secret_d, p2,
                                      secret_d, 1);
}

}  // namespace upkit::crypto
