// Fixture: modular exponentiation by a secret exponent without the
// `pow-audited` annotation — must trip `secret-inverse`. pow's
// square-and-multiply schedule follows the exponent's bits.
#include "crypto/modular.hpp"

namespace upkit::crypto {

U256 leak_secret_exponent(const Montgomery& fn, const U256& base, const U256& secret_e) {
    return fn.pow(base, secret_e);
}

}  // namespace upkit::crypto
