// Negative fixture: the same secret-handling shapes as the bad taint
// fixtures, but laundered correctly — every branch input goes through
// ct::declassify_value and every variable-time-risky consumption uses a
// constant-time kernel. The taint pass must stay silent on this file.
#include "crypto/ct.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/modular.hpp"

namespace upkit::crypto {

static U256 derive_k(const PrivateKey& key, const Sha256Digest& digest) {
    return rfc6979_nonce(key.scalar(), digest);
}

bool declassified_branch(const PrivateKey& key, const Sha256Digest& digest) {
    const U256 k = derive_k(key, digest);
    const bool low = ct::declassify_value(k.bit(0));
    if (low) {
        return true;
    }
    return false;
}

// The nonce inverse as ecdsa_sign writes it. Fermat inv raises to the
// public n - 2, so it is a ct kernel, not a taint sink: moving `inv` back
// from the ct list to the sink list makes this file report a finding.
U256 ct_inverse_of_nonce(const Montgomery& fn, const PrivateKey& key,
                         const Sha256Digest& digest) {
    const U256 k = rfc6979_nonce(key.scalar(), digest);
    return fn.inv(fn.to_mont(k));
}

}  // namespace upkit::crypto
