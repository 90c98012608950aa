// ctcheck: the secret-taint harness for the constant-time crypto kernels.
//
// Deliberately NOT a gtest binary: under MemorySanitizer the system
// libgtest is uninstrumented and false-positives on its own internals, so
// this is a plain main() linking only upkit_crypto. CTest runs it twice:
//
//   ctcheck_test          hardened-path checks; must exit 0
//   ctcheck_test leaky    drives a variable-time kernel on a secret; must
//                         fail (registered with WILL_FAIL)
//
// Two detection modes, selected automatically:
//
//  * MSan build (clang -fsanitize=memory, UPKIT_CTCHECK=ON): secrets are
//    poisoned via ct::Secret / ct::poison; any secret-dependent branch or
//    table index aborts with a use-of-uninitialized-value report. This is
//    the ctgrind model and catches leaks at the exact instruction.
//
//  * Plain build (any compiler): operation-trace equivalence. The P256
//    group-op kernels note each operation into a global trace; a
//    constant-time kernel produces the identical trace for every scalar,
//    while the comb walk / wNAF / generic ladder produce scalar-shaped
//    traces. Deterministic, no sanitizer required — this is what runs in
//    the default CI test job and on developer machines without clang.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "crypto/ct.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac_drbg.hpp"
#include "crypto/modular.hpp"
#include "crypto/p256.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace upkit;
using namespace upkit::crypto;

int g_failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "ctcheck FAIL: %s\n", what);
        ++g_failures;
    }
}

/// Deterministic scalar material (no RNG dependency in this binary).
U256 scalar_from_seed(std::uint64_t seed) {
    std::uint8_t block[32];
    for (int i = 0; i < 32; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        block[i] = static_cast<std::uint8_t>(seed >> 33);
    }
    return U256::from_be_bytes(ByteSpan(block, 32));
}

template <typename Fn>
std::vector<std::uint16_t> trace_of(Fn&& fn) {
    ct::trace_begin();
    fn();
    return ct::trace_take();
}

/// Asserts the kernel's operation trace is identical across all scalars.
template <typename Fn>
void expect_fixed_trace(const char* what, const std::vector<U256>& scalars, Fn&& kernel) {
    std::vector<std::uint16_t> reference;
    for (std::size_t i = 0; i < scalars.size(); ++i) {
        auto t = trace_of([&] { kernel(scalars[i]); });
        check(!t.empty(), what);
        if (i == 0) {
            reference = std::move(t);
        } else if (t != reference) {
            std::fprintf(stderr, "ctcheck FAIL: %s trace differs for scalar %zu (%zu vs %zu ops)\n",
                         what, i, t.size(), reference.size());
            ++g_failures;
        }
    }
}

std::vector<U256> secret_scalars() {
    // Random-looking plus structural extremes: tiny, single top bit (the
    // Booth carry window), dense 0xff bytes, just below the order.
    std::vector<U256> out;
    for (std::uint64_t s = 1; s <= 8; ++s) out.push_back(scalar_from_seed(s));
    out.push_back(U256::one());
    U256 top{};
    top.w[3] = 1ull << 63;
    out.push_back(top);
    U256 dense;
    for (auto& limb : dense.w) limb = 0xffffffffffffffffull;
    out.push_back(P256::instance().order().reduce(dense));
    U256 n_minus_1;
    sub(n_minus_1, P256::instance().n(), U256::one());
    out.push_back(n_minus_1);
    return out;
}

// ---- hardened-path checks ------------------------------------------------

void check_mul_base_ct() {
    const P256& curve = P256::instance();
    expect_fixed_trace("mul_base_ct", secret_scalars(), [&](const U256& k) {
        const auto p = curve.mul_base_ct(k);
        check(p.has_value(), "mul_base_ct result");
    });
}

void check_mul_ct() {
    const P256& curve = P256::instance();
    const AffinePoint p = *curve.mul_base(U256::from_u64(0xC0FFEE));  // lint: public-scalar
    expect_fixed_trace("mul_ct", secret_scalars(), [&](const U256& k) {
        const auto r = curve.mul_ct(k, p);
        check(r.has_value(), "mul_ct result");
    });
}

void check_sign_trace() {
    // End-to-end: the only group operations in ecdsa_sign must be the fixed
    // Booth sequence, whatever the key and message.
    std::vector<U256> keys;
    for (std::uint64_t s = 21; s <= 24; ++s)
        keys.push_back(P256::instance().order().reduce(scalar_from_seed(s)));
    expect_fixed_trace("ecdsa_sign", keys, [&](const U256& d) {
        const Bytes raw = d.to_be_bytes();
        const auto key = PrivateKey::from_bytes(ByteSpan(raw));
        check(key.has_value(), "sign key load");
        const Sha256Digest digest = Sha256::digest(raw);  // any message
        const Signature sig = ecdsa_sign(*key, digest);
        check(sig[0] | sig[31] | 1, "sig produced");
    });
}

void check_ecdh_trace() {
    // Peer key is fixed and public; the trace over the secret scalar must
    // not move. (Row construction adds public ops, but the same ones each
    // call.)
    const PrivateKey peer = PrivateKey::generate(to_bytes("ctcheck-peer"));
    const PublicKey peer_pub = peer.public_key();
    std::vector<U256> keys;
    for (std::uint64_t s = 31; s <= 34; ++s)
        keys.push_back(P256::instance().order().reduce(scalar_from_seed(s)));
    expect_fixed_trace("ecdh_shared_secret", keys, [&](const U256& d) {
        const Bytes raw = d.to_be_bytes();
        const auto key = PrivateKey::from_bytes(ByteSpan(raw));
        check(key.has_value(), "ecdh key load");
        const auto shared = ecdh_shared_secret(*key, peer_pub);
        check(shared.has_value(), "ecdh result");
    });
}

void check_harness_sensitivity() {
    // The harness itself must be able to see a leak: the comb walk skips
    // zero digits, so a dense scalar and a one-byte scalar must trace
    // differently. If they do not, trace plumbing is broken and every
    // "fixed trace" check above is vacuous.
    const P256& curve = P256::instance();
    U256 dense;
    for (auto& limb : dense.w) limb = 0x5a5a5a5a5a5a5a5aull;
    const U256 sparse = U256::one();
    const auto t_dense = trace_of([&] { (void)curve.mul_base(dense); });    // lint: public-scalar
    const auto t_sparse = trace_of([&] { (void)curve.mul_base(sparse); });  // lint: public-scalar
    check(t_dense != t_sparse, "comb walk must be trace-distinguishable");
}

// ---- MSan-only taint checks ---------------------------------------------

#ifdef UPKIT_CT_MSAN

void check_msan_sign() {
    // Poisoned private-key bytes flow through from_bytes -> RFC 6979 ->
    // Booth walk -> s computation; only declassified protocol outputs may
    // be branched on, or MSan aborts the run.
    std::array<std::uint8_t, 32> raw{};
    const U256 d = P256::instance().order().reduce(scalar_from_seed(41));
    d.to_be_bytes(MutByteSpan(raw.data(), raw.size()));
    ct::Secret<std::array<std::uint8_t, 32>> secret(raw);

    const auto key = PrivateKey::from_bytes(ByteSpan(secret.ref().data(), 32));
    check(key.has_value(), "msan sign key load");
    const Sha256Digest digest = Sha256::digest(to_bytes("msan-sign-msg"));
    Signature sig = ecdsa_sign(*key, digest);
    // r and s are declassified inside ecdsa_sign; verifying against the
    // (declassified) public key exercises them as plain public data.
    const PreparedPublicKey pub(key->public_key());
    check(ecdsa_verify(pub, digest, ByteSpan(sig.data(), sig.size())), "msan sign verify");
}

void check_msan_ecdh() {
    std::array<std::uint8_t, 32> raw{};
    const U256 d = P256::instance().order().reduce(scalar_from_seed(42));
    d.to_be_bytes(MutByteSpan(raw.data(), raw.size()));
    ct::Secret<std::array<std::uint8_t, 32>> secret(raw);

    const auto key = PrivateKey::from_bytes(ByteSpan(secret.ref().data(), 32));
    check(key.has_value(), "msan ecdh key load");
    const PrivateKey peer = PrivateKey::generate(to_bytes("msan-ecdh-peer"));
    auto a = ecdh_shared_secret(*key, peer.public_key());
    auto b = ecdh_shared_secret(peer, key->public_key());
    check(a.has_value() && b.has_value(), "msan ecdh results");
    // The shared x-coordinate stays poisoned (it is key material); it must
    // be explicitly declassified before a byte-compare is legal.
    ct::declassify(a->data(), a->size());
    ct::declassify(b->data(), b->size());
    check(*a == *b, "msan ecdh agreement");
}

void check_msan_inv() {
    // Fermat inv on a poisoned base, on both moduli: pow branches on the
    // bits of the public exponent n - 2 only, so nothing derived from the
    // base may steer a branch before the declassified a * a^-1 == 1
    // verdict. This is the audit behind `inv` in the lint's ct set.
    const P256& curve = P256::instance();
    for (const Montgomery* m : {&curve.field(), &curve.order()}) {
        ct::Secret<U256> a(m->reduce(scalar_from_seed(43)));
        const U256 am = m->to_mont(a.ref());
        U256 diff;
        sub(diff, m->from_mont(m->mul(am, m->inv(am))), U256::one());
        check(ct::declassify_value(ct_is_zero_mask(diff)) != 0, "msan inv a * a^-1 == 1");
    }
}

void check_msan_drbg_and_aead() {
    // HMAC-DRBG with a poisoned seed: SHA-256/HMAC are structurally
    // constant-time, so generation must not branch on the state.
    std::array<std::uint8_t, 32> seed{};
    for (std::size_t i = 0; i < seed.size(); ++i) seed[i] = static_cast<std::uint8_t>(i * 13 + 1);
    ct::Secret<std::array<std::uint8_t, 32>> secret_seed(seed);
    HmacDrbg drbg(ByteSpan(secret_seed.ref().data(), 32));
    Bytes stream = drbg.generate(64);
    ct::declassify(stream.data(), stream.size());
    check(stream.size() == 64, "msan drbg output");

    // ChaCha20-Poly1305 with a poisoned key: seal + open round-trip; the
    // tag accept bit is declassified inside aead_open.
    ChaChaKey aead_key{};
    for (std::size_t i = 0; i < aead_key.size(); ++i) aead_key[i] = static_cast<std::uint8_t>(0xA0 + i);
    ct::Secret<ChaChaKey> secret_key(aead_key);
    const ChaChaNonce nonce{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    const Bytes plaintext = to_bytes("msan aead payload");
    Bytes sealed = aead_seal(secret_key.ref(), nonce, {}, ByteSpan(plaintext));
    auto opened = aead_open(secret_key.ref(), nonce, {}, ByteSpan(sealed));
    check(opened.has_value(), "msan aead open");
    ct::declassify(opened->data(), opened->size());
    check(*opened == plaintext, "msan aead roundtrip");
}

#endif  // UPKIT_CT_MSAN

// ---- leaky mode ----------------------------------------------------------

int run_leaky() {
    // Drives the variable-time comb walk with a secret scalar. Under MSan
    // the digit branch aborts the process; in trace mode the scalar-shaped
    // traces differ and we exit nonzero. Either way the harness reports a
    // leak — CTest registers this invocation with WILL_FAIL.
    const P256& curve = P256::instance();
    (void)curve.mul_base(U256::one());  // warm tables outside the check  // lint: public-scalar

    U256 dense;
    for (auto& limb : dense.w) limb = 0x5a5a5a5a5a5a5a5aull;
    U256 sparse = U256::one();
    ct::poison(&dense, sizeof dense);
    ct::poison(&sparse, sizeof sparse);

    // MSan mode never reaches the comparison: mul_base branches on the
    // poisoned digits first.
    const auto t1 = trace_of([&] { (void)curve.mul_base(dense); });   // lint: public-scalar (leak demo)
    const auto t2 = trace_of([&] { (void)curve.mul_base(sparse); });  // lint: public-scalar (leak demo)
    if (t1 != t2) {
        std::fprintf(stderr,
                     "ctcheck: leak detected — comb walk traces differ with the secret "
                     "(%zu vs %zu ops)\n",
                     t1.size(), t2.size());
        return 1;
    }
    std::fprintf(stderr, "ctcheck: leaky kernel was NOT detected — harness broken\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::strcmp(argv[1], "leaky") == 0) return run_leaky();

    // Warm the singleton so table construction never lands inside a trace.
    (void)P256::instance().mul_base(U256::from_u64(2));  // lint: public-scalar

    check_mul_base_ct();
    check_mul_ct();
    check_sign_trace();
    check_ecdh_trace();
    check_harness_sensitivity();
#ifdef UPKIT_CT_MSAN
    check_msan_sign();
    check_msan_ecdh();
    check_msan_inv();
    check_msan_drbg_and_aead();
    std::printf("ctcheck: MSan taint checks active\n");
#else
    std::printf("ctcheck: trace-equivalence mode (build with UPKIT_CTCHECK=ON + clang for MSan)\n");
#endif

    if (g_failures != 0) {
        std::fprintf(stderr, "ctcheck: %d failure(s)\n", g_failures);
        return 1;
    }
    std::printf("ctcheck: all hardened paths clean\n");
    return 0;
}
