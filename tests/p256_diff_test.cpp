// Differential suite for the P-256 scalar-multiplication paths
// (src/crypto/p256).
//
// Every fast path — the comb table behind mul_base(), the constant-time
// Booth walks, the prepared-key wNAF walk behind mul() / mul_add(), and the
// verify2 combination (the one 4-point walk) — is pinned against the
// plain double-and-add ladder (P256Oracle, tests/support/). The paths share
// no point-arithmetic shortcuts beyond the group formulas, so agreement over
// thousands of seeded scalars — plus every structural edge case (zero, one,
// n-1, n, single bits, sparse bytes, values >= n) — locks the table
// construction and the mixed-addition formula down. The same treatment
// covers ecdsa_sign (whose r must match the ladder's x-coordinate of k*G
// for the RFC 6979 nonce) and ecdsa_verify against the ladder-based
// ecdsa_verify_generic. The ladder is built on the group-law bodies
// themselves, so those are checked against the affine slope formulas on
// FieldReference.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"
#include "support/oracles.hpp"

namespace upkit::crypto {
namespace {

constexpr std::size_t kCases = 1024;  // seeded scalars per differential path

U256 random_u256(Rng& rng) {
    U256 k;
    for (auto& limb : k.w) limb = rng.next_u64();
    return k;
}

void expect_same(const std::optional<AffinePoint>& comb,
                 const std::optional<AffinePoint>& ladder, const char* what,
                 std::size_t i) {
    ASSERT_EQ(comb.has_value(), ladder.has_value()) << what << " case " << i;
    if (!comb) return;
    EXPECT_EQ(comb->x, ladder->x) << what << " case " << i;
    EXPECT_EQ(comb->y, ladder->y) << what << " case " << i;
}

// ------------------------------------------------------------- mul_base

TEST(P256DiffTest, CombMatchesLadderOnSeededScalars) {
    const P256& curve = P256::instance();
    Rng rng(0x5EED0001);
    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 k = random_u256(rng);
        expect_same(curve.mul_base(k), P256Oracle::mul_base_generic(k), "mul_base", i);
    }
}

TEST(P256DiffTest, CombMatchesLadderOnSparseScalars) {
    // Scalars with long zero runs skip most comb windows; single set bytes
    // exercise each table row in isolation.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0002);
    std::size_t cases = 0;
    // Every single-bit scalar 2^b (touches every window with a lone digit).
    for (unsigned b = 0; b < 256; ++b) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        expect_same(curve.mul_base(k), P256Oracle::mul_base_generic(k), "2^b", b);
        ++cases;
    }
    // Scalars with exactly one random nonzero byte, and scalars where a
    // random contiguous run of bytes is zeroed out of a random value.
    while (cases < kCases) {
        U256 k;
        if (cases % 2 == 0) {
            const unsigned byte = static_cast<unsigned>(rng.below(32));
            const std::uint64_t v = rng.between(1, 255);
            k.w[byte / 8] = v << (8 * (byte % 8));
        } else {
            k = random_u256(rng);
            const unsigned start = static_cast<unsigned>(rng.below(32));
            const unsigned len = static_cast<unsigned>(rng.between(1, 32 - start));
            for (unsigned b = start; b < start + len; ++b) {
                k.w[b / 8] &= ~(0xffull << (8 * (b % 8)));
            }
        }
        expect_same(curve.mul_base(k), P256Oracle::mul_base_generic(k), "sparse", cases);
        ++cases;
    }
}

TEST(P256DiffTest, CombMatchesLadderOnOrderEdges) {
    const P256& curve = P256::instance();
    const U256 n = curve.n();

    // k == 0 and k == n (== 0 mod n): both paths must refuse.
    EXPECT_FALSE(curve.mul_base(U256::zero()).has_value());
    EXPECT_FALSE(P256Oracle::mul_base_generic(U256::zero()).has_value());
    EXPECT_FALSE(curve.mul_base(n).has_value());
    EXPECT_FALSE(P256Oracle::mul_base_generic(n).has_value());

    // k == 1 must hand back the generator itself.
    const auto one = curve.mul_base(U256::one());
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(one->x, curve.generator().x);
    EXPECT_EQ(one->y, curve.generator().y);

    // Scalars straddling the order: n-1 (the negation of G), n+1, n+k for
    // seeded k (reduction mod n must agree between the paths).
    U256 n_minus_1;
    sub(n_minus_1, n, U256::one());
    expect_same(curve.mul_base(n_minus_1), P256Oracle::mul_base_generic(n_minus_1),
                "n-1", 0);
    Rng rng(0x5EED0003);
    for (std::size_t i = 0; i < 64; ++i) {
        U256 k;
        add(k, n, U256::from_u64(rng.next_u64() | 1));
        expect_same(curve.mul_base(k), P256Oracle::mul_base_generic(k), "n+k", i);
    }
    // n-1 really is -G: same x, negated y.
    EXPECT_EQ(one->x, curve.mul_base(n_minus_1)->x);
}

// ------------------------------------------- constant-time Booth walks

TEST(P256DiffTest, CtBoothMatchesLadderOnSeededScalars) {
    // mul_base_ct shares nothing with the ladder beyond the group law: a
    // dedicated 43-row table, 6-bit signed-window recoding, masked
    // additions.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0007);
    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 k = random_u256(rng);
        expect_same(curve.mul_base_ct(k), P256Oracle::mul_base_generic(k), "mul_base_ct", i);
    }
}

TEST(P256DiffTest, CtBoothMatchesLadderOnEdgeScalars) {
    const P256& curve = P256::instance();
    const U256 n = curve.n();

    EXPECT_FALSE(curve.mul_base_ct(U256::zero()).has_value());
    EXPECT_FALSE(curve.mul_base_ct(n).has_value());

    const auto one = curve.mul_base_ct(U256::one());
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(one->x, curve.generator().x);
    EXPECT_EQ(one->y, curve.generator().y);

    // Single-bit scalars hit every Booth window and reach the carry window
    // (bits 252..255 recode into window 42); bit 6w + 5 gives window w its
    // -32 digit, the most negative one.
    for (unsigned b = 0; b < 256; ++b) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        expect_same(curve.mul_base_ct(k), P256Oracle::mul_base_generic(k), "ct 2^b", b);
    }
    // A run of six ones at bits 6w - 1 .. 6w + 4, i.e. 0x3f << (6w - 1),
    // gives window w its +32 digit, the last entry of its row. Window 0
    // tops out at +31 (b_-1 = 0) and the carry window at +16.
    for (unsigned w = 1; w < 42; ++w) {
        U256 k;
        for (unsigned b = 6 * w - 1; b < 6 * w + 5; ++b) k.w[b / 64] |= 1ull << (b % 64);
        expect_same(curve.mul_base_ct(k), P256Oracle::mul_base_generic(k), "ct +32", w);
    }
    // The only scalars whose carry-window addition could double its
    // partial sum: d * 2^253 mod n for each carry digit d in [1, 16]
    // (ct_booth_mul_base's exceptional-case argument).
    U256 k_double = U256::zero();
    U256 step;
    step.w[3] = 1ull << 61;  // 2^253 < n
    for (unsigned d = 1; d <= 16; ++d) {
        k_double = curve.order().add(k_double, step);
        expect_same(curve.mul_base_ct(k_double), P256Oracle::mul_base_generic(k_double),
                    "ct d*2^253", d);
    }
    U256 n_minus_1;
    sub(n_minus_1, n, U256::one());
    expect_same(curve.mul_base_ct(n_minus_1), P256Oracle::mul_base_generic(n_minus_1),
                "ct n-1", 0);
    Rng rng(0x5EED0008);
    for (std::size_t i = 0; i < 64; ++i) {
        U256 k;
        add(k, n, U256::from_u64(rng.next_u64() | 1));
        expect_same(curve.mul_base_ct(k), P256Oracle::mul_base_generic(k), "ct n+k", i);
    }
}

TEST(P256DiffTest, CtMulMatchesLadderOnSeededScalars) {
    const P256& curve = P256::instance();
    Rng rng(0x5EED0009);
    const AffinePoint p = *P256Oracle::mul_base_generic(U256::from_u64(0xC0FFEE));
    for (std::size_t i = 0; i < kCases / 4; ++i) {
        const U256 k = random_u256(rng);
        expect_same(curve.mul_ct(k, p), P256Oracle::mul_generic(k, p), "mul_ct", i);
    }
}

TEST(P256DiffTest, CtMulMatchesLadderOnEdgeScalars) {
    const P256& curve = P256::instance();
    const U256 n = curve.n();
    const AffinePoint p = *P256Oracle::mul_base_generic(U256::from_u64(0xFACADE));

    EXPECT_FALSE(curve.mul_ct(U256::zero(), p).has_value());
    EXPECT_FALSE(curve.mul_ct(n, p).has_value());
    const auto same = curve.mul_ct(U256::one(), p);
    ASSERT_TRUE(same.has_value());
    EXPECT_EQ(same->x, p.x);
    EXPECT_EQ(same->y, p.y);

    for (unsigned b = 0; b < 256; b += 7) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        expect_same(curve.mul_ct(k, p), P256Oracle::mul_generic(k, p), "ct_mul 2^b", b);
    }
    U256 n_minus_1;
    sub(n_minus_1, n, U256::one());
    expect_same(curve.mul_ct(n_minus_1, p), P256Oracle::mul_generic(n_minus_1, p),
                "ct_mul n-1", 0);
}

// ---------------------------------------------------------------- ECDSA

TEST(P256DiffTest, SignaturesMatchReferenceLadderNonce) {
    // ecdsa_sign's r is the x-coordinate of k*G for the RFC 6979 nonce k,
    // computed through the comb table. Recompute k*G with the reference
    // ladder and check r (reduced mod n) byte-for-byte, then verify.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0004);
    for (std::size_t i = 0; i < kCases; ++i) {
        const Bytes seed = rng.bytes(32);
        const PrivateKey key = PrivateKey::generate(seed);
        const Sha256Digest digest = Sha256::digest(rng.bytes(1 + i % 96));

        const Signature sig = ecdsa_sign(key, digest);
        EXPECT_TRUE(ecdsa_verify(PreparedPublicKey(key.public_key()), digest, sig)) << i;

        const U256 k = rfc6979_nonce(key.scalar(), digest);
        const auto point = P256Oracle::mul_base_generic(k);
        ASSERT_TRUE(point.has_value()) << i;
        const U256 r_ref = curve.order().reduce(point->x);
        const U256 r = U256::from_be_bytes(ByteSpan(sig.data(), 32));
        EXPECT_EQ(r, r_ref) << "nonce point mismatch, case " << i;
    }
}

TEST(P256DiffTest, SignaturesAreDeterministicAcrossCalls) {
    // RFC 6979 + deterministic comb arithmetic: the same (key, digest) must
    // produce the same 64 bytes every time — the server's response cache
    // depends on re-signing being reproducible.
    Rng rng(0x5EED0005);
    const PrivateKey key = PrivateKey::generate(rng.bytes(32));
    const Sha256Digest digest = Sha256::digest(rng.bytes(57));
    const Signature first = ecdsa_sign(key, digest);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(ecdsa_sign(key, digest), first);
}

// ------------------------------------------------- group-law special cases

TEST(P256DiffTest, MixedAdditionAndDoublingEdgeCases) {
    // Single-table comb and wNAF partial sums never equal a table entry;
    // only verify2's walk over two equal tables can fold one entry twice in
    // a row, and seldom. So drive add_mixed's p == ±q cases directly,
    // through the oracle's pass-throughs. P = x*G and Q = y*G, so each
    // expected point is a ladder multiple of G.
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    Rng rng(0x5EED0015);
    for (std::size_t i = 0; i < 64; ++i) {
        const U256 x = fn.reduce(random_u256(rng));
        const U256 y = fn.reduce(random_u256(rng));
        const auto p = P256Oracle::mul_base_generic(x);
        const auto q = P256Oracle::mul_base_generic(y);
        ASSERT_TRUE(p.has_value() && q.has_value()) << i;
        AffinePoint minus_p = *p;
        sub(minus_p.y, curve.field().modulus(), p->y);
        const auto two_p = P256Oracle::mul_base_generic(fn.add(x, x));

        // P + P doubles, P + (-P) is infinity.
        expect_same(P256Oracle::add_mixed(p, *p),
                    P256Oracle::mul_generic(U256::from_u64(2), *p), "P+P vs ladder 2P", i);
        expect_same(P256Oracle::add_mixed(p, *p), two_p, "P+P vs (2x)G", i);
        EXPECT_FALSE(P256Oracle::add_mixed(p, minus_p).has_value()) << i;

        // The generic case, and infinity + Q == Q, through both additions.
        const auto p_plus_q = P256Oracle::mul_base_generic(fn.add(x, y));
        expect_same(P256Oracle::add_mixed(p, *q), p_plus_q, "P+Q", i);
        expect_same(P256Oracle::ct_add_mixed(p, *q, false), p_plus_q, "ct P+Q", i);
        expect_same(P256Oracle::add_mixed(std::nullopt, *q), q, "inf+Q", i);
        expect_same(P256Oracle::ct_add_mixed(std::nullopt, *q, false), q, "ct inf+Q", i);

        // The zero-digit mask keeps p, infinity included.
        expect_same(P256Oracle::ct_add_mixed(p, *q, true), p, "ct masked", i);
        EXPECT_FALSE(P256Oracle::ct_add_mixed(std::nullopt, *q, true).has_value()) << i;

        // Both doublings agree with each other and with the ladder.
        expect_same(P256Oracle::dbl(p), two_p, "dbl", i);
        expect_same(P256Oracle::ct_dbl(p), two_p, "ct_dbl", i);
    }
    EXPECT_FALSE(P256Oracle::dbl(std::nullopt).has_value());
    EXPECT_FALSE(P256Oracle::ct_dbl(std::nullopt).has_value());
}

TEST(P256DiffTest, FormulaBodiesMatchAffineSlopeOracle) {
    // The ladder is built on dbl and add, so it cannot catch a wrong
    // rewrite of the formula bodies. The affine chord-and-tangent law on
    // FieldReference can: it shares no code with Montgomery or the
    // Jacobian formulas. Each input is lifted with its own random z.
    const P256& curve = P256::instance();
    const U256& p_mod = curve.field().modulus();
    Rng rng(0x5EED0016);
    const auto random_z = [&] {
        U256 z;
        do z = curve.field().reduce(random_u256(rng)); while (z.is_zero());
        return z;
    };
    const auto negate = [&](const AffinePoint& a) {
        AffinePoint out = a;
        sub(out.y, p_mod, a.y);
        return out;
    };
    // p + q through add and madd_2007bl, and 2p through dbl_2001b. At
    // p == ±q madd's z3 is 0 (add_mixed resolves that case on its output).
    const auto check = [&](const AffinePoint& a, const AffinePoint& b, const char* what,
                           std::size_t i) {
        const auto sum = P256Oracle::affine_add(a, b);
        expect_same(P256Oracle::add(a, random_z(), b, random_z()), sum, what, i);
        const bool same_x = a.x == b.x;
        expect_same(P256Oracle::madd_2007bl(a, random_z(), b),
                    same_x ? std::nullopt : sum, what, i);
        expect_same(P256Oracle::dbl_2001b(a, random_z()), P256Oracle::affine_add(a, a), what, i);
        if (sum) {
            EXPECT_TRUE(curve.on_curve(*sum)) << what << " case " << i;
        }
    };

    // Seeded multiples of G, P + P and P + (-P).
    for (std::size_t i = 0; i < 24; ++i) {
        const auto a = curve.mul_base(random_u256(rng));
        const auto b = curve.mul_base(random_u256(rng));
        ASSERT_TRUE(a && b) << i;
        check(*a, *b, "P+Q", i);
        check(*a, *a, "P+P", i);
        check(*a, negate(*a), "P+(-P)", i);
        EXPECT_FALSE(P256Oracle::affine_add(*a, negate(*a)).has_value()) << i;
    }

    // Sums whose x lies just below p: R = (p - k, y) for the first liftable
    // k, reached as (R - Q) + Q for a seeded Q.
    std::size_t near = 0;
    for (std::uint64_t k = 1; near < 8; ++k) {
        U256 x;
        sub(x, p_mod, U256::from_u64(k));
        const auto r = P256Oracle::lift_x(x);
        if (!r) continue;
        ASSERT_TRUE(curve.on_curve(*r)) << k;
        const auto q = curve.mul_base(random_u256(rng));
        ASSERT_TRUE(q.has_value()) << k;
        const auto p_point = P256Oracle::affine_add(*r, negate(*q));
        ASSERT_TRUE(p_point.has_value()) << k;
        const auto sum = P256Oracle::affine_add(*p_point, *q);
        ASSERT_TRUE(sum.has_value()) << k;
        EXPECT_EQ(sum->x, r->x) << k;
        EXPECT_EQ(sum->y, r->y) << k;
        check(*p_point, *q, "near-p sum", static_cast<std::size_t>(k));
        check(*r, *q, "near-p operand", static_cast<std::size_t>(k));
        ++near;
    }
}

// -------------------------------------------------------------- mul_add

TEST(P256DiffTest, MulAddMatchesScalarIdentity) {
    // With P = x*G: u1*G + u2*P == (u1 + u2*x mod n)*G, so mul_add's comb-
    // accelerated u1 half is checked against the reference ladder through
    // the group law itself.
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    Rng rng(0x5EED0006);
    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 x = fn.reduce(random_u256(rng));
        if (x.is_zero()) continue;
        const auto p = P256Oracle::mul_base_generic(x);
        ASSERT_TRUE(p.has_value()) << i;

        // Edge mixes every 8th case: u1 or u2 == 0 / 1 / n-1.
        U256 u1 = fn.reduce(random_u256(rng));
        U256 u2 = fn.reduce(random_u256(rng));
        if (i % 8 == 6) u1 = U256::zero();
        if (i % 8 == 7) u2 = U256::zero();
        if (i % 8 == 5) sub(u1, curve.n(), U256::one());

        const U256 combined = fn.add(
            u1, fn.from_mont(fn.mul(fn.to_mont(u2), fn.to_mont(x))));
        expect_same(curve.mul_add(u1, u2, curve.precompute(*p)),
                    P256Oracle::mul_base_generic(combined), "mul_add", i);
    }
}

// --------------------------------------------- wNAF variable-base mul

// A deterministic set of base points P = x*G derived from the reference
// ladder (so the wNAF paths are not checked against themselves).
std::vector<AffinePoint> seeded_points(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<AffinePoint> points;
    while (points.size() < count) {
        const auto p = P256Oracle::mul_base_generic(random_u256(rng));
        if (p) points.push_back(*p);
    }
    return points;
}

TEST(P256DiffTest, WnafMulMatchesLadderOnSeededScalars) {
    // The interleaved per-key walk against the reference ladder, for many
    // keys and every case.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0007);
    const auto points = seeded_points(8, 0x5EED0107);
    std::vector<P256::Precomputed> tables;
    for (const auto& p : points) tables.push_back(curve.precompute(p));
    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 k = random_u256(rng);
        const std::size_t j = i % points.size();
        expect_same(curve.mul(k, tables[j]), P256Oracle::mul_generic(k, points[j]),
                    "wnaf mul", i);
    }
}

TEST(P256DiffTest, WnafMulMatchesLadderOnEdgeScalars) {
    const P256& curve = P256::instance();
    const U256 n = curve.n();
    const AffinePoint p = *P256Oracle::mul_base_generic(U256::from_u64(0xDEC0DE));
    const P256::Precomputed table = curve.precompute(p);

    // 0 and n (== 0 mod n): both paths must refuse.
    EXPECT_FALSE(curve.mul(U256::zero(), table).has_value());
    EXPECT_FALSE(P256Oracle::mul_generic(U256::zero(), p).has_value());
    EXPECT_FALSE(curve.mul(n, table).has_value());
    EXPECT_FALSE(P256Oracle::mul_generic(n, p).has_value());

    // k == 1 hands back P itself.
    const auto identity = curve.mul(U256::one(), table);
    ASSERT_TRUE(identity.has_value());
    EXPECT_EQ(identity->x, p.x);
    EXPECT_EQ(identity->y, p.y);

    // Every single-bit scalar (lone wNAF digit at every position, so every
    // row and the row boundaries of the interleaved table), the
    // all-ones-ish straddles of the order, and n+k reductions.
    for (unsigned b = 0; b < 256; ++b) {
        U256 k;
        k.w[b / 64] = 1ull << (b % 64);
        expect_same(curve.mul(k, table), P256Oracle::mul_generic(k, p), "wnaf 2^b", b);
    }
    U256 n_minus_1;
    sub(n_minus_1, n, U256::one());
    expect_same(curve.mul(n_minus_1, table), P256Oracle::mul_generic(n_minus_1, p),
                "wnaf n-1", 0);
    Rng rng(0x5EED0008);
    for (std::size_t i = 0; i < 64; ++i) {
        U256 k;
        add(k, n, U256::from_u64(rng.next_u64() | 1));
        expect_same(curve.mul(k, table), P256Oracle::mul_generic(k, p), "wnaf n+k", i);
    }
    // Dense small-window scalars: every odd value 1..31 plus shifted copies,
    // exercising each wNAF digit magnitude with and without carries.
    for (std::uint64_t v = 1; v < 32; ++v) {
        for (unsigned shift = 0; shift < 3; ++shift) {
            U256 k = U256::from_u64(v << (4 * shift));
            expect_same(curve.mul(k, table), P256Oracle::mul_generic(k, p), "wnaf window", v);
        }
    }
}

TEST(P256DiffTest, PrecomputedMatchesFreshAndLadder) {
    // A per-key table that has already served many scalars must be
    // indistinguishable from a table built fresh for this one call (the walk
    // leaves no state behind in the table) and from the reference ladder.
    const P256& curve = P256::instance();
    Rng rng(0x5EED0009);
    const auto points = seeded_points(8, 0x5EED0109);
    std::vector<P256::Precomputed> tables;
    for (const auto& p : points) tables.push_back(curve.precompute(p));

    for (std::size_t i = 0; i < kCases; ++i) {
        const U256 k = random_u256(rng);
        const std::size_t j = i % points.size();
        const auto pre = curve.mul(k, tables[j]);
        expect_same(pre, curve.mul(k, curve.precompute(points[j])), "precomputed vs fresh",
                    i);
        if (i % 8 == 0) {
            expect_same(pre, P256Oracle::mul_generic(k, points[j]), "precomputed vs ladder",
                        i);
        }
    }
}

TEST(P256DiffTest, PrecomputedMatchesLadderOnEdgeScalars) {
    // Scalars near n exercise the wNAF carry digit at position 256 — the
    // overflow row of the interleaved table. (Single-bit scalars are swept
    // in WnafMulMatchesLadderOnEdgeScalars.)
    const P256& curve = P256::instance();
    const U256 n = curve.n();
    const AffinePoint p = *P256Oracle::mul_base_generic(U256::from_u64(0xAB15EED));
    const P256::Precomputed table = curve.precompute(p);

    std::vector<U256> edges;
    U256 e;
    for (std::uint64_t d = 1; d <= 16; ++d) {
        sub(e, n, U256::from_u64(d));
        edges.push_back(e);  // n-d: dense top limbs, every near-order carry pattern
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
        expect_same(curve.mul(edges[i], table), P256Oracle::mul_generic(edges[i], p),
                    "precomputed edge", i);
    }
}

TEST(P256DiffTest, MulAddVariantsMatchGenericReference) {
    // mul_add (comb + precomputed table) must agree with the pure ladder
    // everywhere, including the zero-scalar branches.
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    Rng rng(0x5EED000A);
    const auto points = seeded_points(4, 0x5EED010A);
    std::vector<P256::Precomputed> tables;
    for (const auto& p : points) tables.push_back(curve.precompute(p));

    for (std::size_t i = 0; i < kCases; ++i) {
        U256 u1 = fn.reduce(random_u256(rng));
        U256 u2 = fn.reduce(random_u256(rng));
        if (i % 8 == 5) u1 = U256::zero();
        if (i % 8 == 6) u2 = U256::zero();
        if (i % 8 == 7) sub(u2, curve.n(), U256::one());
        const std::size_t j = i % points.size();

        expect_same(curve.mul_add(u1, u2, tables[j]),
                    P256Oracle::mul_add_generic(u1, u2, points[j]), "mul_add", i);
    }
}

// ------------------------------------------------- batch verify (verify2)

U256 mod_mul(const Montgomery& fn, const U256& a, const U256& b) {
    return fn.from_mont(fn.mul(fn.to_mont(a), fn.to_mont(b)));
}

U256 mod_inv(const Montgomery& fn, const U256& a) {
    return fn.from_mont(fn.inv(fn.to_mont(a)));
}

// An infinite R has no x; stand in G's, which lifts, so the walk runs.
U256 r_of(const std::optional<AffinePoint>& point) {
    const P256& curve = P256::instance();
    return point ? curve.order().reduce(point->x) : curve.generator().x;
}

// verify2_combination is the one 4-point walk, and signatures only ever hand
// it derived scalars. Pins it on one quadruple: R1 = u1*G + u2*P1 and
// R2 = u3*G + u4*P2 come from the ladder with r = x mod n, so the
// combination must accept, and reject a bumped r1 or an infinite R1 or R2.
// nullopt is allowed only in the documented corner where r2 and r2 + n both
// lie below p.
void expect_verify2_matches_ladder(const U256 (&u)[4], const AffinePoint& p1,
                                   const P256::Precomputed& t1, const AffinePoint& p2,
                                   const P256::Precomputed& t2, std::uint64_t gamma,
                                   const char* what, std::size_t i) {
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    const auto r1_point = P256Oracle::mul_add_generic(u[0], u[1], p1);
    const auto r2_point = P256Oracle::mul_add_generic(u[2], u[3], p2);
    const U256 r1 = r_of(r1_point);
    const U256 r2 = r_of(r2_point);
    const auto verdict = curve.verify2_combination(u[0], u[1], t1, r1, u[2], u[3], t2, r2, gamma);
    if (!verdict) {
        U256 r2b;
        EXPECT_TRUE(add(r2b, r2, curve.n()) == 0 && r2b < curve.field().modulus())
            << what << " case " << i;
        return;
    }
    const bool both_finite = r1_point.has_value() && r2_point.has_value();
    EXPECT_EQ(*verdict, both_finite) << what << " case " << i;
    if (!both_finite) return;
    const auto bumped = curve.verify2_combination(u[0], u[1], t1, fn.add(r1, U256::one()), u[2],
                                                  u[3], t2, r2, gamma);
    ASSERT_TRUE(bumped.has_value()) << what << " case " << i;
    EXPECT_FALSE(*bumped) << what << " bumped r1, case " << i;
}

TEST(P256DiffTest, Verify2CombinationMatchesGenericReference) {
    // ~1k seeded scalar quadruples, with edge mixes rotating through zero /
    // one / n-1 scalars, the two tables collapsing to the same key every 3rd
    // case (the verifier's equal-key corner), and u1 + gamma*u3 == 0 mod n
    // (the comb half collapses).
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    const U256 n = curve.n();
    Rng rng(0x5EED0010);
    const auto points = seeded_points(4, 0x5EED0110);
    std::vector<P256::Precomputed> tables;
    for (const auto& p : points) tables.push_back(curve.precompute(p));

    for (std::size_t i = 0; i < kCases; ++i) {
        U256 u[4];
        for (auto& v : u) v = fn.reduce(random_u256(rng));
        const std::uint64_t gamma = std::max<std::uint64_t>(rng.next_u64(), 1);
        switch (i % 12) {
            case 2: u[0] = U256::zero(); u[1] = U256::zero(); break;  // R1 = inf
            case 3: u[2] = U256::zero(); u[3] = U256::zero(); break;  // R2 = inf
            case 4: u[0] = U256::zero(); break;
            case 5: u[1] = U256::zero(); break;
            case 6: u[2] = U256::zero(); break;
            case 7: u[3] = U256::zero(); break;
            case 8: u[0] = U256::one(); u[2] = U256::one(); break;
            case 9: sub(u[1], n, U256::one()); break;
            case 10: sub(u[3], n, U256::one()); break;
            case 11:  // u1 = -gamma*u3
                u[0] = fn.sub(U256::zero(), mod_mul(fn, U256::from_u64(gamma), u[2]));
                break;
            default: break;
        }
        const std::size_t j = i % points.size();
        const std::size_t j2 = (i % 3 == 0) ? j : (i + 1) % points.size();
        expect_verify2_matches_ladder(u, points[j], tables[j], points[j2], tables[j2], gamma,
                                      "verify2", i);
    }
}

TEST(P256DiffTest, Verify2CombinationMatchesOrderEdgeScalars) {
    // Unreduced n±k straddles on every operand: reduction and the wNAF carry
    // digit at position 256 must agree with the ladder through the walk.
    const P256& curve = P256::instance();
    const U256 n = curve.n();
    const auto points = seeded_points(2, 0x5EED0111);
    const P256::Precomputed t0 = curve.precompute(points[0]);
    const P256::Precomputed t1 = curve.precompute(points[1]);
    Rng rng(0x5EED0011);
    for (std::size_t i = 0; i < 64; ++i) {
        U256 u[4];
        for (auto& v : u) {
            const std::uint64_t d = rng.next_u64() % 17;
            if (i % 2 == 0) {
                add(v, n, U256::from_u64(d));  // n + k
            } else {
                sub(v, n, U256::from_u64(d + 1));  // n - k
            }
        }
        const std::uint64_t gamma = std::max<std::uint64_t>(rng.next_u64(), 1);
        expect_verify2_matches_ladder(u, points[0], t0, points[1], t1, gamma, "verify2 n±k", i);
    }
    // All four zero: both R's are infinity. (gamma must not be 1 here, or
    // the stand-ins G and -G would cancel.)
    const U256 r_inf = r_of(std::nullopt);
    const auto none = curve.verify2_combination(U256::zero(), U256::zero(), t0, r_inf,
                                                U256::zero(), U256::zero(), t1, r_inf, 2);
    ASSERT_TRUE(none.has_value());
    EXPECT_FALSE(*none);
}

TEST(P256DiffTest, Verify2AgreesWithSequentialVerifies) {
    // Honest pairs accept; any corrupted signature, digest, or key pairing
    // must get the same verdict as the two sequential verifies.
    Rng rng(0x5EED0012);
    for (std::size_t i = 0; i < 192; ++i) {
        const PrivateKey key1 = PrivateKey::generate(rng.bytes(32));
        // Every 4th case reuses key1 for both slots — the fleet's actual
        // shape is two distinct trust anchors, but equal keys must work.
        const PrivateKey key2 = (i % 4 == 0) ? key1 : PrivateKey::generate(rng.bytes(32));
        const PreparedPublicKey prep1(key1.public_key());
        const PreparedPublicKey prep2(key2.public_key());
        const Sha256Digest d1 = Sha256::digest(rng.bytes(1 + i % 80));
        const Sha256Digest d2 = Sha256::digest(rng.bytes(1 + (i * 7) % 80));
        Signature s1 = ecdsa_sign(key1, d1);
        Signature s2 = ecdsa_sign(key2, d2);

        EXPECT_TRUE(ecdsa_verify2(prep1, d1, s1, prep2, d2, s2)) << i;

        // Corrupt one signature: batch must reject, like the sequential pair.
        Signature bad = s1;
        bad[i % bad.size()] ^= static_cast<std::uint8_t>(1u << (i % 8));
        EXPECT_FALSE(ecdsa_verify2(prep1, d1, bad, prep2, d2, s2)) << i;
        bad = s2;
        bad[(i * 3) % bad.size()] ^= static_cast<std::uint8_t>(1u << ((i + 5) % 8));
        EXPECT_FALSE(ecdsa_verify2(prep1, d1, s1, prep2, d2, bad)) << i;

        // Swapped digests: both slots see the wrong message.
        if (!(d1 == d2)) {
            EXPECT_FALSE(ecdsa_verify2(prep1, d2, s1, prep2, d1, s2)) << i;
        }

        // Swapped keys (distinct-key cases): wrong key for each signature.
        if (i % 4 != 0) {
            EXPECT_FALSE(ecdsa_verify2(prep2, d1, s1, prep1, d2, s2)) << i;
        }
    }
}

TEST(P256DiffTest, Verify2RejectsMalformedInputs) {
    Rng rng(0x5EED0013);
    const PrivateKey key = PrivateKey::generate(rng.bytes(32));
    const PreparedPublicKey prep(key.public_key());
    const Sha256Digest digest = Sha256::digest(rng.bytes(40));
    const Signature good = ecdsa_sign(key, digest);

    // Zero r / zero s / r >= n / s >= n in either slot.
    Signature zero_r = good;
    std::fill(zero_r.begin(), zero_r.begin() + 32, std::uint8_t{0});
    Signature zero_s = good;
    std::fill(zero_s.begin() + 32, zero_s.end(), std::uint8_t{0});
    Signature big_r = good;
    std::fill(big_r.begin(), big_r.begin() + 32, std::uint8_t{0xff});
    Signature big_s = good;
    std::fill(big_s.begin() + 32, big_s.end(), std::uint8_t{0xff});
    for (const Signature& bad : {zero_r, zero_s, big_r, big_s}) {
        EXPECT_FALSE(ecdsa_verify2(prep, digest, bad, prep, digest, good));
        EXPECT_FALSE(ecdsa_verify2(prep, digest, good, prep, digest, bad));
    }
    // Truncated signature and invalid (empty) prepared key.
    EXPECT_FALSE(ecdsa_verify2(prep, digest, ByteSpan(good.data(), 63), prep,
                               digest, good));
    const PreparedPublicKey empty;
    EXPECT_FALSE(ecdsa_verify2(empty, digest, good, prep, digest, good));
    EXPECT_FALSE(ecdsa_verify2(prep, digest, good, empty, digest, good));
}

TEST(P256DiffTest, Verify2RejectsForgedCancellationPair) {
    // Adversarial pair built to cancel in the UNWEIGHTED combined equation:
    // neither signature verifies individually, but error1 + error2 == O, so
    // a batch verifier that naively sums the two verification equations
    // (gamma == 1) accepts. The randomized gamma is exactly what defeats
    // this, and verify2 must reject. Scalars are constructed through the
    // known discrete log x of P = x*G, so every point is a mul_base of a
    // known scalar.
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    Rng rng(0x5EED0014);
    const PrivateKey key = PrivateKey::generate(rng.bytes(32));
    const U256 x = key.scalar();
    const PreparedPublicKey prep(key.public_key());

    for (std::size_t attempt = 0; attempt < 8; ++attempt) {
        // R1 = k*G with r1 = x(R1) < n (so the verifier's lift finds it).
        U256 k, r1;
        for (;;) {
            k = fn.reduce(random_u256(rng));
            if (k.is_zero()) continue;
            const auto r1_point = P256Oracle::mul_base_generic(k);
            if (r1_point && r1_point->x < curve.n()) {
                r1 = r1_point->x;
                break;
            }
        }
        // Garbage signature 1: (r1, s1) over a random digest scalar z1.
        const U256 s1 = fn.reduce(random_u256(rng));
        const U256 z1 = fn.reduce(random_u256(rng));
        if (s1.is_zero() || z1.is_zero()) continue;
        const U256 w1 = mod_inv(fn, s1);
        const U256 u1 = mod_mul(fn, z1, w1);
        const U256 u2 = mod_mul(fn, r1, w1);
        // error1 = (u1 + u2*x - k)*G, nonzero w.h.p.
        U256 e1 = fn.add(u1, mod_mul(fn, u2, x));
        e1 = fn.sub(e1, k);
        if (e1.is_zero()) continue;

        // Signature 2 engineered so error2 == -error1: R2 = (a + b*x + e1)*G,
        // s2 = r2/b, z2 = a*s2 — then u3 = a, u4 = b, and
        // u3*G + u4*P - R2 = -e1*G.
        U256 a, b, r2, s2, z2;
        for (;;) {
            a = fn.reduce(random_u256(rng));
            b = fn.reduce(random_u256(rng));
            if (a.is_zero() || b.is_zero()) continue;
            U256 t = fn.add(a, mod_mul(fn, b, x));
            t = fn.add(t, e1);
            if (t.is_zero()) continue;
            const auto r2_point = P256Oracle::mul_base_generic(t);
            if (!r2_point || !(r2_point->x < curve.n())) continue;
            r2 = r2_point->x;
            if (r2.is_zero()) continue;
            s2 = mod_mul(fn, r2, mod_inv(fn, b));
            z2 = mod_mul(fn, a, s2);
            if (!s2.is_zero() && !z2.is_zero()) break;
        }

        Signature sig1{}, sig2{};
        r1.to_be_bytes(MutByteSpan(sig1.data(), 32));
        s1.to_be_bytes(MutByteSpan(sig1.data() + 32, 32));
        r2.to_be_bytes(MutByteSpan(sig2.data(), 32));
        s2.to_be_bytes(MutByteSpan(sig2.data() + 32, 32));
        Sha256Digest d1{}, d2{};
        z1.to_be_bytes(MutByteSpan(d1.data(), d1.size()));
        z2.to_be_bytes(MutByteSpan(d2.data(), d2.size()));

        // Neither forgery passes a sequential verify.
        ASSERT_FALSE(ecdsa_verify(prep, d1, sig1)) << attempt;
        ASSERT_FALSE(ecdsa_verify(prep, d2, sig2)) << attempt;

        // The unweighted combination DOES cancel — proving this pair is the
        // real attack, not a strawman…
        const U256 u3 = a;
        const U256 u4 = b;
        const auto naive = curve.verify2_combination(u1, u2, prep.table(), r1, u3,
                                                     u4, prep.table(), r2, 1);
        ASSERT_TRUE(naive.has_value()) << attempt;
        EXPECT_TRUE(*naive) << attempt << " (cancellation construction broken?)";

        // …and any other gamma breaks the cancellation…
        for (const std::uint64_t gamma : {2ull, 3ull, 0x123456789abcdefull}) {
            const auto weighted = curve.verify2_combination(
                u1, u2, prep.table(), r1, u3, u4, prep.table(), r2, gamma);
            ASSERT_TRUE(weighted.has_value()) << attempt << " gamma " << gamma;
            EXPECT_FALSE(*weighted) << attempt << " gamma " << gamma;
        }

        // …so the production entry (random gamma) rejects the pair.
        EXPECT_FALSE(ecdsa_verify2(prep, d1, sig1, prep, d2, sig2)) << attempt;
    }
}

// A curve point with x-coordinate `x` (either root y), or nullopt when
// x^3 - 3x + b is not a square mod p. b comes from G, and p = 3 mod 4, so
// a root is rhs^((p + 1) / 4).
std::optional<AffinePoint> point_with_x(const U256& x) {
    const P256& curve = P256::instance();
    const Montgomery& fp = curve.field();
    const auto x3_minus_3x = [&](const U256& xm) {
        return fp.sub(fp.mul(fp.sqr(xm), xm), fp.add(fp.add(xm, xm), xm));
    };
    const AffinePoint& g = curve.generator();
    const U256 b = fp.sub(fp.sqr(fp.to_mont(g.y)), x3_minus_3x(fp.to_mont(g.x)));
    const U256 rhs = fp.add(x3_minus_3x(fp.to_mont(x)), b);
    U256 e;
    (void)add(e, fp.modulus(), U256::one());
    const U256 ym = fp.pow(rhs, shr1(shr1(e)));
    if (!(fp.sqr(ym) == rhs)) return std::nullopt;
    return AffinePoint{x, fp.from_mont(ym)};
}

TEST(P256DiffTest, Verify2ReachesRPlusNCandidates) {
    // An x-coordinate x(R) >= n reduces to r = x(R) - n, so verify2 must
    // try r + n too: as R1's x in x_matches, and as a lift candidate for
    // R2. Only r < p - n (about 2^-130 of the range) has such a candidate,
    // so honest signatures practically never reach it. A key P = (n + r, y)
    // does: it signs the all-zero digest with (r, s) = (r, r), since then
    // u1 = 0 and u2 = 1, R = P, and x(R) mod n = r. For r = 3 only n + 3 is
    // an x-coordinate; for r = 6 both 6 and n + 6 are, the corner where the
    // combination cannot tell which R2 was meant and the verifier falls
    // back to two sequential verifies.
    const P256& curve = P256::instance();
    const auto plus_n = [&](std::uint64_t r) {
        U256 x;
        (void)add(x, curve.n(), U256::from_u64(r));
        return x;
    };
    ASSERT_FALSE(point_with_x(U256::from_u64(3)).has_value());
    ASSERT_TRUE(point_with_x(U256::from_u64(6)).has_value());
    const Sha256Digest zero{};
    const auto edge_key = [&](std::uint64_t r) {
        const auto p = point_with_x(plus_n(r));
        EXPECT_TRUE(p.has_value()) << r;
        const auto key = PublicKey::from_point(p.value_or(curve.generator()));
        EXPECT_TRUE(key.has_value()) << r;
        return key ? key.value() : PublicKey{};
    };
    const auto edge_signature = [](std::uint64_t r) {
        Signature sig{};
        U256::from_u64(r).to_be_bytes(MutByteSpan(sig.data(), 32));
        U256::from_u64(r).to_be_bytes(MutByteSpan(sig.data() + 32, 32));
        return sig;
    };
    const PublicKey pub3 = edge_key(3);
    const PublicKey pub6 = edge_key(6);
    const PreparedPublicKey key3(pub3);
    const PreparedPublicKey key6(pub6);
    const Signature sig3 = edge_signature(3);
    const Signature sig6 = edge_signature(6);
    EXPECT_TRUE(ecdsa_verify(key3, zero, sig3));
    EXPECT_TRUE(ecdsa_verify_generic(pub3, zero, sig3));
    EXPECT_TRUE(ecdsa_verify(key6, zero, sig6));
    EXPECT_TRUE(ecdsa_verify_generic(pub6, zero, sig6));

    Rng rng(0x5EED0015);
    const PrivateKey honest = PrivateKey::generate(rng.bytes(32));
    const PreparedPublicKey honest_key(honest.public_key());
    const Sha256Digest digest = Sha256::digest(rng.bytes(48));
    const Signature honest_sig = ecdsa_sign(honest, digest);

    // r = 3 first: R1 = P matches only through x_matches' r1 + n candidate.
    EXPECT_TRUE(ecdsa_verify2(key3, zero, sig3, honest_key, digest, honest_sig));
    // r = 3 second: 3 does not lift, so R2 comes from the r2 + n candidate.
    EXPECT_TRUE(ecdsa_verify2(honest_key, digest, honest_sig, key3, zero, sig3));
    // Both at once, and r = 6 first (only x_matches sees r1).
    EXPECT_TRUE(ecdsa_verify2(key3, zero, sig3, key3, zero, sig3));
    EXPECT_TRUE(ecdsa_verify2(key6, zero, sig6, honest_key, digest, honest_sig));
    // r = 6 second: both candidates lift, so the verdict comes from the
    // sequential fallback.
    EXPECT_TRUE(ecdsa_verify2(honest_key, digest, honest_sig, key6, zero, sig6));

    // The combination itself, with the edge signature's u = (0, 1): r1 + n
    // and the r2 + n lift accept, and both live candidates give nullopt.
    const Montgomery& fn = curve.order();
    const U256 hr = U256::from_be_bytes(ByteSpan(honest_sig.data(), 32));
    const U256 hs = U256::from_be_bytes(ByteSpan(honest_sig.data() + 32, 32));
    const U256 hw = mod_inv(fn, hs);
    const U256 hu1 = mod_mul(fn, fn.reduce(U256::from_be_bytes(digest)), hw);
    const U256 hu2 = mod_mul(fn, hr, hw);
    const std::uint64_t gamma = 0x9E3779B97F4A7C15ull;
    const auto first = curve.verify2_combination(U256::zero(), U256::one(), key3.table(),
                                                 U256::from_u64(3), hu1, hu2,
                                                 honest_key.table(), hr, gamma);
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(*first);
    const auto second = curve.verify2_combination(hu1, hu2, honest_key.table(), hr,
                                                  U256::zero(), U256::one(), key3.table(),
                                                  U256::from_u64(3), gamma);
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(*second);
    const auto both_live = curve.verify2_combination(hu1, hu2, honest_key.table(), hr,
                                                     U256::zero(), U256::one(), key6.table(),
                                                     U256::from_u64(6), gamma);
    EXPECT_FALSE(both_live.has_value());

    // Tampered edge signatures still fail, alone and in a pair.
    Signature bad3 = sig3;
    bad3[63] ^= 0x01;
    EXPECT_FALSE(ecdsa_verify(key3, zero, bad3));
    EXPECT_FALSE(ecdsa_verify2(key3, zero, bad3, honest_key, digest, honest_sig));
    EXPECT_FALSE(ecdsa_verify2(honest_key, digest, honest_sig, key3, zero, bad3));
}

// ------------------------------------------------------ ECDSA verify paths

TEST(P256DiffTest, PreparedKeysShareInternedTables) {
    // A trust anchor is prepared once and travels by handle: a copy shares
    // its table, and a handle prepared independently for the same key
    // builds an equal table that verifies the same signatures.
    Rng rng(0x5EED000C);
    const PrivateKey key = PrivateKey::generate(rng.bytes(32));
    const PublicKey pub = key.public_key();
    const PreparedPublicKey a(pub);
    const PreparedPublicKey copy = a;
    const PreparedPublicKey b(pub);
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(copy.valid());
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(&a.table(), &copy.table());

    const Sha256Digest digest = Sha256::digest(rng.bytes(48));
    const Signature sig = ecdsa_sign(key, digest);
    EXPECT_TRUE(ecdsa_verify(a, digest, sig));
    EXPECT_TRUE(ecdsa_verify(copy, digest, sig));
    EXPECT_TRUE(ecdsa_verify(b, digest, sig));

    // A default-constructed (table-less) handle fails closed.
    const PreparedPublicKey empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_FALSE(ecdsa_verify(empty, digest, sig));
}

TEST(P256DiffTest, VerifyVariantsAgree) {
    // Valid signatures, corrupted signatures, and corrupted digests must
    // get identical verdicts from the prepared verify and the
    // generic-ladder reference.
    Rng rng(0x5EED000B);
    for (std::size_t i = 0; i < 256; ++i) {
        const PrivateKey key = PrivateKey::generate(rng.bytes(32));
        const PublicKey pub = key.public_key();
        const PreparedPublicKey prepared(pub);
        const Sha256Digest digest = Sha256::digest(rng.bytes(1 + i % 64));
        Signature sig = ecdsa_sign(key, digest);

        EXPECT_TRUE(ecdsa_verify(prepared, digest, sig)) << i;
        EXPECT_TRUE(ecdsa_verify_generic(pub, digest, sig)) << i;

        // Flip one signature bit: both must reject.
        sig[i % sig.size()] ^= static_cast<std::uint8_t>(1u << (i % 8));
        EXPECT_FALSE(ecdsa_verify(prepared, digest, sig)) << i;
        EXPECT_EQ(ecdsa_verify(prepared, digest, sig),
                  ecdsa_verify_generic(pub, digest, sig))
            << i;
        sig[i % sig.size()] ^= static_cast<std::uint8_t>(1u << (i % 8));

        // Wrong digest: same story.
        Sha256Digest wrong = digest;
        wrong[i % wrong.size()] ^= 0x40;
        EXPECT_EQ(ecdsa_verify(prepared, wrong, sig),
                  ecdsa_verify_generic(pub, wrong, sig))
            << i;
        EXPECT_FALSE(ecdsa_verify(prepared, wrong, sig)) << i;
    }
}

}  // namespace
}  // namespace upkit::crypto
