// Known-answer and property tests for the crypto substrate: NIST SHA-256
// vectors, RFC 4231 HMAC vectors, RFC 6979 deterministic-ECDSA vectors, and
// randomized sign/verify roundtrips with tamper sweeps.
#include <gtest/gtest.h>

#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/backend.hpp"
#include "crypto/crc.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/hmac.hpp"
#include "crypto/hmac_drbg.hpp"
#include "crypto/hsm.hpp"
#include "crypto/modular.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "support/oracles.hpp"

namespace upkit::crypto {
namespace {

std::string hex_of(ByteSpan b) { return hex_encode(b); }

template <std::size_t N>
std::string hex_of(const std::array<std::uint8_t, N>& a) {
    return hex_encode(ByteSpan(a.data(), a.size()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, NistVectorEmpty) {
    EXPECT_EQ(hex_of(Sha256::digest({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, NistVectorAbc) {
    EXPECT_EQ(hex_of(Sha256::digest(to_bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, NistVectorTwoBlocks) {
    EXPECT_EQ(hex_of(Sha256::digest(to_bytes(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
    Sha256 h;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex_of(h.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShotAtEverySplit) {
    Rng rng(7);
    const Bytes data = rng.bytes(300);
    const auto expected = Sha256::digest(data);
    for (std::size_t split = 0; split <= data.size(); split += 13) {
        Sha256 h;
        h.update(ByteSpan(data).subspan(0, split));
        h.update(ByteSpan(data).subspan(split));
        EXPECT_EQ(h.finalize(), expected) << "split=" << split;
    }
}

TEST(Sha256Test, ReusableAfterFinalize) {
    Sha256 h;
    h.update(to_bytes("abc"));
    (void)h.finalize();
    h.update(to_bytes("abc"));
    EXPECT_EQ(hex_of(h.finalize()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// A parameterized sweep across message lengths around block boundaries,
// cross-checked between streaming and one-shot paths.
class Sha256LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256LengthSweep, StreamingByteAtATimeMatchesOneShot) {
    Rng rng(GetParam());
    const Bytes data = rng.bytes(GetParam());
    Sha256 h;
    for (std::uint8_t b : data) h.update(ByteSpan(&b, 1));
    EXPECT_EQ(h.finalize(), Sha256::digest(data));
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, Sha256LengthSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128,
                                           129, 255, 256, 1000));

// ---------------------------------------------------------------- HMAC

TEST(HmacTest, Rfc4231Case1) {
    const Bytes key(20, 0x0b);
    EXPECT_EQ(hex_of(HmacSha256::mac(key, to_bytes("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
    EXPECT_EQ(hex_of(HmacSha256::mac(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
    const Bytes key(20, 0xaa);
    const Bytes data(50, 0xdd);
    EXPECT_EQ(hex_of(HmacSha256::mac(key, data)),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
    const Bytes key(131, 0xaa);
    EXPECT_EQ(hex_of(HmacSha256::mac(
                  key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, StreamingMatchesOneShot) {
    HmacSha256 mac(to_bytes("key"));
    mac.update(to_bytes("hello "));
    mac.update(to_bytes("world"));
    EXPECT_EQ(mac.finalize(), HmacSha256::mac(to_bytes("key"), to_bytes("hello world")));
}

TEST(HmacTest, ResetRestartsWithSameKey) {
    HmacSha256 mac(to_bytes("key"));
    mac.update(to_bytes("garbage"));
    mac.reset();
    mac.update(to_bytes("msg"));
    EXPECT_EQ(mac.finalize(), HmacSha256::mac(to_bytes("key"), to_bytes("msg")));
}

// ---------------------------------------------------------------- HMAC-DRBG

TEST(HmacDrbgTest, DeterministicForSameSeed) {
    HmacDrbg a(to_bytes("seed"), to_bytes("ctx"));
    HmacDrbg b(to_bytes("seed"), to_bytes("ctx"));
    EXPECT_EQ(a.generate(48), b.generate(48));
}

TEST(HmacDrbgTest, DifferentSeedsDiverge) {
    HmacDrbg a(to_bytes("seed-a"));
    HmacDrbg b(to_bytes("seed-b"));
    EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbgTest, SuccessiveOutputsDiffer) {
    HmacDrbg drbg(to_bytes("seed"));
    EXPECT_NE(drbg.generate(32), drbg.generate(32));
}

TEST(HmacDrbgTest, ReseedChangesStream) {
    HmacDrbg a(to_bytes("seed"));
    HmacDrbg b(to_bytes("seed"));
    (void)a.generate(16);
    (void)b.generate(16);
    b.reseed(to_bytes("entropy"));
    EXPECT_NE(a.generate(32), b.generate(32));
}

// ---------------------------------------------------------------- CRC

TEST(CrcTest, Crc32CheckValue) {
    EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
}

TEST(CrcTest, Crc32Empty) { EXPECT_EQ(crc32({}), 0u); }

TEST(CrcTest, Crc32Chained) {
    const Bytes all = to_bytes("123456789");
    const std::uint32_t whole = crc32(all);
    const std::uint32_t part = crc32(ByteSpan(all).subspan(4), crc32(ByteSpan(all).subspan(0, 4)));
    EXPECT_EQ(part, whole);
}

TEST(CrcTest, Crc32MatchesBitwiseOracleAtEveryOffset) {
    // Slice-by-8 folds eight bytes per step and finishes the tail byte by
    // byte: every length 0-70 at every start offset 0-7 covers each split
    // of a buffer into steps and tail, with the default and a nonzero seed.
    Rng rng(0xC3C32);
    const Bytes buf = rng.bytes(7 + 70);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 70; ++len) {
            const ByteSpan span = ByteSpan(buf).subspan(offset, len);
            EXPECT_EQ(crc32(span), crc32_reference(span)) << offset << "/" << len;
            EXPECT_EQ(crc32(span, 0x8E3A11C5u), crc32_reference(span, 0x8E3A11C5u))
                << offset << "/" << len;
        }
    }
}

TEST(CrcTest, Crc32ChainsAcrossWordBoundaries) {
    // A CRC seeded with the CRC of everything before it equals the CRC of
    // the whole, wherever the split falls: before, on and after each
    // eight-byte step.
    Rng rng(0xC3C33);
    const Bytes all = rng.bytes(40);
    const std::uint32_t whole = crc32_reference(all);
    for (std::size_t split = 0; split <= all.size(); ++split) {
        const ByteSpan head = ByteSpan(all).subspan(0, split);
        const ByteSpan tail = ByteSpan(all).subspan(split);
        EXPECT_EQ(crc32(tail, crc32(head)), whole) << split;
    }
}

TEST(CrcTest, Crc32DetectsSingleBitFlip) {
    Rng rng(11);
    Bytes data = rng.bytes(64);
    const std::uint32_t before = crc32(data);
    data[17] ^= 0x01;
    EXPECT_NE(crc32(data), before);
}

// ---------------------------------------------------------------- U256

TEST(U256Test, HexRoundTrip) {
    const U256 v = U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
    EXPECT_EQ(hex_of(v.to_be_bytes()),
              "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
}

constexpr std::uint64_t kOnes = ~0ULL;

// One limb-level case: out = a op b, with the carry or borrow out of the top.
struct LimbCase {
    U256 a, b, out;
    std::uint64_t carry;
};

TEST(U256Test, AddCarriesAcrossLimbs) {
    // Carries that ripple across one to four limbs, from all-ones limbs
    // and from a carry into a limb whose addend is all ones.
    const LimbCase cases[] = {
        {{{kOnes, kOnes, kOnes, kOnes}}, U256::one(), U256::zero(), 1},
        {{{kOnes, 0, 0, 0}}, U256::one(), {{0, 1, 0, 0}}, 0},
        {{{kOnes, kOnes, 0, 0}}, U256::one(), {{0, 0, 1, 0}}, 0},
        {{{kOnes, kOnes, kOnes, 0}}, U256::one(), {{0, 0, 0, 1}}, 0},
        {{{kOnes, 0, kOnes, 0}}, {{1, kOnes, 0, 0}}, {{0, 0, 0, 1}}, 0},
        {{{kOnes, kOnes, kOnes, kOnes}}, {{kOnes, kOnes, kOnes, kOnes}},
         {{kOnes - 1, kOnes, kOnes, kOnes}}, 1},
        {{{0, kOnes, 0, kOnes}}, {{0, 1, kOnes, 0}}, {{0, 0, 0, 0}}, 1},
    };
    for (const LimbCase& c : cases) {
        U256 out;
        EXPECT_EQ(add(out, c.a, c.b), c.carry) << c.a.w[0] << " " << c.b.w[0];
        EXPECT_EQ(out, c.out) << c.a.w[0] << " " << c.b.w[0];
        U256 aliased = c.a;
        EXPECT_EQ(add(aliased, aliased, c.b), c.carry);
        EXPECT_EQ(aliased, c.out);
    }
}

TEST(U256Test, SubBorrows) {
    // Borrows that ripple across one to four limbs, through zero limbs and
    // through a limb whose subtrahend is all ones.
    const LimbCase cases[] = {
        {U256::zero(), U256::one(), {{kOnes, kOnes, kOnes, kOnes}}, 1},
        {{{0, 1, 0, 0}}, U256::one(), {{kOnes, 0, 0, 0}}, 0},
        {{{0, 0, 1, 0}}, U256::one(), {{kOnes, kOnes, 0, 0}}, 0},
        {{{0, 0, 0, 1}}, U256::one(), {{kOnes, kOnes, kOnes, 0}}, 0},
        {U256::zero(), {{kOnes, kOnes, kOnes, kOnes}}, U256::one(), 1},
        {{{0, kOnes, 0, 0}}, {{1, kOnes, 0, 0}}, {{kOnes, kOnes, kOnes, kOnes}}, 1},
        {{{0, 0, 0, kOnes}}, {{0, 0, 0, kOnes}}, U256::zero(), 0},
    };
    for (const LimbCase& c : cases) {
        U256 out;
        EXPECT_EQ(sub(out, c.a, c.b), c.carry) << c.a.w[0] << " " << c.b.w[0];
        EXPECT_EQ(out, c.out) << c.a.w[0] << " " << c.b.w[0];
        U256 aliased = c.b;
        EXPECT_EQ(sub(aliased, c.a, aliased), c.carry);
        EXPECT_EQ(aliased, c.out);
    }
}

#ifdef UPKIT_LIMB_X86
// The portable carry pair is the body on every other architecture and
// under MemorySanitizer; it must match the x86-64 instructions word for
// word, for both carry-in values.
TEST(U256Test, PortableCarryPairMatchesX86) {
    Rng rng(0xADC5BB);
    std::vector<std::uint64_t> words = {0, 1, 2, kOnes, kOnes - 1, 1ULL << 63, (1ULL << 63) - 1};
    for (int i = 0; i < 64; ++i) words.push_back(rng.next_u64());
    for (const std::uint64_t a : words) {
        for (const std::uint64_t b : words) {
            for (const Carry in : {Carry{0}, Carry{1}}) {
                std::uint64_t generic = 0, x86 = 0;
                ASSERT_EQ(adc_generic(in, a, b, generic), adc_x86(in, a, b, x86))
                    << a << " + " << b << " + " << int{in};
                ASSERT_EQ(generic, x86) << a << " + " << b << " + " << int{in};
                ASSERT_EQ(sbb_generic(in, a, b, generic), sbb_x86(in, a, b, x86))
                    << a << " - " << b << " - " << int{in};
                ASSERT_EQ(generic, x86) << a << " - " << b << " - " << int{in};
            }
        }
    }
}
#endif

TEST(U256Test, BitLengthAndShifts) {
    EXPECT_EQ(U256::zero().bit_length(), 0);
    EXPECT_EQ(U256::one().bit_length(), 1);
    U256 v = U256::one();
    for (int i = 0; i < 200; ++i) v = shl1(v);
    EXPECT_EQ(v.bit_length(), 201);
    for (int i = 0; i < 200; ++i) v = shr1(v);
    EXPECT_EQ(v, U256::one());
}

TEST(U256Test, CompareOrdersLexicographically) {
    const U256 small = U256::from_hex("01");
    const U256 big = U256::from_hex("0100000000000000000000000000000000");
    EXPECT_LT(cmp(small, big), 0);
    EXPECT_GT(cmp(big, small), 0);
    EXPECT_EQ(cmp(big, big), 0);
}

// ---------------------------------------------------------------- Montgomery

TEST(MontgomeryTest, RoundTripThroughDomain) {
    const Montgomery& fp = P256::instance().field();
    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        Bytes raw = rng.bytes(32);
        raw[0] = 0;  // keep below the modulus
        const U256 a = U256::from_be_bytes(raw);
        EXPECT_EQ(fp.from_mont(fp.to_mont(a)), a);
    }
}

TEST(MontgomeryTest, MulMatchesSmallIntegers) {
    const Montgomery& fp = P256::instance().field();
    const U256 a = fp.to_mont(U256::from_u64(123456789));
    const U256 b = fp.to_mont(U256::from_u64(987654321));
    const U256 prod = fp.from_mont(fp.mul(a, b));
    EXPECT_EQ(prod, U256::from_u64(123456789ULL * 987654321ULL));
}

// Fermat inv on both P-256 moduli (field prime and group order), across
// seeded random inputs and the edge shapes where inversion code
// historically breaks: 1, n-1, and every power of two.
TEST(MontgomeryTest, InverseTimesSelfIsOne) {
    const P256& curve = P256::instance();
    Rng rng(41);
    for (const Montgomery* m : {&curve.field(), &curve.order()}) {
        std::vector<U256> inputs;
        for (int i = 0; i < 512; ++i) {
            Bytes raw = rng.bytes(32);
            const U256 a = m->reduce(U256::from_be_bytes(raw));
            if (!a.is_zero()) inputs.push_back(a);
        }
        U256 nm1;
        sub(nm1, m->modulus(), U256::one());
        inputs.push_back(U256::one());
        inputs.push_back(nm1);
        for (unsigned k = 0; k < 256; ++k) {
            U256 p{};
            p.w[k / 64] = std::uint64_t{1} << (k % 64);
            inputs.push_back(p);
        }
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const U256 am = m->to_mont(inputs[i]);
            ASSERT_EQ(m->from_mont(m->mul(am, m->inv(am))), U256::one()) << "input " << i;
        }
        // 0 has no inverse; Fermat's 0^(n-2) gives 0.
        EXPECT_EQ(m->inv(U256{}), U256{});
    }
}

// ---- Montgomery against the independent 32-bit-limb FieldReference ------

// The P-256 prime and group order, written out independently of P256.
constexpr FieldWords kP256Prime = {0xffffffff, 0xffffffff, 0xffffffff, 0,
                                   0,          0,          1,          0xffffffff};
constexpr FieldWords kP256Order = {0xfc632551, 0xf3b9cac2, 0xa7179e84, 0xbce6faad,
                                   0xffffffff, 0xffffffff, 0,          0xffffffff};

/// 0, 1, m - 1, m - 2, 2^255, values whose limbs are 0 or 2^64 - 1, so
/// carries and borrows ripple across one to four limbs, and the shapes that
/// drive the P-256 reduction's shifted m*p terms: R mod m, R^2 mod m,
/// 2^224, 2^96 - 1 and (2^32 - 1) * 2^64k.
std::vector<U256> edge_operands(const U256& m) {
    std::vector<U256> out = {U256::zero(), U256::one()};
    U256 v;
    sub(v, m, U256::one());
    out.push_back(v);
    sub(v, m, U256::from_u64(2));
    out.push_back(v);
    out.push_back(U256{{0, 0, 0, 1ULL << 63}});
    for (std::size_t k = 1; k <= 4; ++k) {
        U256 low{}, high{};
        for (std::size_t i = 0; i < 4; ++i) (i < k ? low : high).w[i] = kOnes;
        out.push_back(low);   // 2^64k - 1
        if (k < 4) out.push_back(high);  // 2^256 - 2^64k
    }
    out.push_back(U256{{kOnes, 0, kOnes, 0}});
    out.push_back(U256{{0, kOnes, 0, kOnes}});
    U256 r_mod_m;
    sub(r_mod_m, U256::zero(), m);  // 2^256 - m, below m since m > 2^255
    out.push_back(r_mod_m);
    const FieldReference ref(to_field_words(m));
    out.push_back(from_field_words(ref.to_mont(to_field_words(r_mod_m))));  // R^2 mod m
    out.push_back(U256{{0, 0, 0, 1ULL << 32}});       // 2^224
    out.push_back(U256{{kOnes, 0xffffffff, 0, 0}});   // 2^96 - 1
    for (std::size_t k = 0; k < 4; ++k) {
        U256 shifted{};
        shifted.w[k] = 0xffffffff;  // (2^32 - 1) * 2^64k
        out.push_back(shifted);
    }
    return out;
}

void expect_matches_field_reference(const Montgomery& m, const FieldWords& modulus,
                                    std::uint64_t seed) {
    const FieldReference ref(modulus);
    ASSERT_EQ(to_field_words(m.modulus()), modulus);

    // reduce() takes any 256-bit value; the rest take values below m,
    // which the reference's own reduction supplies.
    constexpr std::size_t kRandomOperands = 4096;
    constexpr std::size_t kCrossedRandoms = 48;  // paired with every edge operand
    std::vector<U256> raw = edge_operands(m.modulus());
    const std::size_t edges = raw.size();
    Rng rng(seed);
    for (std::size_t i = 0; i < kRandomOperands; ++i) {
        U256 v;
        for (auto& limb : v.w) limb = rng.next_u64();
        raw.push_back(v);
    }
    std::vector<U256> operands;
    for (const U256& v : raw) {
        const FieldWords reduced = ref.reduce(to_field_words(v));
        ASSERT_EQ(to_field_words(m.reduce(v)), reduced) << "reduce " << v.w[0];
        operands.push_back(from_field_words(reduced));
    }
    for (const U256& a : operands) {
        ASSERT_EQ(to_field_words(m.to_mont(a)), ref.to_mont(to_field_words(a)))
            << "to_mont " << a.w[0];
        ASSERT_EQ(to_field_words(m.from_mont(a)), ref.from_mont(to_field_words(a)))
            << "from_mont " << a.w[0];
    }
    // Every edge operand with every edge operand and the first random
    // ones, both ways round, then every consecutive random pair.
    auto check_pair = [&](const U256& a, const U256& b) {
        const FieldWords aw = to_field_words(a), bw = to_field_words(b);
        ASSERT_EQ(to_field_words(m.mul(a, b)), ref.mont_mul(aw, bw))
            << "mul " << a.w[0] << " " << b.w[0];
        ASSERT_EQ(to_field_words(m.add(a, b)), ref.add(aw, bw))
            << "add " << a.w[0] << " " << b.w[0];
        ASSERT_EQ(to_field_words(m.sub(a, b)), ref.sub(aw, bw))
            << "sub " << a.w[0] << " " << b.w[0];
    };
    for (std::size_t i = 0; i < edges; ++i) {
        for (std::size_t j = 0; j < edges + kCrossedRandoms; ++j) {
            check_pair(operands[i], operands[j]);
            if (j >= edges) check_pair(operands[j], operands[i]);
        }
    }
    for (std::size_t i = edges; i + 1 < operands.size(); ++i) {
        check_pair(operands[i], operands[i + 1]);
    }
}

TEST(MontgomeryTest, FieldPrimeMatchesFieldReference) {
    expect_matches_field_reference(P256::instance().field(), kP256Prime, 0xF1E1D);
}

TEST(MontgomeryTest, GroupOrderMatchesFieldReference) {
    expect_matches_field_reference(P256::instance().order(), kP256Order, 0x0DE2);
}

TEST(MontgomeryTest, PrimeLookalikeTakesTheGenericReduction) {
    // p + 2^128 is odd, above 2^255 and -1 mod 2^64 like p (so n0 = 1), but
    // it is not p: the reduction specialised to p's shape must not serve it.
    FieldWords lookalike = kP256Prime;
    lookalike[4] = 1;
    const Montgomery m(from_field_words(lookalike));
    expect_matches_field_reference(m, lookalike, 0x100C);
}

TEST(MontgomeryTest, FieldReferenceMatchesSmallIntegers) {
    // The reference's own anchor: plain integer arithmetic on small values.
    const FieldReference ref(kP256Prime);
    const FieldWords a = {123456789}, b = {987654321};
    const std::uint64_t prod = 123456789ULL * 987654321ULL;
    EXPECT_EQ(ref.mul(a, b), (FieldWords{static_cast<std::uint32_t>(prod),
                                        static_cast<std::uint32_t>(prod >> 32)}));
    EXPECT_EQ(ref.add(a, b), (FieldWords{123456789 + 987654321}));
    EXPECT_EQ(ref.sub(b, a), (FieldWords{987654321 - 123456789}));
    EXPECT_EQ(ref.mont_mul(ref.to_mont(a), ref.to_mont(b)), ref.to_mont(ref.mul(a, b)));
    EXPECT_EQ(ref.from_mont(ref.to_mont(a)), a);
    FieldWords p_minus_1 = kP256Prime;
    p_minus_1[0] -= 1;
    EXPECT_EQ(ref.sub(FieldWords{}, FieldWords{1}), p_minus_1);
    EXPECT_EQ(ref.add(p_minus_1, FieldWords{1}), FieldWords{});
}

TEST(MontgomeryTest, PowMatchesRepeatedMul) {
    const Montgomery& fp = P256::instance().field();
    const U256 a = fp.to_mont(U256::from_u64(7));
    U256 expected = fp.one();
    for (int i = 0; i < 13; ++i) expected = fp.mul(expected, a);
    EXPECT_EQ(fp.pow(a, U256::from_u64(13)), expected);
}

TEST(MontgomeryTest, AddSubInverse) {
    const Montgomery& fn = P256::instance().order();
    Rng rng(9);
    for (int i = 0; i < 10; ++i) {
        Bytes ra = rng.bytes(32);
        Bytes rb = rng.bytes(32);
        ra[0] = rb[0] = 0;
        const U256 a = U256::from_be_bytes(ra);
        const U256 b = U256::from_be_bytes(rb);
        EXPECT_EQ(fn.sub(fn.add(a, b), b), a);
    }
}

// ---------------------------------------------------------------- P-256

TEST(P256Test, GeneratorIsOnCurve) {
    EXPECT_TRUE(P256::instance().on_curve(P256::instance().generator()));
}

TEST(P256Test, OffCurvePointRejected) {
    AffinePoint p = P256::instance().generator();
    U256 bump;
    add(bump, p.y, U256::one());
    p.y = bump;
    EXPECT_FALSE(P256::instance().on_curve(p));
}

TEST(P256Test, KnownScalarMultiple) {
    // 2*G for P-256 (public test vector).
    const auto p2 = P256::instance().mul_base(U256::from_u64(2));
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(hex_of(p2->x.to_be_bytes()),
              "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
    EXPECT_EQ(hex_of(p2->y.to_be_bytes()),
              "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(P256Test, ScalarMulResultsStayOnCurve) {
    const P256& curve = P256::instance();
    Rng rng(13);
    for (int i = 0; i < 5; ++i) {
        Bytes raw = rng.bytes(32);
        raw[0] = 0;
        const U256 k = U256::from_be_bytes(raw);
        const auto p = curve.mul_base(k);
        ASSERT_TRUE(p.has_value());
        EXPECT_TRUE(curve.on_curve(*p));
    }
}

TEST(P256Test, MulByOrderGivesInfinity) {
    EXPECT_FALSE(P256::instance().mul_base(P256::instance().n()).has_value());
}

TEST(P256Test, GroupLawDistributes) {
    // (a+b)*G == a*G + b*G, exercised via mul_add with P = G:
    // u1*G + u2*G == (u1+u2)*G.
    const P256& curve = P256::instance();
    const U256 a = U256::from_u64(1234567);
    const U256 b = U256::from_u64(7654321);
    const auto lhs = curve.mul_add(a, b, curve.precompute(curve.generator()));
    const auto rhs = curve.mul_base(U256::from_u64(1234567 + 7654321));
    ASSERT_TRUE(lhs.has_value());
    ASSERT_TRUE(rhs.has_value());
    EXPECT_EQ(lhs->x, rhs->x);
    EXPECT_EQ(lhs->y, rhs->y);
}

// ---------------------------------------------------------------- ECDSA

// RFC 6979 A.2.5: P-256 + SHA-256 known-answer vectors.
const char* kRfc6979Priv = "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721";
const char* kRfc6979PubX = "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6";
const char* kRfc6979PubY = "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299";

PrivateKey rfc6979_key() {
    auto raw = hex_decode(kRfc6979Priv);
    auto key = PrivateKey::from_bytes(*raw);
    return *key;
}

TEST(EcdsaTest, PublicKeyDerivationMatchesRfc6979) {
    const PublicKey pub = rfc6979_key().public_key();
    EXPECT_EQ(hex_of(pub.point().x.to_be_bytes()), kRfc6979PubX);
    EXPECT_EQ(hex_of(pub.point().y.to_be_bytes()), kRfc6979PubY);
}

TEST(EcdsaTest, Rfc6979NonceForSample) {
    const auto digest = Sha256::digest(to_bytes("sample"));
    const U256 k = rfc6979_nonce(rfc6979_key().scalar(), digest);
    EXPECT_EQ(hex_of(k.to_be_bytes()),
              "a6e3c57dd01abe90086538398355dd4c3b17aa873382b0f24d6129493d8aad60");
}

TEST(EcdsaTest, Rfc6979SignatureForSample) {
    const auto digest = Sha256::digest(to_bytes("sample"));
    const Signature sig = ecdsa_sign(rfc6979_key(), digest);
    EXPECT_EQ(hex_of(ByteSpan(sig.data(), 32)),
              "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
    EXPECT_EQ(hex_of(ByteSpan(sig.data() + 32, 32)),
              "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
}

TEST(EcdsaTest, Rfc6979SignatureForTest) {
    const auto digest = Sha256::digest(to_bytes("test"));
    const Signature sig = ecdsa_sign(rfc6979_key(), digest);
    EXPECT_EQ(hex_of(ByteSpan(sig.data(), 32)),
              "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367");
    EXPECT_EQ(hex_of(ByteSpan(sig.data() + 32, 32)),
              "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083");
}

TEST(EcdsaTest, SignVerifyRoundTrip) {
    const PrivateKey key = PrivateKey::generate(to_bytes("roundtrip-seed"));
    const auto digest = Sha256::digest(to_bytes("the firmware image"));
    const Signature sig = ecdsa_sign(key, digest);
    EXPECT_TRUE(ecdsa_verify(PreparedPublicKey(key.public_key()), digest, sig));
}

TEST(EcdsaTest, WrongDigestRejected) {
    const PrivateKey key = PrivateKey::generate(to_bytes("seed-x"));
    const Signature sig = ecdsa_sign(key, Sha256::digest(to_bytes("msg-a")));
    EXPECT_FALSE(ecdsa_verify(PreparedPublicKey(key.public_key()),
                              Sha256::digest(to_bytes("msg-b")), sig));
}

TEST(EcdsaTest, WrongKeyRejected) {
    const PrivateKey key_a = PrivateKey::generate(to_bytes("seed-a"));
    const PrivateKey key_b = PrivateKey::generate(to_bytes("seed-b"));
    const auto digest = Sha256::digest(to_bytes("msg"));
    const Signature sig = ecdsa_sign(key_a, digest);
    EXPECT_FALSE(ecdsa_verify(PreparedPublicKey(key_b.public_key()), digest, sig));
}

TEST(EcdsaTest, EveryByteFlipInSignatureRejected) {
    const PrivateKey key = PrivateKey::generate(to_bytes("tamper-seed"));
    const auto digest = Sha256::digest(to_bytes("msg"));
    const Signature sig = ecdsa_sign(key, digest);
    const PreparedPublicKey pub(key.public_key());
    for (std::size_t i = 0; i < sig.size(); ++i) {
        Signature bad = sig;
        bad[i] ^= 0x80;
        EXPECT_FALSE(ecdsa_verify(pub, digest, bad)) << "byte " << i;
    }
}

TEST(EcdsaTest, MalformedSignaturesRejected) {
    const PrivateKey key = PrivateKey::generate(to_bytes("seed"));
    const auto digest = Sha256::digest(to_bytes("msg"));
    const PreparedPublicKey pub(key.public_key());
    EXPECT_FALSE(ecdsa_verify(pub, digest, Bytes{}));            // empty
    EXPECT_FALSE(ecdsa_verify(pub, digest, Bytes(63, 0xAA)));    // short
    EXPECT_FALSE(ecdsa_verify(pub, digest, Bytes(65, 0xAA)));    // long
    EXPECT_FALSE(ecdsa_verify(pub, digest, Bytes(64, 0x00)));    // r = s = 0
    EXPECT_FALSE(ecdsa_verify(pub, digest, Bytes(64, 0xFF)));    // r, s >= n
}

TEST(EcdsaTest, PrivateKeyRangeValidation) {
    EXPECT_FALSE(PrivateKey::from_bytes(Bytes(32, 0x00)).has_value());  // zero
    EXPECT_FALSE(PrivateKey::from_bytes(Bytes(32, 0xFF)).has_value());  // >= n
    EXPECT_FALSE(PrivateKey::from_bytes(Bytes(31, 0x01)).has_value());  // short
    Bytes one(32, 0x00);
    one[31] = 1;
    EXPECT_TRUE(PrivateKey::from_bytes(one).has_value());
}

TEST(EcdsaTest, PublicKeyValidationRejectsOffCurve) {
    Bytes raw(64, 0x01);
    EXPECT_FALSE(PublicKey::from_bytes(raw).has_value());
    const PublicKey good = PrivateKey::generate(to_bytes("k")).public_key();
    auto bytes = good.to_bytes();
    EXPECT_TRUE(PublicKey::from_bytes(bytes).has_value());
    bytes[5] ^= 0x40;
    EXPECT_FALSE(PublicKey::from_bytes(bytes).has_value());
}

TEST(EcdsaTest, UnsetKeyVerifiesNoForgery) {
    // PublicKey{} is (0, 0), off the curve: what a device holds when its
    // trust anchors were never provisioned. A wNAF table built for it makes
    // u2*P vanish or degenerate, so r = x(k*G), s = z/k could verify for any
    // digest z. The prepared key must refuse to build one and fail closed.
    const PreparedPublicKey unset{PublicKey{}};
    EXPECT_FALSE(unset.valid());
    const P256& curve = P256::instance();
    const Montgomery& fn = curve.order();
    const Sha256Digest digest = Sha256::digest(to_bytes("any firmware at all"));
    const U256 z = fn.reduce(U256::from_be_bytes(digest));
    for (std::uint64_t k = 2; k < 34; ++k) {
        const U256 r = fn.reduce(curve.mul_base(U256::from_u64(k))->x);
        const U256 s =
            fn.from_mont(fn.mul(fn.to_mont(z), fn.inv(fn.to_mont(U256::from_u64(k)))));
        Signature forged{};
        r.to_be_bytes(MutByteSpan(forged.data(), 32));
        s.to_be_bytes(MutByteSpan(forged.data() + 32, 32));
        EXPECT_FALSE(ecdsa_verify(unset, digest, forged)) << "k = " << k;
    }
}

class EcdsaSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(EcdsaSeedSweep, RoundTripAcrossKeys) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const Bytes seed = rng.bytes(32);
    const PrivateKey key = PrivateKey::generate(seed);
    const Bytes msg = rng.bytes(100 + static_cast<std::size_t>(GetParam()) * 7);
    const auto digest = Sha256::digest(msg);
    const Signature sig = ecdsa_sign(key, digest);
    EXPECT_TRUE(ecdsa_verify(PreparedPublicKey(key.public_key()), digest, sig));
}

INSTANTIATE_TEST_SUITE_P(Keys, EcdsaSeedSweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------- Backends

TEST(BackendTest, SoftwareBackendsVerifyEachOthersSignatures) {
    const auto tinydtls = make_tinydtls_backend();
    const auto tinycrypt = make_tinycrypt_backend();
    const PrivateKey key = PrivateKey::generate(to_bytes("interop"));
    const auto digest = Sha256::digest(to_bytes("firmware"));
    const auto sig = tinydtls->sign(key, digest);
    ASSERT_TRUE(sig.has_value());
    EXPECT_TRUE(tinycrypt->verify(PreparedPublicKey(key.public_key()), digest, *sig));
}

TEST(BackendTest, CostProfilesDiffer) {
    const auto tinydtls = make_tinydtls_backend();
    const auto tinycrypt = make_tinycrypt_backend();
    // tinycrypt trades flash for speed (paper Table I discussion).
    EXPECT_LT(tinycrypt->costs().verify_seconds, tinydtls->costs().verify_seconds);
}

TEST(HsmTest, ProvisionLockAndVerify) {
    auto hsm = std::make_shared<Atecc508>();
    const PrivateKey key = PrivateKey::generate(to_bytes("vendor"));
    const PreparedPublicKey pub(key.public_key());
    ASSERT_EQ(hsm->provision(0, pub), Status::kOk);
    hsm->lock();

    const auto backend = make_cryptoauthlib_backend(hsm);
    const auto digest = Sha256::digest(to_bytes("fw"));
    const Signature sig = ecdsa_sign(key, digest);
    EXPECT_TRUE(backend->verify(pub, digest, sig));
    EXPECT_EQ(hsm->verify_count(), 1u);
}

TEST(HsmTest, LockedSlotsAreImmutable) {
    Atecc508 hsm;
    const PublicKey a = PrivateKey::generate(to_bytes("a")).public_key();
    const PublicKey b = PrivateKey::generate(to_bytes("b")).public_key();
    ASSERT_EQ(hsm.provision(1, PreparedPublicKey(a)), Status::kOk);
    hsm.lock();
    EXPECT_EQ(hsm.provision(1, PreparedPublicKey(b)), Status::kHsmError);
    EXPECT_TRUE(hsm.key_in_slot(1).has_value());
    EXPECT_TRUE(*hsm.key_in_slot(1) == a);
}

TEST(HsmTest, UnprovisionedKeyCannotVerify) {
    auto hsm = std::make_shared<Atecc508>();
    const auto backend = make_cryptoauthlib_backend(hsm);
    const PrivateKey rogue = PrivateKey::generate(to_bytes("rogue"));
    const auto digest = Sha256::digest(to_bytes("fw"));
    const Signature sig = ecdsa_sign(rogue, digest);
    // Valid signature, but the key is not in the HSM: verification must
    // fail — an attacker cannot substitute their own key.
    EXPECT_FALSE(backend->verify(PreparedPublicKey(rogue.public_key()), digest, sig));
}

TEST(HsmTest, SlotBoundsChecked) {
    Atecc508 hsm;
    const PreparedPublicKey k(PrivateKey::generate(to_bytes("k")).public_key());
    EXPECT_EQ(hsm.provision(Atecc508::kKeySlots, k), Status::kOutOfRange);
    EXPECT_FALSE(hsm.key_in_slot(99).has_value());
}

TEST(HsmTest, SigningUnsupportedOnDevice) {
    auto backend = make_cryptoauthlib_backend(std::make_shared<Atecc508>());
    const PrivateKey key = PrivateKey::generate(to_bytes("k"));
    EXPECT_EQ(backend->sign(key, Sha256::digest(to_bytes("m"))).status(),
              Status::kUnimplemented);
}

// ---------------------------------------------------------------- hex utils

TEST(HexTest, RoundTrip) {
    Rng rng(1);
    const Bytes data = rng.bytes(33);
    const auto decoded = hex_decode(hex_encode(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
}

TEST(HexTest, RejectsBadInput) {
    EXPECT_FALSE(hex_decode("abc").has_value());   // odd length
    EXPECT_FALSE(hex_decode("zz").has_value());    // bad digit
    EXPECT_TRUE(hex_decode("AB cd").has_value());  // mixed case + space ok
}

TEST(CtEqualTest, Basics) {
    EXPECT_TRUE(ct_equal(to_bytes("abc"), to_bytes("abc")));
    EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("abd")));
    EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("ab")));
    EXPECT_TRUE(ct_equal({}, {}));
}

}  // namespace
}  // namespace upkit::crypto
