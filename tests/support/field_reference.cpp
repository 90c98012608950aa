#include "support/oracles.hpp"

namespace upkit::crypto {

namespace {

// One word of headroom above the modulus: r < m becomes 2r < 2^257.
using Acc = std::array<std::uint32_t, 9>;

Acc widen(const FieldWords& a) {
    Acc r{};
    for (std::size_t i = 0; i < 8; ++i) r[i] = a[i];
    return r;
}

FieldWords narrow(const Acc& r) {
    FieldWords out{};
    for (std::size_t i = 0; i < 8; ++i) out[i] = r[i];
    return out;
}

bool at_least(const Acc& r, const Acc& m) {
    for (std::size_t i = r.size(); i-- > 0;) {
        if (r[i] != m[i]) return r[i] > m[i];
    }
    return true;
}

void add_into(Acc& r, const Acc& b) {
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < r.size(); ++i) {
        const std::uint64_t t = std::uint64_t{r[i]} + b[i] + carry;
        r[i] = static_cast<std::uint32_t>(t);
        carry = t >> 32;
    }
}

void sub_from(Acc& r, const Acc& b) {
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < r.size(); ++i) {
        const std::uint64_t t = std::uint64_t{r[i]} - b[i] - borrow;
        r[i] = static_cast<std::uint32_t>(t);
        borrow = t >> 63;
    }
}

}  // namespace

FieldWords FieldReference::mod(const std::uint32_t* x, std::size_t words) const {
    // Long division one bit at a time from the top: r = 2r + bit, less m
    // once if that reaches m. r < m holds throughout.
    const Acc m = widen(m_);
    Acc r{};
    for (std::size_t bit = 32 * words; bit-- > 0;) {
        std::uint32_t in = (x[bit / 32] >> (bit % 32)) & 1;
        for (auto& word : r) {
            const std::uint32_t out = word >> 31;
            word = (word << 1) | in;
            in = out;
        }
        if (at_least(r, m)) sub_from(r, m);
    }
    return narrow(r);
}

FieldWords FieldReference::reduce(const FieldWords& a) const { return mod(a.data(), a.size()); }

FieldWords FieldReference::mul(const FieldWords& a, const FieldWords& b) const {
    std::array<std::uint32_t, 16> product{};
    for (std::size_t i = 0; i < 8; ++i) {
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < 8; ++j) {
            // (2^32 - 1)^2 + 2 (2^32 - 1) = 2^64 - 1: never overflows.
            const std::uint64_t t = std::uint64_t{a[i]} * b[j] + product[i + j] + carry;
            product[i + j] = static_cast<std::uint32_t>(t);
            carry = t >> 32;
        }
        product[i + 8] = static_cast<std::uint32_t>(carry);
    }
    return mod(product.data(), product.size());
}

FieldWords FieldReference::add(const FieldWords& a, const FieldWords& b) const {
    Acc sum = widen(a);
    add_into(sum, widen(b));
    return mod(sum.data(), sum.size());
}

FieldWords FieldReference::sub(const FieldWords& a, const FieldWords& b) const {
    // (a mod m) + m - (b mod m) lies in [1, 2m).
    Acc diff = widen(reduce(a));
    add_into(diff, widen(m_));
    sub_from(diff, widen(reduce(b)));
    return mod(diff.data(), diff.size());
}

FieldWords FieldReference::to_mont(const FieldWords& a) const {
    std::array<std::uint32_t, 16> shifted{};
    for (std::size_t i = 0; i < 8; ++i) shifted[i + 8] = a[i];
    return mod(shifted.data(), shifted.size());
}

FieldWords FieldReference::from_mont(const FieldWords& a) const {
    // 256 halvings mod m: an odd r becomes (r + m) / 2.
    const Acc m = widen(m_);
    Acc r = widen(reduce(a));
    for (int i = 0; i < 256; ++i) {
        if (r[0] & 1) add_into(r, m);
        for (std::size_t j = 0; j + 1 < r.size(); ++j) r[j] = (r[j] >> 1) | (r[j + 1] << 31);
        r[8] >>= 1;
    }
    return narrow(r);
}

}  // namespace upkit::crypto
