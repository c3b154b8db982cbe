#include "posit/arith.hpp"

#include "posit/unpacked.hpp"

namespace pdnn::posit {

namespace {

using u128 = unsigned __int128;

/// Magnitude-ordered operand pair: `big` has the larger (scale, sig).
struct Ordered {
  const Decoded* big;
  const Decoded* small;
  bool swapped;
};

Ordered order_by_magnitude(const Decoded& a, const Decoded& b) {
  const bool b_bigger = (b.scale > a.scale) || (b.scale == a.scale && b.sig > a.sig);
  return b_bigger ? Ordered{&b, &a, true} : Ordered{&a, &b, false};
}

/// Core signed addition of two decoded non-zero posits.
std::uint32_t add_decoded(const Decoded& a, const Decoded& b, const PositSpec& spec, RoundMode mode,
                          RoundingRng* rng) {
  const Ordered ord = order_by_magnitude(a, b);
  const Decoded& hi = *ord.big;
  const Decoded& lo = *ord.small;

  // Work with three guard bits: hidden bit moves from 62 to 65. The sticky
  // flag is folded into bit 0, which is always below the rounding position;
  // cancellation of 2+ leading bits only happens when the scale difference is
  // <= 1, in which case no sticky bit was set and the subtraction is exact.
  const u128 hi_sig = static_cast<u128>(hi.sig) << 3;
  u128 lo_sig;
  const long diff = static_cast<long>(hi.scale) - lo.scale;
  if (diff >= 67) {
    lo_sig = 1;  // pure sticky
  } else {
    const u128 full = static_cast<u128>(lo.sig) << 3;
    lo_sig = full >> diff;
    if (diff > 0 && (full & ((static_cast<u128>(1) << diff) - 1)) != 0) lo_sig |= 1;
  }

  const bool same_sign = hi.neg == lo.neg;
  u128 sum;
  if (same_sign) {
    sum = hi_sig + lo_sig;
  } else {
    sum = hi_sig - lo_sig;
    if (sum == 0) return 0u;  // exact cancellation
  }

  // Normalize: locate the hidden bit (sum != 0 here).
  const auto sum_hi = static_cast<std::uint64_t>(sum >> 64);
  const int msb = sum_hi != 0 ? 127 - __builtin_clzll(sum_hi)
                              : 63 - __builtin_clzll(static_cast<std::uint64_t>(sum));
  const long scale = hi.scale + (msb - 65);
  return round_pack(spec, hi.neg, scale, sum, msb, false, mode, rng);
}

}  // namespace

std::uint32_t add(std::uint32_t a, std::uint32_t b, const PositSpec& spec, RoundMode mode, RoundingRng* rng) {
  const Decoded da = decode(a, spec);
  const Decoded db = decode(b, spec);
  if (da.is_nar || db.is_nar) return spec.nar_code();
  if (da.is_zero) return b & spec.mask();
  if (db.is_zero) return a & spec.mask();
  return add_decoded(da, db, spec, mode, rng);
}

std::uint32_t sub(std::uint32_t a, std::uint32_t b, const PositSpec& spec, RoundMode mode, RoundingRng* rng) {
  return add(a, neg(b, spec), spec, mode, rng);
}

std::uint32_t mul(std::uint32_t a, std::uint32_t b, const PositSpec& spec, RoundMode mode, RoundingRng* rng) {
  const Decoded da = decode(a, spec);
  const Decoded db = decode(b, spec);
  if (da.is_nar || db.is_nar) return spec.nar_code();
  if (da.is_zero || db.is_zero) return 0u;
  const u128 product = static_cast<u128>(da.sig) * db.sig;  // in [2^124, 2^126)
  const int msb = ((product >> 125) & 1) ? 125 : 124;
  const long scale = static_cast<long>(da.scale) + db.scale + (msb - 124);
  return round_pack(spec, da.neg != db.neg, scale, product, msb, false, mode, rng);
}

std::uint32_t div(std::uint32_t a, std::uint32_t b, const PositSpec& spec, RoundMode mode, RoundingRng* rng) {
  const Decoded da = decode(a, spec);
  const Decoded db = decode(b, spec);
  if (da.is_nar || db.is_nar || db.is_zero) return spec.nar_code();
  if (da.is_zero) return 0u;
  const u128 numerator = static_cast<u128>(da.sig) << 64;
  const u128 quotient = numerator / db.sig;  // in (2^63, 2^65)
  const bool sticky = (numerator % db.sig) != 0;
  const int msb = ((quotient >> 64) & 1) ? 64 : 63;
  const long scale = static_cast<long>(da.scale) - db.scale + (msb - 64);
  return round_pack(spec, da.neg != db.neg, scale, quotient, msb, sticky, mode, rng);
}

std::uint32_t neg(std::uint32_t a, const PositSpec& spec) {
  a &= spec.mask();
  if (a == 0 || a == spec.nar_code()) return a;  // -0 = 0, -NaR = NaR
  return (~a + 1u) & spec.mask();
}

std::uint32_t abs(std::uint32_t a, const PositSpec& spec) {
  a &= spec.mask();
  return (a & spec.sign_bit()) && a != spec.nar_code() ? neg(a, spec) : a;
}

std::uint32_t fma(std::uint32_t a, std::uint32_t b, std::uint32_t c, const PositSpec& spec, RoundMode mode,
                  RoundingRng* rng) {
  const Decoded da = decode(a, spec);
  const Decoded db = decode(b, spec);
  const Decoded dc = decode(c, spec);
  if (da.is_nar || db.is_nar || dc.is_nar) return spec.nar_code();
  if (da.is_zero || db.is_zero) return c & spec.mask();

  // Exact product. Operand significands carry at most 29 fraction bits each
  // (n <= 32), so the 128-bit product has >= 66 trailing zero bits; reducing
  // the hidden bit back to position 62 is therefore exact and the sum inherits
  // full single-rounding (fused) semantics from add_decoded.
  const u128 product = static_cast<u128>(da.sig) * db.sig;  // in [2^124, 2^126)
  const int msb = ((product >> 125) & 1) ? 125 : 124;
  const long pscale = static_cast<long>(da.scale) + db.scale + (msb - 124);
  if (dc.is_zero) {
    return round_pack(spec, da.neg != db.neg, pscale, product, msb, false, mode, rng);
  }
  Decoded dp;
  dp.neg = da.neg != db.neg;
  dp.scale = static_cast<int>(pscale);
  dp.sig = static_cast<std::uint64_t>(product >> (msb - 62));
  return add_decoded(dp, dc, spec, mode, rng);
}

// ---------------------------------------------------------------------------
// Decode-once overloads (operands already unpacked; see unpacked.hpp). These
// reproduce the coded paths above on pre-decoded fields: the reduced
// significand product equals the full 128-bit product shifted right by its
// (all-zero) trailing bits, so round_pack sees the same value with the same
// sticky state and emits the same code.
// ---------------------------------------------------------------------------

std::uint32_t mul(const Unpacked& a, const Unpacked& b, const PositSpec& spec, RoundMode mode,
                  RoundingRng* rng) {
  if (a.is_nar() || b.is_nar()) return spec.nar_code();
  if (a.is_zero() || b.is_zero()) return 0u;
  const std::uint64_t product = static_cast<std::uint64_t>(a.sig) * b.sig;  // <= 60 bits
  const int msb = 63 - __builtin_clzll(product);
  const long scale = static_cast<long>(a.lsb_weight) + b.lsb_weight + msb;
  return round_pack(spec, a.neg != b.neg, scale, product, msb, false, mode, rng);
}

std::uint32_t fma(const Unpacked& a, const Unpacked& b, std::uint32_t c, const PositSpec& spec,
                  RoundMode mode, RoundingRng* rng) {
  const Decoded dc = decode(c, spec);
  if (a.is_nar() || b.is_nar() || dc.is_nar) return spec.nar_code();
  if (a.is_zero() || b.is_zero()) return c & spec.mask();
  const std::uint64_t product = static_cast<std::uint64_t>(a.sig) * b.sig;
  const int msb = 63 - __builtin_clzll(product);
  const long pscale = static_cast<long>(a.lsb_weight) + b.lsb_weight + msb;
  if (dc.is_zero) {
    return round_pack(spec, a.neg != b.neg, pscale, product, msb, false, mode, rng);
  }
  // Same Decoded product the coded fma builds: hidden bit restored to 62
  // (exact — only zero bits are shifted in).
  Decoded dp;
  dp.neg = a.neg != b.neg;
  dp.scale = static_cast<int>(pscale);
  dp.sig = product << (62 - msb);
  return add_decoded(dp, dc, spec, mode, rng);
}

int compare(std::uint32_t a, std::uint32_t b, const PositSpec& spec) {
  const std::int32_t sa = sign_extend(a, spec);
  const std::int32_t sb = sign_extend(b, spec);
  return sa < sb ? -1 : (sa > sb ? 1 : 0);
}

}  // namespace pdnn::posit
