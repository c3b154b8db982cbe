#include "posit/codec.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace pdnn::posit {

double PositSpec::useed() const { return std::ldexp(1.0, 1 << es); }

namespace {

/// Floor division by a power of two (arithmetic shift semantics for negatives).
inline long floor_div_pow2(long value, int log2_div) {
  return value >> log2_div;  // arithmetic shift: floor for negative values
}

}  // namespace

Decoded decode(std::uint32_t code, const PositSpec& spec) {
  Decoded d;
  code &= spec.mask();
  if (code == 0) {
    d.is_zero = true;
    return d;
  }
  if (code == spec.nar_code()) {
    d.is_nar = true;
    return d;
  }
  d.neg = (code & spec.sign_bit()) != 0;
  std::uint32_t mag = d.neg ? ((~code + 1u) & spec.mask()) : code;

  const int body_bits = spec.n - 1;  // bits below the sign bit
  const std::uint32_t body = mag & (spec.sign_bit() - 1u);

  // Parse the regime: a run of identical bits starting at the MSB of the body,
  // terminated by the opposite bit (or by the end of the word). Aligned to
  // the top of the word the run is a leading-zero count, as in
  // decode_unpacked: the shifted-in zeros end an all-ones run (after
  // inversion) and body >= 1 ends an all-zeros run, so clz caps at body_bits.
  const std::uint32_t x = body << (32 - body_bits);
  const bool first = (x >> 31) != 0;
  const int run = first ? __builtin_clz(~x) : __builtin_clz(x);
  d.k = first ? (run - 1) : -run;

  // Exponent field: up to es bits. When fewer remain, the stored bits are the
  // HIGH bits of the exponent; missing low bits read as zero.
  const int after_regime = body_bits - run - 1;  // bits below the terminator
  const int remaining_after_regime = after_regime > 0 ? after_regime : 0;
  const int e_stored = remaining_after_regime < spec.es ? remaining_after_regime : spec.es;
  std::uint32_t e_bits = 0;
  if (e_stored > 0) {
    e_bits = (body >> (remaining_after_regime - e_stored)) & ((1u << e_stored) - 1u);
  }
  d.e = static_cast<int>(e_bits) << (spec.es - e_stored);

  // Fraction field: whatever is left.
  d.frac_width = remaining_after_regime - e_stored;
  d.frac = d.frac_width > 0 ? (body & ((1u << d.frac_width) - 1u)) : 0u;

  // k can be negative: scale by multiplication, not <<, which is UB on
  // negative operands.
  d.scale = d.k * (1 << spec.es) + d.e;
  // Significand with hidden bit at 62: (1 << fw | frac) << (62 - fw).
  d.sig = ((1ULL << d.frac_width) | static_cast<std::uint64_t>(d.frac)) << (62 - d.frac_width);
  return d;
}

std::uint32_t round_pack(const PositSpec& spec, bool neg, long scale, unsigned __int128 sig, int sig_bits,
                         bool sticky, RoundMode mode, RoundingRng* rng) {
  const int n = spec.n;
  const int es = spec.es;
  const std::uint32_t body_max = spec.sign_bit() - 1u;  // maxpos body (n-1 ones)

  auto finish = [&](std::uint32_t body) -> std::uint32_t {
    std::uint32_t code = body;  // sign bit is zero for the magnitude
    if (neg) code = (~code + 1u) & spec.mask();
    return code;
  };

  // Pre-reduce the significand to at most 62 fraction bits so the assembled
  // bit string fits comfortably in 128 bits (regime <= 31, es <= 6).
  if (sig_bits > 62) {
    const int drop = sig_bits - 62;
    const unsigned __int128 dropped = sig & ((static_cast<unsigned __int128>(1) << drop) - 1);
    if (dropped != 0) sticky = true;
    sig >>= drop;
    sig_bits = 62;
  }

  long k = floor_div_pow2(scale, es);
  const long e = scale - k * (1L << es);  // 0 <= e < 2^es (k may be negative: no <<)

  // Regime saturation. k == n-2 is representable only as maxpos itself.
  if (k >= spec.max_k()) return finish(body_max);
  if (k < spec.min_k()) return finish(spec.minpos_code());

  const int rb = k >= 0 ? static_cast<int>(k) + 2 : static_cast<int>(1 - k);
  const int target = n - 1;

  // Fast path (the engine's encode hot loop): when the regime and full
  // exponent field fit the body, only fraction bits are ever discarded, so
  // the whole assembly/round runs in 64-bit arithmetic. Discarded bits are
  // the low `shift` bits of `sig` (the hidden bit sits above them), making
  // guard/sticky direct masks — bit-identical to the 128-bit composition
  // below, which remains for truncated-exponent codes (rb + es > target).
  const int body_frac_bits = target - rb - es;
  if (body_frac_bits >= 0) {
    const auto sig64 = static_cast<std::uint64_t>(sig);  // sig_bits <= 62
    const std::uint64_t hi =
        ((k >= 0 ? ((1ULL << (k + 2)) - 2) : 1ULL) << es) | static_cast<std::uint64_t>(e);
    std::uint32_t body;
    if (sig_bits <= body_frac_bits) {
      const std::uint64_t frac_all = sig64 & ((1ULL << sig_bits) - 1);
      body = static_cast<std::uint32_t>(((hi << sig_bits) | frac_all) << (body_frac_bits - sig_bits));
      // No discarded bits inside the word; `sticky` alone never rounds up.
    } else {
      const int shift = sig_bits - body_frac_bits;
      const std::uint64_t discarded = sig64 & ((1ULL << shift) - 1);
      body = static_cast<std::uint32_t>((hi << body_frac_bits) | ((sig64 & ((1ULL << sig_bits) - 1)) >> shift));
      const bool guard = ((discarded >> (shift - 1)) & 1) != 0;
      const bool low_sticky = (discarded & ((1ULL << (shift - 1)) - 1)) != 0 || sticky;
      bool round_up = false;
      switch (mode) {
        case RoundMode::kNearestEven:
          round_up = guard && (low_sticky || (body & 1u));
          break;
        case RoundMode::kTowardZero:
          round_up = false;
          break;
        case RoundMode::kStochastic: {
          const int cmp_bits = shift > 63 ? 63 : shift;
          const std::uint64_t disc =
              (discarded >> (shift - cmp_bits)) + (sticky ? 1u : 0u);
          const std::uint64_t rnd = rng != nullptr ? (rng->next() >> (64 - cmp_bits)) : 0u;
          round_up = rnd < disc;
          break;
        }
      }
      if (round_up) {
        ++body;
        if (body > body_max) body = body_max;  // never round into NaR
      }
      if (body == 0) body = spec.minpos_code();  // never round a non-zero value to zero
    }
    return finish(body);
  }

  const unsigned __int128 regime_pattern =
      k >= 0 ? ((static_cast<unsigned __int128>(1) << (k + 2)) - 2)  // k+1 ones then a zero
             : static_cast<unsigned __int128>(1);                    // -k zeros then a one

  const unsigned __int128 frac_field = sig & ((static_cast<unsigned __int128>(1) << sig_bits) - 1);
  unsigned __int128 v = (regime_pattern << (es + sig_bits)) | (static_cast<unsigned __int128>(e) << sig_bits) |
                        frac_field;
  const int width = rb + es + sig_bits;

  std::uint32_t body;
  if (width <= target) {
    body = static_cast<std::uint32_t>(v << (target - width));
    // No discarded bits inside the word; `sticky` alone can never round up
    // under nearest (guard bit is zero) and never under toward-zero.
    if (mode == RoundMode::kStochastic && sticky && rng != nullptr) {
      // The true value sits an infinitesimal above the code; rounding up with
      // vanishing probability is approximated by never rounding up.
    }
  } else {
    const int shift = width - target;
    const unsigned __int128 discarded = v & ((static_cast<unsigned __int128>(1) << shift) - 1);
    body = static_cast<std::uint32_t>(v >> shift);
    const bool guard = ((discarded >> (shift - 1)) & 1) != 0;
    const bool low_sticky = (discarded & ((static_cast<unsigned __int128>(1) << (shift - 1)) - 1)) != 0 || sticky;

    bool round_up = false;
    switch (mode) {
      case RoundMode::kNearestEven:
        round_up = guard && (low_sticky || (body & 1u));
        break;
      case RoundMode::kTowardZero:
        round_up = false;
        break;
      case RoundMode::kStochastic: {
        // Round up with probability discarded / 2^shift (sticky adds an
        // epsilon which we fold in as +1 on the discarded value).
        const int cmp_bits = shift > 63 ? 63 : shift;
        const std::uint64_t disc = static_cast<std::uint64_t>(discarded >> (shift - cmp_bits)) +
                                   (sticky ? 1u : 0u);
        const std::uint64_t rnd = rng != nullptr ? (rng->next() >> (64 - cmp_bits)) : 0u;
        round_up = rnd < disc;
        break;
      }
    }
    if (round_up) {
      ++body;
      if (body > body_max) body = body_max;  // never round into NaR
    }
    if (body == 0) body = spec.minpos_code();  // never round a non-zero value to zero
  }
  return finish(body);
}

std::uint32_t from_double(double x, const PositSpec& spec, RoundMode mode, RoundingRng* rng) {
  // Direct IEEE-754 field extraction (no libm): this sits on the encode hot
  // path of the posit inference engine, where frexp/ldexp calls dominated.
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const std::uint64_t mant = bits & ((1ULL << 52) - 1);
  const int biased = static_cast<int>((bits >> 52) & 0x7FF);
  const bool neg = (bits >> 63) != 0;
  const bool zero = (bits << 1) == 0;
  if (mode == RoundMode::kNearestEven) {
    // A normal double whose regime and full exponent field fit the body
    // keeps `frac_bits` of its 52 fraction bits (at most 29), so the code is
    // assembled and rounded to nearest-even right here in 64-bit integers —
    // round_pack's fast path without the 10 zero bits it would append. It
    // takes one predictable branch: +/-0 runs through as 1.0 and is masked
    // to code 0 at the end, and the sign, regime and rounding are selects,
    // so ReLU'd zeros and values straddling 1.0 cost no mispredictions.
    // NaN/Inf, subnormals, saturation and truncated exponents go on below.
    const int scale = (biased - 1023) & -static_cast<int>(!zero);
    const int k = scale >> spec.es;  // arithmetic shift: floor
    const int kneg = k >> 31;        // -1 when k < 0, else 0
    const int frac_bits = spec.n - 3 - (k ^ kneg) - spec.es;  // n - 1 - regime bits - es
    const unsigned slow = static_cast<unsigned>(biased == 0x7FF) |
                          (static_cast<unsigned>(biased == 0) & static_cast<unsigned>(!zero)) |
                          static_cast<unsigned>(frac_bits < 0);
    if (slow == 0) {
      const std::uint64_t regime = (4ULL << (k & ~kneg)) - 2 + kneg;  // 1..10 or 0..01
      const std::uint64_t e = static_cast<std::uint64_t>(scale) & ((1ULL << spec.es) - 1);
      const int shift = 52 - frac_bits;
      const std::uint64_t rest = mant & ((1ULL << shift) - 1);
      const std::uint64_t half = 1ULL << (shift - 1);
      std::uint64_t body = (((regime << spec.es) | e) << frac_bits) | (mant >> shift);
      // The regime's terminating bit keeps the body below maxpos's, so a
      // carry out of the fraction moves to the next code, never to NaR.
      body += static_cast<std::uint64_t>((rest > half) | ((rest == half) & (body & 1u)));
      const std::uint32_t sign = 0u - static_cast<std::uint32_t>(neg);
      const std::uint32_t keep = static_cast<std::uint32_t>(zero) - 1u;
      return ((static_cast<std::uint32_t>(body) ^ sign) - sign) & spec.mask() & keep;
    }
  }
  if (biased == 0x7FF) return spec.nar_code();  // NaN or +/-Inf
  if (zero) return 0u;                          // +/-0
  std::uint64_t sig;
  long scale;
  if (biased != 0) {
    // Normal: |x| = 1.mant * 2^(biased-1023); hidden bit lands at 62.
    sig = ((1ULL << 52) | mant) << 10;
    scale = biased - 1023;
  } else {
    // Subnormal: |x| = mant * 2^-1074; normalize the leading bit to 62.
    const int msb = 63 - __builtin_clzll(mant);
    sig = mant << (62 - msb);
    scale = msb - 1074;
  }
  return round_pack(spec, neg, scale, sig, 62, false, mode, rng);
}

double to_double(std::uint32_t code, const PositSpec& spec) {
  code &= spec.mask();
  if (code == spec.nar_code()) return std::numeric_limits<double>::quiet_NaN();
  // The double's bits straight from the code's fields, with masks and
  // selects instead of branches on the sign, the regime's polarity and
  // zero: |code| left-aligned below the sign bit (bit 0 stays clear, so the
  // regime run always ends), the run length from one clz, then exponent and
  // fraction shifted out of the bits after the terminator.
  const std::uint32_t sign = 0u - (code >> (spec.n - 1));  // all ones when negative
  const std::uint32_t body = (((code ^ sign) - sign) & spec.mask()) << (33 - spec.n);
  const std::uint32_t ones = 0u - (body >> 31);  // all ones when the regime runs ones
  const int run = __builtin_clz((body ^ ones) | 1u);
  const int k = -run ^ static_cast<int>(ones);  // run - 1 for ones, -run for zeros
  const std::uint64_t rest = (static_cast<std::uint64_t>(body) << 32) << (run + 1);
  const int scale = k * (1 << spec.es) + static_cast<int>((rest >> 1) >> (63 - spec.es));
  if (scale < -1022 || scale > 1023) {  // zero, or (n, es) beyond the normal double range
    if (body == 0) return 0.0;
    const Decoded d = decode(code, spec);
    const double mag = std::ldexp(static_cast<double>(d.sig), d.scale - 62);
    return d.neg ? -mag : mag;
  }
  const std::uint64_t bits = ((static_cast<std::uint64_t>(sign & 1u) << 63) |
                              (static_cast<std::uint64_t>(scale + 1023) << 52) |
                              ((rest << spec.es) >> 12)) &
                             (0 - static_cast<std::uint64_t>(body != 0));
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

double maxpos_value(const PositSpec& spec) { return std::ldexp(1.0, spec.max_scale()); }

double minpos_value(const PositSpec& spec) { return std::ldexp(1.0, spec.min_scale()); }

std::int32_t sign_extend(std::uint32_t code, const PositSpec& spec) {
  code &= spec.mask();
  if (code & spec.sign_bit()) code |= ~spec.mask();
  return static_cast<std::int32_t>(code);
}

}  // namespace pdnn::posit
