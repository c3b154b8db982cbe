#include "quant/posit_transform.hpp"

#include <cmath>
#include <cstring>

namespace pdnn::quant {

double posit_transform_reference(double x, const PositSpec& spec) {
  // Algorithm 1, line by line.
  const int useed_log2 = 1 << spec.es;                       // line 1 (log domain)
  const double maxpos = posit::maxpos_value(spec);           // line 2
  const double minpos = posit::minpos_value(spec);
  if (std::fabs(x) < minpos) return 0.0;                     // lines 3-4
  const double s = x < 0 ? -1.0 : 1.0;                       // line 6
  const double xc = std::min(std::max(std::fabs(x), minpos), maxpos);  // line 7
  const int exp = static_cast<int>(std::floor(std::log2(xc)));         // line 8
  const int k = (exp >= 0 ? exp : exp - useed_log2 + 1) / useed_log2;  // line 9 (floor div)
  const int e = exp - k * useed_log2;                        // line 10
  const double f = xc / std::ldexp(1.0, exp) - 1.0;          // line 11
  const int rb = k >= 0 ? k + 2 : -k + 1;                    // lines 12-15
  const int eb = std::max(std::min(spec.n - 1 - rb, spec.es), 0);      // line 16
  const int fb = std::max(spec.n - 1 - rb - eb, 0);          // line 17 (paper typo: min -> max)
  const int pe = static_cast<int>(std::floor(e * std::ldexp(1.0, eb - spec.es))) *
                 (1 << (spec.es - eb));                      // line 18
  const double pf = std::floor(f * std::ldexp(1.0, fb)) * std::ldexp(1.0, -fb);  // line 19
  return s * std::ldexp(1.0, k * useed_log2 + pe) * (1.0 + pf);  // line 20, useed^k = 2^(k*2^es)
}

namespace {

/// Pure integer implementation for the common case: normal float input and a
/// format whose dynamic range, scaled by Sf, stays inside normal floats (all
/// n <= 16 configs at moderate shifts; the caller checks that once per span).
/// Truncates mantissa/exponent bits directly in the float encoding.
inline bool transform_bits_fast(float x, const PositSpec& spec, int shift, float* out) {
  std::uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const std::uint32_t biased = (bits >> 23) & 0xFFu;
  if (biased == 0u || biased == 0xFFu) return false;  // zero/subnormal/inf/nan: slow path
  const int exp = static_cast<int>(biased) - 127;
  const int exp_eff = exp - shift;  // exponent of x / Sf
  if (exp_eff < spec.min_scale()) {
    *out = 0.0f;  // Algorithm 1 lines 3-4
    return true;
  }
  if (exp_eff >= spec.max_scale()) {  // clip to maxpos * Sf
    const std::uint32_t maxbits =
        (bits & 0x80000000u) | (static_cast<std::uint32_t>(spec.max_scale() + shift + 127) << 23);
    std::memcpy(out, &maxbits, sizeof(*out));
    return true;
  }
  const int k = exp_eff >> spec.es;
  // k * 2^es, not k << es: the regime can be negative and a negative left
  // shift is UB (same fix as the codec/unpacked paths).
  const int k_scaled = k * (1 << spec.es);
  const int e = exp_eff - k_scaled;
  const int rb = k >= 0 ? k + 2 : -k + 1;
  const int eb = std::max(std::min(spec.n - 1 - rb, spec.es), 0);
  const int fb = std::max(spec.n - 1 - rb - eb, 0);
  const int pe = (e >> (spec.es - eb)) << (spec.es - eb);
  const std::uint32_t frac_mask = fb >= 23 ? 0x007FFFFFu : (0x007FFFFFu & ~((1u << (23 - fb)) - 1u));
  const std::uint32_t out_bits = (bits & 0x80000000u) |
                                 (static_cast<std::uint32_t>(k_scaled + pe + shift + 127) << 23) |
                                 (bits & frac_mask);
  std::memcpy(out, &out_bits, sizeof(*out));
  return true;
}

/// Every input the fast path declines, in double, where x / Sf is exact for
/// any float x and shift. The flush below minpos (Algorithm 1 lines 3-4)
/// holds in every mode, for a fair rounding comparison.
[[gnu::noinline]] float transform_slow(float x, const PositSpec& spec, int shift,
                                      posit::RoundMode mode, posit::RoundingRng* rng) {
  if (mode == posit::RoundMode::kTowardZero) {
    if (std::isnan(x)) return 0.0f;
    if (std::isinf(x)) {  // clip: maxpos * Sf
      return static_cast<float>(std::copysign(std::ldexp(posit::maxpos_value(spec), shift), x));
    }
  }
  const double scaled = std::ldexp(static_cast<double>(x), -shift);
  const double q = std::fabs(scaled) < posit::minpos_value(spec)
                       ? 0.0
                       : posit::to_double(posit::from_double(scaled, spec, mode, rng), spec);
  return static_cast<float>(std::ldexp(q, shift));
}

}  // namespace

void transform_span(float* p, std::size_t n, const PositSpec& spec, int shift,
                    posit::RoundMode mode, posit::RoundingRng* rng) {
  // The fast path's results must keep normal float exponents.
  const bool fast = mode == posit::RoundMode::kTowardZero && spec.min_scale() + shift >= -126 &&
                    spec.max_scale() + shift <= 127;
  // A copy the out-of-line slow path cannot reach, so the fast path keeps the
  // format in registers instead of reloading it after every slow call.
  const PositSpec local = spec;
  for (std::size_t i = 0; i < n; ++i) {
    float q;
    p[i] = fast && transform_bits_fast(p[i], local, shift, &q)
               ? q
               : transform_slow(p[i], spec, shift, mode, rng);
  }
}

}  // namespace pdnn::quant
