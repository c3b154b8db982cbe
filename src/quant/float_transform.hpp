// float_transform.hpp — reduced-precision IEEE-style float quantizers.
//
// The baselines the paper positions against (Section II-A): FP16 training
// (Micikevicius et al.) and FP8 training (Wang et al., 1-5-2 format). These
// simulate casting an FP32 value to a small float and back, with proper
// subnormals and saturation, so the ablation bench can compare posit and
// float formats at matched bit widths.
#pragma once

#include <cstddef>

#include "posit/rounding.hpp"

namespace pdnn::quant {

/// An IEEE-like binary float format: 1 sign bit, `exp_bits` biased exponent
/// bits (all-ones reserved for inf/NaN), `man_bits` mantissa bits, gradual
/// underflow (subnormals), overflow saturates to the largest finite value.
struct FpSpec {
  int exp_bits;
  int man_bits;

  int total_bits() const { return 1 + exp_bits + man_bits; }
  int bias() const { return (1 << (exp_bits - 1)) - 1; }
  int max_exp() const { return (1 << exp_bits) - 2 - bias(); }  ///< largest finite exponent
  int min_exp() const { return 1 - bias(); }                    ///< smallest normal exponent
  /// Largest finite value.
  double max_value() const;
  /// Smallest positive subnormal.
  double min_subnormal() const;

  static constexpr FpSpec fp16() { return {5, 10}; }   ///< IEEE half
  static constexpr FpSpec bf16() { return {8, 7}; }    ///< bfloat16
  static constexpr FpSpec fp8_152() { return {5, 2}; } ///< Wang et al. FP8
  static constexpr FpSpec fp8_143() { return {4, 3}; } ///< common alternative
};

/// Quantize x to the nearest `spec` value (mode selects the rounding).
float fp_quantize(float x, const FpSpec& spec, posit::RoundMode mode = posit::RoundMode::kNearestEven,
                  posit::RoundingRng* rng = nullptr);

/// Eq. (3) with a float format, in place: p[i] = Q(p[i] / Sf) * Sf with
/// Sf = 2^shift, both scalings done in float.
void fp_quantize_span(float* p, std::size_t n, const FpSpec& spec, int shift,
                      posit::RoundMode mode, posit::RoundingRng* rng);

}  // namespace pdnn::quant
