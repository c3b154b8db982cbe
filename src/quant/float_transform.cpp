#include "quant/float_transform.hpp"

#include <algorithm>
#include <cmath>

namespace pdnn::quant {

double FpSpec::max_value() const {
  // (2 - 2^-man_bits) * 2^max_exp
  return (2.0 - std::ldexp(1.0, -man_bits)) * std::ldexp(1.0, max_exp());
}

double FpSpec::min_subnormal() const { return std::ldexp(1.0, min_exp() - man_bits); }

float fp_quantize(float x, const FpSpec& spec, posit::RoundMode mode, posit::RoundingRng* rng) {
  if (x == 0.0f || std::isnan(x)) return 0.0f;
  if (std::isinf(x)) return std::copysign(static_cast<float>(spec.max_value()), x);

  const double mag = std::fabs(static_cast<double>(x));
  const int exp = std::ilogb(mag);  // exact: mag is a nonzero finite double

  // Position of the unit-in-last-place: man_bits below the leading one for
  // normals, pinned at min_exp - man_bits in the subnormal range.
  const int ulp_exp = std::max(exp, spec.min_exp()) - spec.man_bits;
  const double scaled = std::ldexp(mag, -ulp_exp);  // value in ulp units
  double units = std::floor(scaled);
  const double frac = scaled - units;

  bool round_up = false;
  switch (mode) {
    case posit::RoundMode::kNearestEven:
      if (frac > 0.5) {
        round_up = true;
      } else if (frac == 0.5) {
        round_up = std::fmod(units, 2.0) != 0.0;
      }
      break;
    case posit::RoundMode::kTowardZero:
      break;
    case posit::RoundMode::kStochastic: {
      const double u = rng != nullptr
                           ? static_cast<double>(rng->next() >> 11) * 0x1.0p-53
                           : 0.5;
      round_up = u < frac;
      break;
    }
  }
  if (round_up) units += 1.0;

  double result = std::ldexp(units, ulp_exp);
  if (result > spec.max_value()) result = spec.max_value();  // saturate
  return std::copysign(static_cast<float>(result), x);
}

void fp_quantize_span(float* p, std::size_t n, const FpSpec& spec, int shift,
                      posit::RoundMode mode, posit::RoundingRng* rng) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = std::ldexp(fp_quantize(std::ldexp(p[i], -shift), spec, mode, rng), shift);
  }
}

}  // namespace pdnn::quant
