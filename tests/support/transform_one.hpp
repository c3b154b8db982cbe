// transform_one.hpp — P(x / Sf) * Sf on a single float: a one-element span
// through quant::transform_span, for tests that check values one at a time.
#pragma once

#include "quant/posit_transform.hpp"

namespace pdnn::test_support {

inline float transform_one(float x, const posit::PositSpec& spec, int shift = 0,
                           posit::RoundMode mode = posit::RoundMode::kTowardZero,
                           posit::RoundingRng* rng = nullptr) {
  quant::transform_span(&x, 1, spec, shift, mode, rng);
  return x;
}

}  // namespace pdnn::test_support
