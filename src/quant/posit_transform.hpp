// posit_transform.hpp — the paper's Algorithm 1: P_{n,es}(x).
//
// Transforms an FP32 real into the value of its (n, es) posit representation
// under round-toward-zero, with two paper-specific semantics that differ from
// standard posit rounding:
//   * |x| < minpos flushes to ZERO (Algorithm 1 lines 3-4), whereas standard
//     posit rounding never underflows;
//   * magnitudes are clipped into [minpos, maxpos] before encoding (line 7).
// Known paper typo: line 17 reads fb = min{n-1-rb-eb, 0}; a width cannot be
// negative, and Table I confirms the intent is max{., 0}. We implement max.
//
// `posit_transform_reference` is a literal, double-mediated transcription of
// Algorithm 1 and serves as the oracle. `transform_span` is the one kernel behind
// every PrecisionPolicy::quantize site: Eq. (3)'s P(x / Sf) * Sf over a float
// span, under any posit::RoundMode. tests/quant/transform_test.cpp sweeps every float
// exponent through it against the reference (toward zero) and the codec
// (other modes).
#pragma once

#include <cstddef>

#include "posit/codec.hpp"

namespace pdnn::quant {

using posit::PositSpec;

/// Literal Algorithm 1: returns the real value of the posit px.
double posit_transform_reference(double x, const PositSpec& spec);

/// Eq. (3) in place: p[i] = P(p[i] / Sf) * Sf with Sf = 2^shift, for i < n.
///
/// Every mode keeps Algorithm 1's flush: |x / Sf| < minpos becomes +0 (so
/// does -0), and magnitudes clip to maxpos * Sf. kTowardZero is the paper's
/// choice (cheapest in hardware, Section III-A); kNearestEven and kStochastic
/// serve the ablation benches, and only kStochastic draws from `rng`.
/// Non-finite inputs: toward zero maps NaN to +0 and +/-Inf to +/-maxpos * Sf;
/// the rounded modes map both to NaN (the codec's NaR).
void transform_span(float* p, std::size_t n, const PositSpec& spec, int shift,
                    posit::RoundMode mode, posit::RoundingRng* rng);

}  // namespace pdnn::quant
