// transform_test.cpp — Algorithm 1 correctness: transform_span vs the literal
// reference vs the independently validated posit codec.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "posit/tables.hpp"
#include "quant/posit_transform.hpp"
#include "quant/scale.hpp"
#include "support/transform_one.hpp"

namespace pdnn::quant {
namespace {

using test_support::transform_one;

std::uint32_t bits_of(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

float float_of(std::uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

class TransformFormatTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  PositSpec spec() const { return PositSpec{GetParam().first, GetParam().second}; }
};

// The fast float-bit path and the literal Algorithm 1 transcription agree.
TEST_P(TransformFormatTest, FastPathMatchesReference) {
  const PositSpec s = spec();
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> scale_dist(s.min_scale() - 4.0, s.max_scale() + 4.0);
  std::uniform_real_distribution<double> mant_dist(1.0, 2.0);
  for (int t = 0; t < 20000; ++t) {
    float x = static_cast<float>(mant_dist(rng) * std::exp2(scale_dist(rng)));
    if (t % 2) x = -x;
    const float fast = transform_one(x, s);
    const double ref = posit_transform_reference(x, s);
    ASSERT_EQ(fast, static_cast<float>(ref)) << s.to_string() << " x=" << x;
  }
}

// Algorithm 1 equals codec round-toward-zero + the underflow flush.
TEST_P(TransformFormatTest, MatchesCodecTowardZero) {
  const PositSpec s = spec();
  std::mt19937_64 rng(37);
  std::uniform_real_distribution<double> scale_dist(s.min_scale() - 4.0, s.max_scale() + 4.0);
  std::uniform_real_distribution<double> mant_dist(1.0, 2.0);
  const double minpos = posit::minpos_value(s);
  for (int t = 0; t < 20000; ++t) {
    float x = static_cast<float>(mant_dist(rng) * std::exp2(scale_dist(rng)));
    if (t % 2) x = -x;
    if (!std::isfinite(x)) continue;  // float overflow artifact at (32,3)
    double want;
    if (std::fabs(static_cast<double>(x)) < minpos) {
      want = 0.0;
    } else {
      want = posit::to_double(posit::from_double(x, s, posit::RoundMode::kTowardZero), s);
    }
    ASSERT_EQ(transform_one(x, s), static_cast<float>(want)) << s.to_string() << " x=" << x;
  }
}

// Exhaustive: every representable posit value is a fixed point of P.
TEST_P(TransformFormatTest, RepresentableValuesAreFixedPoints) {
  const PositSpec s = spec();
  if (s.n > 16) GTEST_SKIP();
  for (std::uint64_t c = 0; c < s.code_count(); ++c) {
    const auto code = static_cast<std::uint32_t>(c);
    if (code == s.nar_code()) continue;
    const double v = posit::to_double(code, s);
    if (std::fabs(v) > 1e30) continue;  // beyond float range for big formats
    const auto vf = static_cast<float>(v);
    if (static_cast<double>(vf) != v) continue;  // not exactly a float
    ASSERT_EQ(transform_one(vf, s), vf) << s.to_string() << " code " << code;
  }
}

TEST_P(TransformFormatTest, UnderflowFlushesToZero) {
  const PositSpec s = spec();
  const double minpos = posit::minpos_value(s);
  if (minpos < 1e-30) GTEST_SKIP();
  EXPECT_EQ(transform_one(static_cast<float>(minpos) * 0.49f, s), 0.0f);
  EXPECT_EQ(transform_one(-static_cast<float>(minpos) * 0.49f, s), 0.0f);
  // But minpos itself survives.
  EXPECT_EQ(transform_one(static_cast<float>(minpos), s), static_cast<float>(minpos));
}

TEST_P(TransformFormatTest, OverflowClipsToMaxpos) {
  const PositSpec s = spec();
  const double maxpos = posit::maxpos_value(s);
  if (maxpos > 1e30) GTEST_SKIP();
  EXPECT_EQ(transform_one(static_cast<float>(maxpos) * 8.0f, s), static_cast<float>(maxpos));
  EXPECT_EQ(transform_one(-static_cast<float>(maxpos) * 8.0f, s), -static_cast<float>(maxpos));
}

TEST_P(TransformFormatTest, MagnitudeNeverIncreases) {
  const PositSpec s = spec();
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> dist(-100.0, 100.0);
  for (int shift : {0, -140, -40, -4, 1, 9, 140}) {
    for (int t = 0; t < 5000; ++t) {
      const auto x = static_cast<float>(dist(rng));
      const float q = transform_one(x, s, shift);
      ASSERT_LE(std::fabs(q), std::fabs(x)) << "x=" << x << " shift=" << shift;
      if (q != 0.0f) {
        ASSERT_EQ(std::signbit(q), std::signbit(x));
      }
    }
  }
}

TEST_P(TransformFormatTest, Idempotent) {
  const PositSpec s = spec();
  std::mt19937_64 rng(43);
  std::uniform_real_distribution<double> dist(-50.0, 50.0);
  for (int t = 0; t < 5000; ++t) {
    const auto x = static_cast<float>(dist(rng));
    const float q = transform_one(x, s);
    ASSERT_EQ(transform_one(q, s), q);
  }
}

INSTANTIATE_TEST_SUITE_P(FormatSweep, TransformFormatTest,
                         ::testing::Values(std::pair{5, 1}, std::pair{8, 0}, std::pair{8, 1}, std::pair{8, 2},
                                           std::pair{16, 1}, std::pair{16, 2}, std::pair{32, 3}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "_" + std::to_string(info.param.second);
                         });

// Every float exponent through the kernel: each biased exponent 0..255 (so
// zero, subnormals, normals, Inf and NaN) x mantissa edge patterns x sign, at
// every shift in [-140, 140], in one transform_span call per (spec, shift,
// mode). Toward zero must equal the literal Algorithm 1 (flush, clip to maxpos
// included); nearest-even must equal the codec with Algorithm 1's flush.
TEST(TransformSweep, EveryFloatExponentMatchesOracles) {
  const std::uint32_t mantissas[] = {0x000000u, 0x000001u, 0x000002u,
                                     0x400000u, 0x7FFFFEu, 0x7FFFFFu};
  std::vector<float> in;
  for (std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t biased = 0; biased < 256; ++biased) {
      for (std::uint32_t m : mantissas) in.push_back(float_of(sign | (biased << 23) | m));
    }
  }
  const PositSpec specs[] = {{5, 1},  {8, 0},  {8, 1},  {8, 2},
                             {16, 1}, {16, 2}, {32, 2}, {32, 3}};
  std::vector<float> tz, ne;
  for (const PositSpec& s : specs) {
    const double minpos = posit::minpos_value(s);
    const double maxpos = posit::maxpos_value(s);
    for (int shift = -140; shift <= 140; ++shift) {
      tz = in;
      ne = in;
      transform_span(tz.data(), tz.size(), s, shift, posit::RoundMode::kTowardZero, nullptr);
      transform_span(ne.data(), ne.size(), s, shift, posit::RoundMode::kNearestEven, nullptr);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const float x = in[i];
        const double scaled = std::ldexp(static_cast<double>(x), -shift);
        float want_tz, want_ne;
        if (std::isnan(x)) {
          want_tz = 0.0f;
          want_ne = std::nanf("");
        } else if (std::isinf(x)) {
          want_tz = static_cast<float>(std::copysign(std::ldexp(maxpos, shift), x));
          want_ne = std::nanf("");
        } else {
          want_tz = static_cast<float>(std::ldexp(posit_transform_reference(scaled, s), shift));
          const double q =
              std::fabs(scaled) < minpos
                  ? 0.0
                  : posit::to_double(posit::from_double(scaled, s, posit::RoundMode::kNearestEven), s);
          want_ne = static_cast<float>(std::ldexp(q, shift));
        }
        ASSERT_EQ(bits_of(tz[i]), bits_of(want_tz))
            << s.to_string() << " toward-zero x=" << x << " shift=" << shift;
        if (std::isnan(want_ne)) {
          ASSERT_TRUE(std::isnan(ne[i])) << s.to_string() << " x=" << x << " shift=" << shift;
        } else {
          ASSERT_EQ(bits_of(ne[i]), bits_of(want_ne))
              << s.to_string() << " nearest-even x=" << x << " shift=" << shift;
        }
      }
    }
  }
}

// The special results, spelled out per mode at posit(8,1) (minpos 2^-12,
// maxpos 2^12): zeros come out +0, |x / Sf| < minpos flushes, magnitudes clip
// to maxpos * Sf, and non-finite inputs follow each mode's rule.
TEST(TransformSweep, SpecialResultsPerMode) {
  const PositSpec s{8, 1};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float subnormal = std::ldexp(1.0f, -140);
  posit::RoundingRng rng(7);
  for (int shift : {0, 5, -5}) {
    const float sf = std::ldexp(1.0f, shift);
    for (const auto mode : {posit::RoundMode::kTowardZero, posit::RoundMode::kNearestEven,
                            posit::RoundMode::kStochastic}) {
      const auto one = [&](float x) { return transform_one(x, s, shift, mode, &rng); };
      EXPECT_EQ(bits_of(one(0.0f)), 0u);
      EXPECT_EQ(bits_of(one(-0.0f)), 0u) << "-0 becomes +0";
      EXPECT_EQ(bits_of(one(-subnormal)), 0u) << "subnormal below minpos * Sf flushes to +0";
      EXPECT_EQ(bits_of(one(-0x1p-13f * sf)), 0u) << "below minpos flushes to +0";
      EXPECT_EQ(one(0x1p-12f * sf), 0x1p-12f * sf) << "minpos survives";
      EXPECT_EQ(one(0x1p20f * sf), 0x1p12f * sf) << "clip to maxpos * Sf";
      EXPECT_EQ(one(-0x1p20f * sf), -0x1p12f * sf);
      if (mode == posit::RoundMode::kTowardZero) {
        EXPECT_EQ(bits_of(one(nan)), 0u) << "NaN becomes +0";
        EXPECT_EQ(one(inf), 0x1p12f * sf) << "Inf clips to maxpos * Sf";
        EXPECT_EQ(one(-inf), -0x1p12f * sf);
      } else {
        EXPECT_TRUE(std::isnan(one(nan)));
        EXPECT_TRUE(std::isnan(one(inf))) << "Inf is NaR under the codec";
        EXPECT_TRUE(std::isnan(one(-inf)));
      }
    }
  }
}

// posit(32,3) reaches far outside float's normal range, so x / Sf must not be
// formed in float: it overflowed, rounded, or flushed there, and a toward-zero
// transform could grow a magnitude.
TEST(TransformSweep, WideFormatScalesInDouble) {
  const PositSpec s{32, 3};
  EXPECT_EQ(transform_one(0x1p-12f, s, -140), 0x1p-12f);  // x / Sf = 2^128
  EXPECT_EQ(transform_one(0x1.fffffcp-127f, s, 1), 0x1.ffep-127f);  // 11 fraction bits
  EXPECT_EQ(transform_one(0x1p-149f, s, 1), 0x1p-149f);   // x / Sf = 2^-150
}

// Table I round-trip through the transform: P maps midranges onto the exact
// Table I values (spot-checking the (5,1) grid the paper prints).
TEST(TransformTableI, TruncatesOntoTableValues) {
  const PositSpec s{5, 1};
  EXPECT_FLOAT_EQ(transform_one(0.40f, s), 0.375f);   // (3/8 .. 1/2) -> 3/8
  EXPECT_FLOAT_EQ(transform_one(0.99f, s), 0.75f);    // (3/4 .. 1)   -> 3/4
  EXPECT_FLOAT_EQ(transform_one(1.49f, s), 1.0f);
  EXPECT_FLOAT_EQ(transform_one(2.9f, s), 2.0f);
  EXPECT_FLOAT_EQ(transform_one(63.0f, s), 16.0f);    // (16 .. 64) -> 16
  EXPECT_FLOAT_EQ(transform_one(100.0f, s), 64.0f);   // clip to maxpos
  EXPECT_FLOAT_EQ(transform_one(-0.30f, s), -0.25f);
}

// Eq. (3): scaling with a power of two is exact and reversible.
TEST(TransformScaling, ScaledTransformExactness) {
  const PositSpec s{8, 1};
  // x = 0.011 (center ~2^-6.3): raw posit(8,1) keeps little precision there,
  // the shifted transform lands it near 1 where the fraction field is widest.
  const float x = 0.011f;
  const float raw = transform_one(x, s);
  const float scaled = transform_one(x, s, /*shift=*/-6);
  EXPECT_LT(std::fabs(scaled - x), std::fabs(raw - x));
}

TEST(TransformScaling, FastScaledPathMatchesLdexpComposition) {
  // The integer fast path with a folded shift must agree with the explicit
  // divide-transform-multiply composition of Eq. (3).
  std::mt19937_64 rng(71);
  std::uniform_real_distribution<double> dist(-64.0, 64.0);
  for (const auto& [n, es] : {std::pair{8, 1}, std::pair{8, 2}, std::pair{16, 1}, std::pair{16, 2}}) {
    const PositSpec s{n, es};
    for (int shift : {-8, -3, 0, 2, 7}) {
      for (int t = 0; t < 3000; ++t) {
        const auto x = static_cast<float>(dist(rng));
        const float composed =
            std::ldexp(transform_one(std::ldexp(x, -shift), s), shift);
        ASSERT_EQ(transform_one(x, s, shift), composed)
            << s.to_string() << " x=" << x << " shift=" << shift;
      }
    }
  }
}

TEST(TransformScaling, ShiftZeroIsPlainTransform) {
  const PositSpec s{8, 1};
  for (float x : {0.3f, -1.7f, 12.0f}) {
    EXPECT_EQ(transform_one(x, s, 0), static_cast<float>(posit_transform_reference(x, s)));
  }
}

TEST(TransformScaling, Eq2CenterComputation) {
  // Tensor with values 2^-5, 2^-6, 2^-7 -> mean log2 = -6, center = -6,
  // shift = center + sigma = -4.
  tensor::Tensor t({3});
  t[0] = std::ldexp(1.0f, -5);
  t[1] = std::ldexp(1.0f, -6);
  t[2] = std::ldexp(1.0f, -7);
  EXPECT_EQ(scale_shift(t, 2), -4);
  EXPECT_EQ(scale_shift(t, 0), -6);
}

TEST(TransformScaling, ScaledQuantizationErrorBeatsRaw) {
  // Property the paper's Eq. (2)/(3) claims: for a distribution concentrated
  // far from 1, shifting reduces mean-squared quantization error.
  const PositSpec s{8, 1};
  tensor::Rng rng(55);
  tensor::Tensor t = tensor::Tensor::randn({4096}, rng, 0.02f);  // center ~2^-6
  const int shift = scale_shift(t, kPaperSigma);

  double err_raw = 0.0, err_scaled = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const float q_raw = transform_one(t[i], s);
    const float q_scaled = transform_one(t[i], s, shift);
    err_raw += (q_raw - t[i]) * static_cast<double>(q_raw - t[i]);
    err_scaled += (q_scaled - t[i]) * static_cast<double>(q_scaled - t[i]);
  }
  EXPECT_LT(err_scaled, err_raw * 0.5) << "shifting should cut MSE substantially";
}

TEST(TransformRounding, NearestBeatsTowardZeroOnMse) {
  const PositSpec s{8, 1};
  tensor::Rng rng(57);
  tensor::Tensor a = tensor::Tensor::randn({4096}, rng, 0.5f);
  tensor::Tensor b = a;
  transform_span(a.data(), a.numel(), s, 0, posit::RoundMode::kTowardZero, nullptr);
  posit::RoundingRng prng(5);
  transform_span(b.data(), b.numel(), s, 0, posit::RoundMode::kNearestEven, &prng);
  // Compare against a fresh copy of the source.
  tensor::Rng rng2(57);
  tensor::Tensor src = tensor::Tensor::randn({4096}, rng2, 0.5f);
  double mse_tz = 0.0, mse_ne = 0.0;
  for (std::size_t i = 0; i < src.numel(); ++i) {
    mse_tz += (a[i] - src[i]) * static_cast<double>(a[i] - src[i]);
    mse_ne += (b[i] - src[i]) * static_cast<double>(b[i] - src[i]);
  }
  EXPECT_LT(mse_ne, mse_tz);
}

TEST(TransformInplace, WholeTensor) {
  const PositSpec s{8, 1};
  tensor::Rng rng(59);
  tensor::Tensor t = tensor::Tensor::randn({100}, rng);
  tensor::Tensor copy = t;
  transform_span(t.data(), t.numel(), s, 0, posit::RoundMode::kTowardZero, nullptr);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[i], transform_one(copy[i], s));
  }
}

}  // namespace
}  // namespace pdnn::quant
