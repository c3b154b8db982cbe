// float_transform_test.cpp — reduced-precision float quantizer and policy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "quant/float_policy.hpp"
#include "quant/float_transform.hpp"

namespace pdnn::quant {
namespace {

TEST(FpSpec, DerivedConstants) {
  const FpSpec half = FpSpec::fp16();
  EXPECT_EQ(half.total_bits(), 16);
  EXPECT_EQ(half.bias(), 15);
  EXPECT_EQ(half.max_exp(), 15);
  EXPECT_EQ(half.min_exp(), -14);
  EXPECT_DOUBLE_EQ(half.max_value(), 65504.0);           // IEEE half max
  EXPECT_DOUBLE_EQ(half.min_subnormal(), 0x1p-24);       // IEEE half denorm min
  const FpSpec bf = FpSpec::bf16();
  EXPECT_EQ(bf.bias(), 127);
  EXPECT_EQ(bf.min_exp(), -126);
}

TEST(FpQuantize, Fp16MatchesHardwareSemantics) {
  // Values exactly representable in fp16 are fixed points.
  for (const float v : {0.0f, 1.0f, -1.5f, 0.0999755859375f, 65504.0f, 6.103515625e-05f}) {
    EXPECT_EQ(fp_quantize(v, FpSpec::fp16()), v) << v;
  }
  // 1 + 2^-11 is exactly between 1 and 1+2^-10: ties to even -> 1.
  EXPECT_EQ(fp_quantize(1.0f + 0x1p-11f, FpSpec::fp16()), 1.0f);
  // Just above the tie rounds up.
  EXPECT_EQ(fp_quantize(1.0f + 0x1.2p-11f, FpSpec::fp16()), 1.0f + 0x1p-10f);
  // Overflow saturates (no inf in this simulation).
  EXPECT_EQ(fp_quantize(1e10f, FpSpec::fp16()), 65504.0f);
  EXPECT_EQ(fp_quantize(-1e10f, FpSpec::fp16()), -65504.0f);
}

TEST(FpQuantize, SubnormalsAreGradual) {
  const FpSpec half = FpSpec::fp16();
  const float denorm_min = 0x1p-24f;
  EXPECT_EQ(fp_quantize(denorm_min, half), denorm_min);
  EXPECT_EQ(fp_quantize(denorm_min * 3, half), denorm_min * 3);
  // Halfway below the smallest subnormal flushes to zero (nearest-even).
  EXPECT_EQ(fp_quantize(denorm_min * 0.49f, half), 0.0f);
  // Above half rounds up to the smallest subnormal.
  EXPECT_EQ(fp_quantize(denorm_min * 0.51f, half), denorm_min);
}

TEST(FpQuantize, Fp16AgreesWithCompilerHalfConversionOnRandoms) {
  // GCC's __fp16/_Float16 is available on this target: use it as an oracle.
#if defined(__FLT16_MAX__)
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  for (int t = 0; t < 20000; ++t) {
    const float x = dist(rng);
    const auto h = static_cast<_Float16>(x);
    EXPECT_EQ(fp_quantize(x, FpSpec::fp16()), static_cast<float>(h)) << x;
  }
#else
  GTEST_SKIP() << "no _Float16 support";
#endif
}

TEST(FpQuantize, TowardZeroNeverIncreasesMagnitude) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> dist(-10.0f, 10.0f);
  for (int t = 0; t < 5000; ++t) {
    const float x = dist(rng);
    const float q = fp_quantize(x, FpSpec::fp8_152(), posit::RoundMode::kTowardZero);
    EXPECT_LE(std::fabs(q), std::fabs(x));
  }
}

TEST(FpQuantize, StochasticIsUnbiased) {
  const FpSpec spec = FpSpec::fp8_152();
  posit::RoundingRng rng(77);
  const float lo = 1.0f, hi = 1.25f;  // adjacent fp8(1-5-2) values
  const float x = lo + 0.25f * (hi - lo);
  int ups = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const float q = fp_quantize(x, spec, posit::RoundMode::kStochastic, &rng);
    ASSERT_TRUE(q == lo || q == hi);
    if (q == hi) ++ups;
  }
  EXPECT_NEAR(static_cast<double>(ups) / kTrials, 0.25, 0.02);
}

TEST(FpQuantize, Idempotent) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> dist(-50.0f, 50.0f);
  for (const FpSpec spec : {FpSpec::fp16(), FpSpec::bf16(), FpSpec::fp8_152(), FpSpec::fp8_143()}) {
    for (int t = 0; t < 3000; ++t) {
      const float q = fp_quantize(dist(rng), spec);
      ASSERT_EQ(fp_quantize(q, spec), q);
    }
  }
}

TEST(FpPolicy, MasterWeightModeSkipsUpdateQuantization) {
  FpPolicyConfig cfg = FpPolicyConfig::fp16_mixed();
  FpPolicy policy(cfg);
  policy.activate();
  tensor::Tensor w({3});
  w[0] = 1.0f + 0x1p-20f;  // not representable in fp16
  w[1] = 0.1f;
  w[2] = -2.0f;
  tensor::Tensor master = w;
  policy.quantize(master, "fc.weight", nn::LayerClass::kLinear, nn::TensorRole::kUpdatedWeight);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(master[i], w[i]) << "FP32 master copy untouched";

  // But the forward weight view IS quantized.
  tensor::Tensor fwd = w;
  policy.quantize(fwd, "fc.weight", nn::LayerClass::kLinear, nn::TensorRole::kWeight);
  EXPECT_NE(fwd[0], w[0]);
}

TEST(FpPolicy, Fp8ConfigQuantizesCoarsely) {
  FpPolicy policy(FpPolicyConfig::fp8_training());
  policy.activate();
  tensor::Rng rng(9);
  tensor::Tensor a = tensor::Tensor::randn({256}, rng);
  const tensor::Tensor src = a;
  policy.quantize(a, "conv", nn::LayerClass::kConv, nn::TensorRole::kActivation);
  // 2 mantissa bits: values collapse onto a coarse grid; error nonzero.
  double err = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) err += std::fabs(a[i] - src[i]);
  EXPECT_GT(err, 0.0);
  // Idempotent under the same policy transform (dynamic shift recomputed on
  // already-quantized data can differ by at most re-rounding to same grid).
  tensor::Tensor again = a;
  policy.quantize(again, "conv", nn::LayerClass::kConv, nn::TensorRole::kActivation);
  double drift = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) drift += std::fabs(again[i] - a[i]);
  EXPECT_NEAR(drift, 0.0, 1e-6);
}

}  // namespace
}  // namespace pdnn::quant
