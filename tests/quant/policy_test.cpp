// policy_test.cpp — QuantPolicy format routing, scaling modes, and the
// quantized training flow (Fig. 3) end to end.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "quant/policy.hpp"
#include "quant/stats_collector.hpp"
#include "support/transform_one.hpp"
#include "train/trainer.hpp"

namespace pdnn::quant {
namespace {

using nn::LayerClass;
using nn::TensorRole;
using test_support::transform_one;
using tensor::Rng;
using tensor::Tensor;

bool representable(float v, const PositSpec& s) {
  return v == transform_one(v, s);
}

TEST(QuantPolicy, InactiveUntilActivated) {
  QuantPolicy p;
  EXPECT_FALSE(p.active());
  p.activate();
  EXPECT_TRUE(p.active());
  p.deactivate();
  EXPECT_FALSE(p.active());
}

TEST(QuantPolicy, RoutesConvVsBnFormats) {
  // Cifar-10 config: CONV forward -> posit(8,1); BN forward -> posit(16,1).
  QuantConfig cfg;
  cfg.scale_mode = ScaleMode::kNone;
  QuantPolicy p(cfg);
  p.activate();

  // A value representable in (16,1) but not (8,1): needs > 4 fraction bits.
  Tensor t({1});
  t[0] = 1.0f + 1.0f / 64.0f;  // 6 fraction bits
  Tensor conv_q = t, bn_q = t;
  p.quantize(conv_q, "conv1.weight", LayerClass::kConv, TensorRole::kWeight);
  p.quantize(bn_q, "bn1.weight", LayerClass::kBn, TensorRole::kWeight);
  EXPECT_NE(conv_q[0], t[0]) << "posit(8,1) must truncate 6 fraction bits";
  EXPECT_EQ(bn_q[0], t[0]) << "posit(16,1) holds 6 fraction bits exactly";
}

TEST(QuantPolicy, ForwardEs1BackwardEs2DynamicRange) {
  // Section III-B: errors get es=2 for more dynamic range. A tiny gradient
  // below posit(8,1)'s minpos (4^-6 ~ 2.4e-4) but above posit(8,2)'s
  // (16^-6 ~ 6e-8) must survive the error path and die on the weight path.
  QuantConfig cfg;
  cfg.scale_mode = ScaleMode::kNone;
  QuantPolicy p(cfg);
  p.activate();

  Tensor tiny({1});
  tiny[0] = 1e-5f;
  Tensor as_weight = tiny;
  Tensor as_error = tiny;
  // Route both through the policy.
  Tensor wq = as_weight;
  p.quantize(wq, "conv1.weight", LayerClass::kConv, TensorRole::kWeight);
  p.quantize(as_error, "conv1", LayerClass::kConv, TensorRole::kError);
  EXPECT_EQ(wq[0], 0.0f) << "below (8,1) minpos: flushed";
  EXPECT_NE(as_error[0], 0.0f) << "within (8,2) range: kept";
}

TEST(QuantPolicy, OutputsAreRepresentable) {
  QuantConfig cfg;
  cfg.scale_mode = ScaleMode::kNone;
  QuantPolicy p(cfg);
  p.activate();
  Rng rng(61);
  Tensor t = Tensor::randn({512}, rng, 0.5f);
  p.quantize(t, "conv1", LayerClass::kConv, TensorRole::kActivation);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    ASSERT_TRUE(representable(t[i], PositSpec{8, 1})) << t[i];
  }
}

TEST(QuantPolicy, ScaledOutputsAreScaledRepresentable) {
  // With Eq. (3) the grid is Sf * posit values: dividing by 2^shift must land
  // on representable posits.
  QuantConfig cfg;
  cfg.scale_mode = ScaleMode::kDynamic;
  QuantPolicy p(cfg);
  p.activate();
  Rng rng(62);
  Tensor t = Tensor::randn({512}, rng, 0.01f);
  const int shift = scale_shift(t, cfg.sigma);
  p.quantize(t, "conv1", LayerClass::kConv, TensorRole::kActivation);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const float unscaled = std::ldexp(t[i], -shift);
    ASSERT_TRUE(representable(unscaled, PositSpec{8, 1})) << t[i];
  }
}

TEST(QuantPolicy, DynamicScalingReducesError) {
  QuantConfig with, without;
  with.scale_mode = ScaleMode::kDynamic;
  without.scale_mode = ScaleMode::kNone;
  QuantPolicy pw(with), pn(without);
  pw.activate();
  pn.activate();

  Rng rng(63);
  const Tensor src = Tensor::randn({4096}, rng, 0.015f);
  Tensor a = src, b = src;
  pw.quantize(a, "l", LayerClass::kConv, TensorRole::kActivation);
  pn.quantize(b, "l", LayerClass::kConv, TensorRole::kActivation);
  double mse_with = 0.0, mse_without = 0.0;
  for (std::size_t i = 0; i < src.numel(); ++i) {
    mse_with += (a[i] - src[i]) * static_cast<double>(a[i] - src[i]);
    mse_without += (b[i] - src[i]) * static_cast<double>(b[i] - src[i]);
  }
  EXPECT_LT(mse_with, mse_without);
}

TEST(QuantPolicy, CalibrationFreezesWeightShifts) {
  Rng rng(64);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  QuantConfig cfg;
  cfg.scale_mode = ScaleMode::kCalibrated;
  QuantPolicy p(cfg);
  p.calibrate(*net);
  for (nn::Param* param : net->params()) {
    const auto shift = p.calibrated_shift(param->name);
    ASSERT_TRUE(shift.has_value()) << param->name;
    EXPECT_EQ(*shift, scale_shift(param->value, cfg.sigma));
  }
  EXPECT_FALSE(p.calibrated_shift("nonexistent").has_value());
}

TEST(QuantPolicy, CountsTransforms) {
  QuantPolicy p;
  p.activate();
  Tensor t({10});
  p.quantize(t, "l", LayerClass::kConv, TensorRole::kActivation);
  EXPECT_EQ(p.transforms_performed(), 10u);
}

TEST(QuantPolicy, ImagenetConfigUses16Everywhere) {
  const QuantConfig c = QuantConfig::imagenet16();
  EXPECT_EQ(c.conv.forward.n, 16);
  EXPECT_EQ(c.conv.forward.es, 1);
  EXPECT_EQ(c.conv.backward.es, 2);
  EXPECT_EQ(c.bn.forward.n, 16);
}

// ---------------------------------------------------------------------------
// Fig. 3 end-to-end: quantized training still learns.
// ---------------------------------------------------------------------------
TEST(QuantizedTraining, MlpWithPositPolicyLearnsMoons) {
  Rng rng(65);
  auto net = nn::mlp(2, 24, 2, 2, rng);
  QuantConfig cfg = QuantConfig::imagenet16();  // 16-bit posit everywhere
  auto policy = std::make_unique<QuantPolicy>(cfg);

  train::TrainerConfig tc;
  tc.epochs = 40;
  tc.batch_size = 32;
  tc.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f};
  tc.schedule = {.base_lr = 0.1f, .drop_epochs = {30}, .factor = 10.0f};
  tc.warmup_epochs = 2;
  QuantPolicy* praw = policy.get();
  tc.policy = praw;
  tc.on_warmup_end = [praw](nn::Module& n) {
    praw->calibrate(n);
    praw->activate();
  };

  const auto data = pdnn::data::make_two_moons(200, 0.15f, 7);
  train::Trainer trainer(*net, tc);
  const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  EXPECT_FALSE(hist[0].quantized);
  EXPECT_FALSE(hist[1].quantized);
  EXPECT_TRUE(hist[2].quantized);
  EXPECT_GT(hist.back().test_acc, 0.93f) << "posit-16 training should match FP32 on moons";
  EXPECT_GT(praw->transforms_performed(), 0u);
}

TEST(QuantizedTraining, WeightsAreOnPositGridAfterTraining) {
  Rng rng(66);
  auto net = nn::mlp(2, 8, 2, 1, rng);
  QuantConfig cfg = QuantConfig::imagenet16();
  cfg.scale_mode = ScaleMode::kNone;  // plain grid for an exact check
  QuantPolicy policy(cfg);

  train::TrainerConfig tc;
  tc.epochs = 3;
  tc.batch_size = 16;
  tc.policy = &policy;
  tc.warmup_epochs = 0;
  tc.on_warmup_end = [&policy](nn::Module&) { policy.activate(); };
  const auto data = pdnn::data::make_two_moons(40, 0.2f, 13);
  train::Trainer trainer(*net, tc);
  trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);

  // Fig. 3c: stored weights were re-quantized after the last update.
  for (nn::Param* p : net->params()) {
    const PositSpec s = p->layer_class == nn::LayerClass::kBn ? cfg.bn.forward : cfg.linear.forward;
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      ASSERT_EQ(p->value[i], transform_one(p->value[i], s)) << p->name << "[" << i << "]";
    }
  }
}

TEST(StatsCollector, TracksSelectedParams) {
  Rng rng(67);
  nn::ResNetConfig rc;
  rc.base_channels = 4;
  auto net = nn::cifar_resnet(rc, rng);
  WeightStatsCollector collector({"conv1.weight", "stage2.block0.bn1.weight"});
  collector.collect(0, *net);
  collector.collect(1, *net);
  EXPECT_EQ(collector.series("conv1.weight").size(), 2u);
  EXPECT_EQ(collector.series("stage2.block0.bn1.weight").size(), 2u);
  EXPECT_TRUE(collector.series("not-tracked").empty());
  EXPECT_EQ(collector.series("conv1.weight")[1].epoch, 1u);
  EXPECT_GT(collector.series("conv1.weight")[0].moments.stddev, 0.0);
  EXPECT_EQ(collector.tracked().size(), 2u);
}

}  // namespace
}  // namespace pdnn::quant
