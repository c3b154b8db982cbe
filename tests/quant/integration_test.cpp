// integration_test.cpp — the full paper pipeline on a small CNN: warm-up,
// calibration, posit-quantized conv/BN training (Fig. 3 end to end).
#include <gtest/gtest.h>

#include <sstream>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "quant/float_policy.hpp"
#include "quant/policy.hpp"
#include "support/transform_one.hpp"
#include "train/trainer.hpp"

namespace pdnn::quant {
namespace {

using test_support::transform_one;
using tensor::Rng;

data::TrainTest small_task() {
  data::SynthCifarConfig dc;
  dc.classes = 4;
  dc.train_per_class = 40;
  dc.test_per_class = 15;
  dc.height = dc.width = 12;
  dc.noise = 0.3f;
  return data::make_synth_cifar(dc);
}

/// The small-task schedule under `policy` (null: FP32); callers wire the handoff.
train::TrainerConfig small_train_config(std::size_t epochs, std::size_t warmup,
                                        nn::PrecisionPolicy* policy) {
  train::TrainerConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 40;
  tc.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
  tc.schedule = {.base_lr = 0.05f, .drop_epochs = {epochs - 2}, .factor = 10.0f};
  tc.warmup_epochs = warmup;
  tc.policy = policy;
  return tc;
}

TEST(QuantIntegration, ResNetPositCifar8RecipeLearns) {
  Rng rng(31);
  nn::ResNetConfig rc;
  rc.base_channels = 4;
  rc.classes = 4;
  rc.bn_momentum = 0.3f;
  auto net = nn::cifar_resnet(rc, rng);
  const auto data = small_task();

  QuantPolicy policy(QuantConfig::cifar8());
  train::TrainerConfig tc = small_train_config(8, 1, &policy);
  tc.on_warmup_end = [&policy](nn::Module& n) {
    policy.calibrate(n);
    policy.activate();
  };
  train::Trainer trainer(*net, tc);
  const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);

  EXPECT_FALSE(hist.front().quantized) << "epoch 0 is the FP32 warm-up";
  EXPECT_TRUE(hist.back().quantized);
  EXPECT_GT(hist.back().test_acc, 0.5f) << "well above 25% chance under posit-8 conv";
  EXPECT_GT(policy.transforms_performed(), 1000000u) << "every Fig. 3 hook fired";

  // Fig. 3c: conv weights ended on a 2^s-scaled posit(8,1) grid. (The exact
  // s used by the policy was Eq. 2's center of the pre-quantization tensor,
  // which can differ by +/-1 from the center recomputed on the quantized
  // values, so accept any shift in a small neighborhood.)
  for (nn::Param* p : net->params()) {
    if (p->layer_class != nn::LayerClass::kConv) continue;
    const int center = scale_shift(p->value, policy.config().sigma);
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      const float v = p->value[i];
      bool on_grid = false;
      for (int s = center - 2; s <= center + 2 && !on_grid; ++s) {
        on_grid = v == transform_one(v, PositSpec{8, 1}, s);
      }
      ASSERT_TRUE(on_grid) << p->name << "[" << i << "] = " << v;
    }
  }
}

TEST(QuantIntegration, WarmupCheckpointSharedAcrossConfigs) {
  // Train the warm-up once, checkpoint it, and branch into two posit configs:
  // both must resume successfully (the ablation-bench workflow).
  Rng rng(33);
  nn::ResNetConfig rc;
  rc.base_channels = 4;
  rc.classes = 4;
  const auto data = small_task();

  auto warm = nn::cifar_resnet(rc, rng);
  {
    train::Trainer trainer(*warm, small_train_config(2, 0, nullptr));
    trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  }
  std::stringstream checkpoint;
  nn::save_parameters(checkpoint, *warm);

  for (const bool use16 : {false, true}) {
    Rng rng2(99);
    auto net = nn::cifar_resnet(rc, rng2);
    std::stringstream copy(checkpoint.str());
    nn::load_parameters(copy, *net);

    QuantPolicy policy(use16 ? QuantConfig::imagenet16() : QuantConfig::cifar8());
    train::TrainerConfig tc = small_train_config(5, 0, &policy);
    tc.on_warmup_end = [&policy](nn::Module& n) {
      policy.calibrate(n);
      policy.activate();
    };
    train::Trainer trainer(*net, tc);
    const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
    EXPECT_GT(hist.back().train_acc, 0.4f) << "resumed training must keep learning (use16=" << use16 << ")";
  }
}

TEST(QuantIntegration, Fp16BaselineLearnsLikeFp32) {
  Rng rng(35);
  nn::ResNetConfig rc;
  rc.base_channels = 4;
  rc.classes = 4;
  rc.bn_momentum = 0.3f;
  auto net = nn::cifar_resnet(rc, rng);
  const auto data = small_task();

  FpPolicy policy(FpPolicyConfig::fp16_mixed());
  train::TrainerConfig tc = small_train_config(6, 1, &policy);
  tc.on_warmup_end = [&policy](nn::Module&) { policy.activate(); };
  train::Trainer trainer(*net, tc);
  const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  EXPECT_GT(hist.back().test_acc, 0.5f);
}

TEST(QuantIntegration, DeterministicGivenSeeds) {
  const auto run = [] {
    Rng rng(41);
    nn::ResNetConfig rc;
    rc.base_channels = 4;
    rc.classes = 4;
    auto net = nn::cifar_resnet(rc, rng);
    const auto data = small_task();
    QuantPolicy policy(QuantConfig::cifar8());
    train::TrainerConfig tc = small_train_config(3, 1, &policy);
    tc.shuffle_seed = 5;
    tc.on_warmup_end = [&policy](nn::Module& n) {
      policy.calibrate(n);
      policy.activate();
    };
    train::Trainer trainer(*net, tc);
    const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
    return hist.back();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.train_loss, b.train_loss) << "bitwise deterministic training";
  EXPECT_EQ(a.test_acc, b.test_acc);
}

}  // namespace
}  // namespace pdnn::quant
