// training_test.cpp — optimizer, schedule and end-to-end learning tests
// (the networks train through train::Trainer).
#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "train/trainer.hpp"

namespace pdnn::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;
using train::Trainer;
using train::TrainerConfig;

TEST(SgdMomentum, MinimizesQuadratic) {
  // Minimize f(w) = 0.5 * ||w - target||^2 by feeding grad = w - target.
  Param p;
  p.name = "w";
  p.value = Tensor({4});
  p.grad = Tensor({4});
  const float target[4] = {1.0f, -2.0f, 0.5f, 3.0f};
  SgdMomentum opt({&p}, {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f});
  for (int iter = 0; iter < 300; ++iter) {
    opt.zero_grad();
    for (std::size_t i = 0; i < 4; ++i) p.grad[i] = p.value[i] - target[i];
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(p.value[i], target[i], 1e-3);
}

TEST(SgdMomentum, WeightDecayShrinksWeights) {
  Param p;
  p.value = Tensor::full({1}, 1.0f);
  p.grad = Tensor({1});
  p.decay = true;
  SgdMomentum opt({&p}, {.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.1f});
  opt.step();  // grad 0, decay pulls toward 0
  EXPECT_LT(p.value[0], 1.0f);

  Param q;  // decay=false params are exempt (BN gamma/beta)
  q.value = Tensor::full({1}, 1.0f);
  q.grad = Tensor({1});
  q.decay = false;
  SgdMomentum opt2({&q}, {.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.1f});
  opt2.step();
  EXPECT_FLOAT_EQ(q.value[0], 1.0f);
}

TEST(StepSchedule, PaperCifarSchedule) {
  // "initial 0.1, divided by 10 at epoch 60, 150 and 250".
  StepSchedule s{.base_lr = 0.1f, .drop_epochs = {60, 150, 250}, .factor = 10.0f};
  EXPECT_FLOAT_EQ(s.lr_at(0), 0.1f);
  EXPECT_FLOAT_EQ(s.lr_at(59), 0.1f);
  EXPECT_FLOAT_EQ(s.lr_at(60), 0.01f);
  EXPECT_FLOAT_EQ(s.lr_at(149), 0.01f);
  EXPECT_FLOAT_EQ(s.lr_at(150), 0.001f);
  EXPECT_FLOAT_EQ(s.lr_at(299), 0.0001f);
}

TEST(TrainerEndToEnd, MlpLearnsTwoMoons) {
  Rng rng(20);
  auto net = mlp(2, 24, 2, 2, rng);
  TrainerConfig cfg;
  cfg.epochs = 40;
  cfg.batch_size = 32;
  cfg.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f};
  cfg.schedule = {.base_lr = 0.1f, .drop_epochs = {30}, .factor = 10.0f};

  const auto data = data::make_two_moons(200, 0.15f, 7);
  Trainer trainer(*net, cfg);
  const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  ASSERT_EQ(hist.size(), 40u);
  EXPECT_GT(hist.back().test_acc, 0.95f) << "two moons should be separable";
  EXPECT_LT(hist.back().train_loss, hist.front().train_loss);
}

TEST(TrainerEndToEnd, ResNetLearnsSynthCifarQuickly) {
  Rng rng(22);
  ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  auto net = cifar_resnet(rc, rng);

  data::SynthCifarConfig dc;
  dc.classes = 4;
  dc.train_per_class = 40;
  dc.test_per_class = 15;
  dc.height = dc.width = 12;
  dc.noise = 0.25f;
  const auto data = data::make_synth_cifar(dc);

  TrainerConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  cfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cfg.schedule = {.base_lr = 0.05f, .drop_epochs = {6}, .factor = 10.0f};
  Trainer trainer(*net, cfg);
  const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  EXPECT_GT(hist.back().test_acc, 0.55f) << "well above 25% chance on 4 classes";
}

TEST(TrainerEvaluate, MatchesManualCount) {
  Rng rng(23);
  auto net = mlp(2, 4, 2, 1, rng);
  const auto data = data::make_two_moons(20, 0.2f, 11);
  Trainer trainer(*net, TrainerConfig{});
  const std::size_t correct =
      tensor::count_correct(net->forward(data.test.images, false), data.test.labels);
  EXPECT_EQ(trainer.evaluate(data.test.images, data.test.labels),
            static_cast<float>(correct) / static_cast<float>(data.test.labels.size()));
}

}  // namespace
}  // namespace pdnn::nn
