// trainer_test.cpp — train::Trainer determinism and correctness: trained
// parameters bit-identical across 1/2/4 workers at fixed micro-batch, a
// single-shard multi-epoch fit (FP32 warm-up, then posit) bit-identical to
// the hand-written eager loop, the warm-up handoff, shard-count metrics
// aggregation, fit()'s epoch loop, and the batch/dataset/policy throws.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "quant/policy.hpp"
#include "support/bits.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace pdnn::train {
namespace {

using test_support::expect_nets_identical;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

std::unique_ptr<nn::Sequential> seeded_cnn(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential* net = new nn::Sequential("net");
  net->add(std::make_unique<nn::Conv2d>("conv", 2, 4, 3, 1, 1, rng, /*with_bias=*/true));
  net->add(std::make_unique<nn::BatchNorm2d>("bn", 4));
  net->add(std::make_unique<nn::ReLU>("relu"));
  net->add(std::make_unique<nn::ResidualBlock>("res", 4, 4, 1, rng));
  net->add(std::make_unique<nn::MaxPool2x2>("pool"));
  net->add(std::make_unique<nn::GlobalAvgPool>("gap"));
  net->add(std::make_unique<nn::Linear>("head", 4, 3, rng));
  return std::unique_ptr<nn::Sequential>(net);
}

TEST(TrainTrainer, ParamsBitIdenticalAcrossWorkerCounts) {
  // Three identically seeded nets; only `workers` differs. The micro-batch
  // (2 samples) defines the numerics, so the trained bits must agree.
  auto n1 = seeded_cnn(21), n2 = seeded_cnn(21), n4 = seeded_cnn(21);

  Rng data_rng(500);
  const Tensor bx = Tensor::randn({8, 2, 8, 8}, data_rng);
  const std::vector<int> by = {0, 1, 2, 0, 1, 2, 0, 1};

  const auto train_with = [&](nn::Sequential& net, std::size_t workers) {
    TrainerConfig cfg;
    cfg.batch_size = 8;
    cfg.micro_batch = 2;
    cfg.workers = workers;
    cfg.sgd.lr = 0.05f;
    Trainer t(net, cfg);
    StepStats last;
    for (int s = 0; s < 3; ++s) last = t.step(bx, by);
    return last;
  };
  const StepStats s1 = train_with(*n1, 1);
  const StepStats s2 = train_with(*n2, 2);
  const StepStats s4 = train_with(*n4, 4);

  expect_nets_identical(*n1, *n2, "1 vs 2 workers");
  expect_nets_identical(*n1, *n4, "1 vs 4 workers");
  EXPECT_EQ(s1.correct, s2.correct);
  EXPECT_EQ(s1.correct, s4.correct);
  EXPECT_DOUBLE_EQ(s1.loss_sum, s2.loss_sum);
  EXPECT_DOUBLE_EQ(s1.loss_sum, s4.loss_sum);
  EXPECT_EQ(s1.count, 8u);
}

TEST(TrainTrainer, PositFitWithWarmupBitIdenticalToEagerLoop) {
  // The paper's flow end to end: an FP32 warm-up epoch, calibrate +
  // activate, then posit-quantized epochs. With one shard per batch, fit()
  // must reproduce the hand-written eager loop — Module::forward/backward
  // under set_policy, SgdMomentum(policy) applying P(W_updated), the same
  // shuffles — in every trained bit and every epoch's training loss.
  auto eager_net = seeded_cnn(77);
  auto plan_net = seeded_cnn(77);
  quant::QuantConfig qc = quant::QuantConfig::cifar8();
  qc.scale_mode = quant::ScaleMode::kCalibrated;
  quant::QuantPolicy eager_policy(qc), plan_policy(qc);

  Rng data_rng(900);
  const std::size_t n = 12;
  const Tensor xs = Tensor::randn({n, 2, 8, 8}, data_rng);
  std::vector<int> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = static_cast<int>(i % 3);

  TrainerConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 5;  // uneven tail batch of 2
  cfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cfg.schedule = {.base_lr = 0.05f, .drop_epochs = {2}, .factor = 10.0f};
  cfg.shuffle_seed = 3;
  cfg.policy = &plan_policy;
  cfg.warmup_epochs = 1;
  cfg.on_warmup_end = [&plan_policy](nn::Module& net) {
    plan_policy.calibrate(net);
    plan_policy.activate();
  };
  Trainer trainer(*plan_net, cfg);
  const std::vector<EpochResult> history = trainer.fit(xs, ys, xs, ys);
  ASSERT_EQ(history.size(), 3u);

  eager_net->set_policy(&eager_policy);
  nn::SgdMomentum opt(eager_net->params(), cfg.sgd, &eager_policy);
  Rng shuffle(cfg.shuffle_seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const std::size_t row = xs.numel() / n;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (epoch == cfg.warmup_epochs) {
      eager_policy.calibrate(*eager_net);
      eager_policy.activate();
    }
    opt.set_lr(cfg.schedule.lr_at(epoch));
    for (std::size_t i = n - 1; i > 0; --i) std::swap(order[i], order[shuffle.uniform_int(i + 1)]);
    double loss_sum = 0.0;
    for (std::size_t lo = 0; lo < n; lo += cfg.batch_size) {
      const std::size_t hi = std::min(n, lo + cfg.batch_size);
      Tensor bx({hi - lo, 2, 8, 8});
      std::vector<int> by(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        std::memcpy(bx.data() + (i - lo) * row, xs.data() + order[i] * row, row * sizeof(float));
        by[i - lo] = ys[order[i]];
      }
      opt.zero_grad();
      const Tensor logits = eager_net->forward(bx, /*training=*/true);
      Tensor dlogits;
      const float loss = tensor::cross_entropy(logits, by, &dlogits);
      loss_sum += static_cast<double>(loss) * static_cast<double>(hi - lo);
      eager_net->backward(dlogits);
      opt.step();
    }
    EXPECT_EQ(history[epoch].train_loss, static_cast<float>(loss_sum / static_cast<double>(n)))
        << "epoch " << epoch;
  }
  expect_nets_identical(*eager_net, *plan_net, "after posit fit");
}

TEST(TrainTrainer, WarmupCallbackFiresOnce) {
  Rng rng(21);
  auto net = nn::mlp(2, 8, 2, 1, rng);
  quant::QuantPolicy policy(quant::QuantConfig::imagenet16());
  TrainerConfig cfg;
  cfg.epochs = 4;
  cfg.warmup_epochs = 2;
  cfg.batch_size = 16;
  cfg.policy = &policy;
  int fired = 0;
  std::size_t epochs_done = 0, fired_at = 999;
  cfg.on_warmup_end = [&](nn::Module&) {
    ++fired;
    fired_at = epochs_done;
    policy.activate();
  };
  cfg.on_epoch_end = [&](std::size_t e, nn::Module&) { EXPECT_EQ(e, epochs_done++); };
  const auto data = data::make_two_moons(40, 0.2f, 9);
  Trainer trainer(*net, cfg);
  const std::vector<EpochResult> history =
      trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fired_at, 2u) << "warm-up ends entering epoch 2";
  EXPECT_EQ(epochs_done, 4u);
  ASSERT_EQ(history.size(), 4u);
  for (std::size_t e = 0; e < history.size(); ++e) {
    EXPECT_EQ(history[e].quantized, e >= cfg.warmup_epochs) << "epoch " << e;
  }
}

TEST(TrainTrainer, UnevenTailShardAndMlpInputs) {
  // 5 samples at micro_batch 2 -> shards of 2, 2, 1; rank-2 (MLP) batches
  // shard through the same extract_span path.
  Rng rng(44);
  auto n1 = nn::mlp(6, 10, 3, 2, rng);
  Rng rng2(44);
  auto n2 = nn::mlp(6, 10, 3, 2, rng2);

  Rng data_rng(700);
  const Tensor bx = Tensor::randn({5, 6}, data_rng);
  const std::vector<int> by = {0, 1, 2, 1, 0};

  const auto train_with = [&](nn::Sequential& net, std::size_t workers) {
    TrainerConfig cfg;
    cfg.batch_size = 6;
    cfg.micro_batch = 2;
    cfg.workers = workers;
    Trainer t(net, cfg);
    for (int s = 0; s < 2; ++s) t.step(bx, by);
  };
  train_with(*n1, 1);
  train_with(*n2, 3);
  expect_nets_identical(*n1, *n2, "1 vs 3 workers, uneven tail");
}

TEST(TrainTrainer, FitRunsEpochsAndEvaluates) {
  Rng rng(55);
  auto net = nn::mlp(4, 8, 2, 2, rng);

  Rng data_rng(800);
  const std::size_t n = 24;
  Tensor xs({n, 4});
  std::vector<int> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    for (std::size_t j = 0; j < 4; ++j) {
      xs.at(i, j) = static_cast<float>(data_rng.normal(cls == 0 ? -1.0 : 1.0, 0.25));
    }
    ys[i] = cls;
  }

  TrainerConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 8;
  cfg.micro_batch = 4;
  cfg.workers = 2;
  cfg.sgd.lr = 0.1f;
  cfg.schedule.base_lr = 0.1f;
  cfg.schedule.drop_epochs = {3};
  Trainer trainer(*net, cfg);
  const std::vector<EpochResult> history = trainer.fit(xs, ys, xs, ys);

  ASSERT_EQ(history.size(), 4u);
  EXPECT_FLOAT_EQ(history[0].lr, 0.1f);
  EXPECT_FLOAT_EQ(history[3].lr, 0.01f);
  // A linearly separable toy set: training must reach high accuracy.
  EXPECT_GE(history.back().test_acc, 0.9f);
  EXPECT_GE(trainer.evaluate(xs, ys), 0.9f);
  EXPECT_GT(trainer.arena_bytes(), 0u);
  EXPECT_EQ(trainer.workers(), 2u);
}

TEST(TrainTrainer, DegenerateBatchesThrow) {
  Rng rng(66);
  auto net = nn::mlp(4, 8, 2, 2, rng);
  TrainerConfig cfg;
  cfg.batch_size = 4;
  Trainer t(*net, cfg);

  EXPECT_THROW(t.step(Tensor(), {}), std::invalid_argument);
  EXPECT_THROW(t.step(Tensor::zeros({0, 4}), {}), std::invalid_argument);
  EXPECT_THROW(t.step(Tensor::zeros({2, 4}), {0}), std::invalid_argument);
  EXPECT_THROW(t.step(Tensor::zeros({8, 4}), std::vector<int>(8, 0)), std::invalid_argument);

  // Empty datasets and label/row count mismatches, train and eval side.
  const Tensor x4 = Tensor::zeros({4, 4});
  const std::vector<int> y4(4, 0);
  EXPECT_THROW(t.fit(Tensor(), {}, x4, y4), std::invalid_argument);
  EXPECT_THROW(t.fit(Tensor::zeros({0, 4}), {}, x4, y4), std::invalid_argument);
  EXPECT_THROW(t.fit(x4, {0, 1}, x4, y4), std::invalid_argument);
  EXPECT_THROW(t.fit(x4, std::vector<int>(5, 0), x4, y4), std::invalid_argument);
  EXPECT_THROW(t.fit(x4, y4, Tensor::zeros({0, 4}), {}), std::invalid_argument);
  EXPECT_THROW(t.fit(x4, y4, x4, {0}), std::invalid_argument);
  EXPECT_THROW(t.evaluate(Tensor::zeros({0, 4}), {}), std::invalid_argument);
  EXPECT_THROW(t.evaluate(x4, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(t.evaluate(x4, std::vector<int>(5, 0)), std::invalid_argument);

  TrainerConfig bad;
  bad.batch_size = 0;
  EXPECT_THROW(Trainer(*net, bad), std::invalid_argument);
  // A policy's hook order must not depend on thread scheduling.
  quant::QuantPolicy policy;
  cfg.policy = &policy;
  cfg.workers = 2;
  EXPECT_THROW(Trainer(*net, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pdnn::train
