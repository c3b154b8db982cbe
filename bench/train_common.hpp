// train_common.hpp — shared setup for the training benches (Table III,
// Fig. 2, ablations): a laptop-scale stand-in for the paper's Cifar-10 /
// ImageNet experiments (see DESIGN.md §2 for the substitution rationale).
#pragma once

#include <cstdio>
#include <functional>
#include <string>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "quant/policy.hpp"
#include "train/trainer.hpp"

namespace bench {

using namespace pdnn;

struct TaskConfig {
  data::SynthCifarConfig data;
  nn::ResNetConfig net;
  train::TrainerConfig train;
};

/// The synth-Cifar-10 task: 10 classes, 16x16, ResNet-8 (paper: Cifar-10,
/// 32x32, Cifar-ResNet-18; scaled for a single CPU core).
inline TaskConfig synth_cifar_task(std::size_t epochs = 14) {
  TaskConfig t;
  t.data.classes = 10;
  t.data.train_per_class = 90;
  t.data.test_per_class = 50;
  t.data.height = t.data.width = 16;
  t.data.noise = 0.75f;  // hard enough that FP32 stays below ceiling
  t.data.seed = 2024;

  t.net.blocks_per_stage = 1;  // ResNet-8
  t.net.base_channels = 8;
  t.net.classes = 10;
  t.net.bn_momentum = 0.3f;  // few steps/epoch at this scale: track faster

  t.train.epochs = epochs;
  t.train.batch_size = 50;
  // Paper (Cifar-10): SGD momentum 0.9, lr 0.1, /10 at fixed epochs.
  t.train.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 1e-4f};
  t.train.schedule = {.base_lr = 0.1f,
                      .drop_epochs = {epochs * 3 / 5, epochs * 4 / 5},
                      .factor = 10.0f};
  t.train.warmup_epochs = 1;  // paper: 1 epoch for Cifar-10
  return t;
}

/// A harder 20-class task standing in for the paper's ImageNet run (posit-16
/// everywhere). Paper: ResNet-18 / ImageNet / 5 warm-up epochs.
inline TaskConfig synth_imagenet_proxy_task(std::size_t epochs = 12) {
  TaskConfig t;
  t.data.classes = 20;
  t.data.train_per_class = 60;
  t.data.test_per_class = 25;
  t.data.height = t.data.width = 16;
  t.data.noise = 0.85f;
  t.data.seed = 777;

  t.net.blocks_per_stage = 1;
  t.net.base_channels = 8;
  t.net.classes = 20;
  t.net.bn_momentum = 0.3f;

  t.train.epochs = epochs;
  t.train.batch_size = 50;
  t.train.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 1e-4f};
  t.train.schedule = {.base_lr = 0.1f, .drop_epochs = {epochs * 2 / 3}, .factor = 10.0f};
  t.train.warmup_epochs = 2;  // scaled-down analogue of the paper's 5
  return t;
}

struct RunResult {
  float best_test_acc = 0.0f;
  float final_test_acc = 0.0f;
  std::vector<train::EpochResult> history;
};

/// The paper's warm-up handoff for a QuantPolicy: freeze the calibrated
/// weight shifts from the warm-up model, then switch quantization on.
inline std::function<void(nn::Module&)> quant_handoff(quant::QuantPolicy& policy) {
  return [&policy](nn::Module& net) {
    policy.calibrate(net);
    policy.activate();
  };
}

/// Trains one network on the task with train::Trainer. With a `policy`,
/// runs the paper's flow: FP32 warm-up, then `on_warmup` switches the policy
/// on (quant_handoff for a QuantPolicy) and every Fig. 3 hook quantizes.
/// Without one, a pure FP32 run.
inline RunResult run_training(const TaskConfig& task, nn::PrecisionPolicy* policy = nullptr,
                              std::function<void(nn::Module&)> on_warmup = {},
                              std::uint64_t seed = 7,
                              std::function<void(std::size_t, nn::Module&)> epoch_hook = {}) {
  tensor::Rng rng(seed);
  auto net = nn::cifar_resnet(task.net, rng);
  const auto data = data::make_synth_cifar(task.data);

  train::TrainerConfig tc = task.train;
  tc.shuffle_seed = seed;
  tc.policy = policy;
  tc.on_warmup_end = std::move(on_warmup);
  tc.on_epoch_end = std::move(epoch_hook);
  train::Trainer trainer(*net, tc);
  RunResult r;
  r.history = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  for (const auto& e : r.history) r.best_test_acc = std::max(r.best_test_acc, e.test_acc);
  r.final_test_acc = r.history.back().test_acc;
  return r;
}

}  // namespace bench
