// train_then_serve_test.cpp — regression for the weight-version contract
// across the training boundary: eval backends and serve::Engines compiled
// BEFORE training must observe the trained weights afterwards (every
// mutation site — SgdMomentum::step, BN running-stat commits — bumps
// Param::version / stats_version, and the cached panels re-derive from
// those), producing outputs bit-identical to a freshly compiled backend.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "serve/engine.hpp"
#include "support/bits.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace pdnn::train {
namespace {

using test_support::bit_identical;
using exec::FloatBackend;
using tensor::Rng;
using tensor::Tensor;

TEST(TrainThenServe, StaleBackendsSeeTrainedWeights) {
  Rng rng(91);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  rc.classes = 3;
  auto net = nn::cifar_resnet(rc, rng);

  // Warm BN stats so the pre-training eval path is nontrivial.
  const Tensor warm = Tensor::randn({4, 3, 8, 8}, rng);
  net->forward(warm, /*training=*/true);

  // Compiled BEFORE training: panels bound to the untrained versions.
  FloatBackend stale = FloatBackend::compile(*net);
  serve::EngineConfig ecfg;
  ecfg.workers = 2;
  ecfg.max_batch = 4;
  ecfg.batch_timeout = std::chrono::microseconds(200);
  serve::Engine engine(stale, ecfg);

  const Tensor probe = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor before = stale.run(probe);  // bind panels pre-training
  ASSERT_EQ(before.shape(), (tensor::Shape{2, 3}));

  TrainerConfig cfg;
  cfg.batch_size = 6;
  cfg.micro_batch = 3;
  cfg.workers = 2;
  cfg.sgd.lr = 0.05f;
  Trainer trainer(*net, cfg);
  const Tensor bx = Tensor::randn({6, 3, 8, 8}, rng);
  const std::vector<int> by = {0, 1, 2, 2, 1, 0};
  for (int s = 0; s < 3; ++s) trainer.step(bx, by);

  // The trained weights (Param::version bumped by SgdMomentum::step) and BN
  // running stats (stats_version bumped by update_running_stats) must flow
  // into the stale backend's panels on its next run.
  FloatBackend fresh = FloatBackend::compile(*net);
  const Tensor want = fresh.run(probe);
  EXPECT_FALSE(bit_identical(before, want)) << "training did not change the model";
  EXPECT_TRUE(bit_identical(stale.run(probe), want))
      << "pre-training backend served stale weights after training";

  // Engine workers cloned pre-training must agree too.
  Tensor sample;
  tensor::extract_sample(probe, 0, sample);
  const Tensor served = engine.submit(sample).get();
  Tensor want_row;
  tensor::extract_sample(want, 0, want_row);
  EXPECT_TRUE(bit_identical(served, want_row))
      << "pre-training engine clone served stale weights after training";
  engine.shutdown();
}

TEST(TrainThenServe, EvalThroughTrainingBackendMatchesFreshCompile) {
  // run() on the training backend itself is the eval forward; after training
  // it must agree with a freshly compiled plain backend (training plans keep
  // bias epilogues but run no fusion passes, which preserve bits anyway).
  Rng rng(92);
  auto net = nn::mlp(6, 12, 3, 2, rng);

  TrainerConfig cfg;
  cfg.batch_size = 4;
  cfg.workers = 1;
  Trainer trainer(*net, cfg);
  const Tensor bx = Tensor::randn({4, 6}, rng);
  const std::vector<int> by = {0, 1, 2, 1};
  for (int s = 0; s < 2; ++s) trainer.step(bx, by);

  FloatBackend training = FloatBackend::compile_training(*net);
  FloatBackend fresh = FloatBackend::compile(*net, nullptr, exec::PlanOptions::none());
  const Tensor probe = Tensor::randn({3, 6}, rng);
  EXPECT_TRUE(bit_identical(training.run(probe), fresh.run(probe)));
}

}  // namespace
}  // namespace pdnn::train
