// train_synthcifar — end-to-end posit training on the synthetic Cifar-like
// task, following the paper's full recipe (Section III): FP32 warm-up,
// per-dataflow posit formats, layer-wise scaling.
//
// Usage: train_synthcifar [epochs] [fp32|posit8|posit16]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "quant/policy.hpp"
#include "train/trainer.hpp"

int main(int argc, char** argv) {
  using namespace pdnn;
  const std::size_t epochs = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 10;
  const char* mode = argc > 2 ? argv[2] : "posit8";

  // Dataset: 10-class procedural images (stand-in for Cifar-10).
  data::SynthCifarConfig dc;
  dc.classes = 10;
  dc.train_per_class = 100;
  dc.test_per_class = 30;
  dc.height = dc.width = 16;
  const auto data = data::make_synth_cifar(dc);

  // Model: Cifar-ResNet topology (He et al.), scaled to ResNet-8.
  tensor::Rng rng(42);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 8;
  auto net = nn::cifar_resnet(rc, rng);

  // Precision policy per Table III.
  std::unique_ptr<quant::QuantPolicy> policy;
  if (std::strcmp(mode, "posit8") == 0) {
    policy = std::make_unique<quant::QuantPolicy>(quant::QuantConfig::cifar8());
  } else if (std::strcmp(mode, "posit16") == 0) {
    policy = std::make_unique<quant::QuantPolicy>(quant::QuantConfig::imagenet16());
  } else if (std::strcmp(mode, "fp32") != 0) {
    std::fprintf(stderr, "unknown mode '%s' (use fp32|posit8|posit16)\n", mode);
    return 1;
  }

  train::TrainerConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 50;
  tc.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 1e-4f};
  tc.schedule = {.base_lr = 0.1f, .drop_epochs = {epochs * 3 / 5, epochs * 4 / 5}, .factor = 10.0f};
  tc.warmup_epochs = policy ? 1 : 0;  // paper: 1 warm-up epoch on Cifar-10
  tc.verbose = true;
  if (policy) {
    quant::QuantPolicy* raw = policy.get();
    tc.policy = raw;
    tc.on_warmup_end = [raw](nn::Module& n) {
      raw->calibrate(n);
      raw->activate();
    };
  }

  std::printf("training ResNet-8 on synth-Cifar-10 in mode '%s' for %zu epochs\n", mode, epochs);
  train::Trainer trainer(*net, tc);
  const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);

  std::printf("\nfinal test accuracy: %.2f%%\n", 100.0 * hist.back().test_acc);
  if (policy) {
    std::printf("posit transforms performed: %zu\n", policy->transforms_performed());
  }
  return 0;
}
