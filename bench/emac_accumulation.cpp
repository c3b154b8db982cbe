// emac_accumulation — accuracy of TRUE posit inference under the three
// accumulation strategies, on a model trained with the paper's methodology.
//
// Context (Section II-B): Deep Positron uses exact multiply-and-accumulate
// (EMAC, i.e. a quire); the paper's own MAC (Fig. 4) converts to FP and
// accumulates with rounding. This bench quantifies what that choice costs at
// inference time, and validates that FP32-simulated quantized training
// faithfully predicts true posit execution.
#include <cstdio>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "quant/posit_session.hpp"
#include "train/trainer.hpp"

int main() {
  using namespace pdnn;
  using quant::AccumMode;

  // Train an MLP on spirals with the posit-16 recipe.
  tensor::Rng rng(21);
  auto net = nn::mlp(2, 32, 3, 2, rng);
  const auto data = data::make_spirals(3, 250, 0.08f, 9);

  quant::QuantConfig cfg = quant::QuantConfig::imagenet16();
  quant::QuantPolicy policy(cfg);
  train::TrainerConfig tc;
  tc.epochs = 50;
  tc.batch_size = 32;
  tc.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f};
  tc.schedule = {.base_lr = 0.1f, .drop_epochs = {40}, .factor = 10.0f};
  tc.policy = &policy;
  tc.warmup_epochs = 2;
  tc.on_warmup_end = [&policy](nn::Module& n) {
    policy.calibrate(n);
    policy.activate();
  };
  train::Trainer trainer(*net, tc);
  trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);

  const float sim_acc = trainer.evaluate(data.test.images, data.test.labels);
  std::printf("3-arm spirals, MLP trained with posit-16 recipe\n\n");
  std::printf("%-46s %s\n", "inference arithmetic", "test accuracy");
  std::printf("%-46s %.2f%%\n", "FP32-simulated quantization (training view)", 100.0 * sim_acc);

  // The session reads the raw (already on-grid) weights; no policy applies.
  const auto eval_mode = [&](const char* name, AccumMode mode, const quant::QuantConfig& c) {
    quant::PositSession session =
        quant::PositSession::compile(*net, quant::SessionConfig::from_quant(c, mode));
    const tensor::Tensor& logits = session.run(data.test.images);
    const std::size_t correct = tensor::count_correct(logits, data.test.labels);
    std::printf("%-46s %.2f%%\n", name,
                100.0 * static_cast<double>(correct) / static_cast<double>(data.test.size()));
  };
  eval_mode("posit16, quire accumulation (Deep Positron EMAC)", AccumMode::kQuire, cfg);
  eval_mode("posit16, FMA chain (paper's Fig. 4 MAC)", AccumMode::kFma, cfg);
  eval_mode("posit16, serial rounded adds", AccumMode::kSerial, cfg);

  // Drop the deployed precision to 8 bits (weights were trained at 16).
  quant::QuantConfig cfg8 = quant::QuantConfig::cifar8();
  eval_mode("posit8,  quire accumulation", AccumMode::kQuire, cfg8);
  eval_mode("posit8,  FMA chain", AccumMode::kFma, cfg8);
  eval_mode("posit8,  serial rounded adds", AccumMode::kSerial, cfg8);

  std::printf("\nexpected shape: simulated == true posit-16 (emulation fidelity); quire and fma\n");
  std::printf("agree; serial rounded accumulation trails slightly at 8 bits.\n");
  return 0;
}
