// mixed_precision_mlp — trains an MLP on the 3-arm spiral dataset under
// several numeric policies and prints a side-by-side comparison, then serves
// the trained model through a compiled quant::PositSession in true posit
// arithmetic — including genuinely mixed per-layer formats via SessionConfig
// overrides. Shows how to assemble a custom QuantConfig (formats, sigma,
// rounding) for non-CNN models and how to migrate inference onto the session.
#include <cstdio>
#include <memory>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "quant/policy.hpp"
#include "quant/posit_session.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace {

using namespace pdnn;

struct Trained {
  std::unique_ptr<nn::Sequential> net;
  float test_acc = 0.0f;
};

Trained train_once(const data::TrainTest& data, const quant::QuantConfig* cfg, std::uint64_t seed) {
  tensor::Rng rng(seed);
  Trained t;
  t.net = nn::mlp(/*in=*/2, /*hidden=*/32, /*classes=*/3, /*depth=*/2, rng);

  std::unique_ptr<quant::QuantPolicy> policy;
  train::TrainerConfig tc;
  tc.epochs = 60;
  tc.batch_size = 32;
  tc.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f};
  tc.schedule = {.base_lr = 0.1f, .drop_epochs = {45}, .factor = 10.0f};
  tc.warmup_epochs = cfg != nullptr ? 2 : 0;
  tc.shuffle_seed = seed;
  if (cfg != nullptr) {
    policy = std::make_unique<quant::QuantPolicy>(*cfg);
    quant::QuantPolicy* raw = policy.get();
    tc.policy = raw;
    tc.on_warmup_end = [raw](nn::Module& n) {
      raw->calibrate(n);
      raw->activate();
    };
  }
  train::Trainer trainer(*t.net, tc);
  const auto hist = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  t.test_acc = hist.back().test_acc;
  return t;
}

}  // namespace

int main() {
  const auto data = data::make_spirals(/*arms=*/3, /*per_arm=*/200, /*noise=*/0.06f, /*seed=*/11);
  std::printf("3-arm spirals, MLP 2-32-32-3, 60 epochs\n\n");

  std::printf("%-36s %s\n", "policy", "test accuracy");
  std::printf("%-36s %.2f%%\n", "FP32", 100.0 * train_once(data, nullptr, 5).test_acc);

  quant::QuantConfig p16 = quant::QuantConfig::imagenet16();
  std::printf("%-36s %.2f%%\n", "posit16 (paper ImageNet config)",
              100.0 * train_once(data, &p16, 5).test_acc);

  quant::QuantConfig p8 = quant::QuantConfig::cifar8();
  std::printf("%-36s %.2f%%\n", "posit8 CONV-style (linear layers)",
              100.0 * train_once(data, &p8, 5).test_acc);

  quant::QuantConfig p8ne = p8;
  p8ne.round_mode = posit::RoundMode::kNearestEven;
  Trained best = train_once(data, &p8ne, 5);
  std::printf("%-36s %.2f%%\n", "posit8, nearest-even rounding", 100.0 * best.test_acc);

  quant::QuantConfig p8ns = p8;
  p8ns.scale_mode = quant::ScaleMode::kNone;
  std::printf("%-36s %.2f%%\n", "posit8, no Eq.2 shifting",
              100.0 * train_once(data, &p8ns, 5).test_acc);

  std::printf(
      "\nnote: unlike the paper's conv-BN networks, this MLP has no BatchNorm to absorb\n"
      "the systematic shrinkage of round-toward-zero, so 8-bit posit training needs\n"
      "nearest-even rounding here; 16-bit posit matches FP32 either way.\n");

  // --- serve the posit8-trained model in TRUE posit arithmetic -------------
  // The training above *simulates* posit numerics in FP32; a compiled
  // PositSession executes the real thing. Per-layer overrides mix formats:
  // the hidden layers stay at posit(8,1) while only the classifier head —
  // where logit margins are decided — gets posit(16,1).
  const auto session_acc = [&](const quant::SessionConfig& cfg) {
    quant::PositSession session = quant::PositSession::compile(*best.net, cfg);
    const tensor::Tensor& logits = session.run(data.test.images);
    return 100.0 * static_cast<double>(tensor::count_correct(logits, data.test.labels)) /
           static_cast<double>(data.test.labels.size());
  };
  quant::SessionConfig u8;
  u8.spec = {8, 1};
  u8.mode = quant::AccumMode::kQuire;
  quant::SessionConfig mixed = u8;
  mixed.by_name["head"] = {posit::PositSpec{16, 1}, {}};
  quant::SessionConfig u16 = u8;
  u16.spec = {16, 1};

  std::printf("\ntrue posit inference of the posit8-trained model (PositSession, quire):\n");
  std::printf("%-36s %.2f%%\n", "all layers posit(8,1)", session_acc(u8));
  std::printf("%-36s %.2f%%\n", "mixed: head overridden to (16,1)", session_acc(mixed));
  std::printf("%-36s %.2f%%\n", "all layers posit(16,1)", session_acc(u16));
  return 0;
}
