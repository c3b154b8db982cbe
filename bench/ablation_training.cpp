// ablation_training — ablates the three techniques of Section III-B on the
// synth-Cifar task, validating the paper's design choices:
//   1. warm-up training (FP32 for the first epoch(s)),
//   2. distribution-based shifting (Eq. 2/3, including the sigma constant),
//   3. per-dataflow es (es=1 forward, es=2 backward),
// plus a rounding-mode comparison (the paper picks round-toward-zero for
// hardware cost, accepting its slightly worse numerics).
#include "quant/float_policy.hpp"
#include "train_common.hpp"

int main() {
  using namespace bench;
  const TaskConfig base_task = synth_cifar_task(/*epochs=*/12);

  struct Entry {
    std::string name;
    float best = 0.0f, final = 0.0f;
  };
  std::vector<Entry> results;
  const auto report = [&](const std::string& name, const RunResult& r) {
    results.push_back({name, r.best_test_acc, r.final_test_acc});
    std::printf("  %-44s best %.2f%%  final %.2f%%\n", name.c_str(), 100.0 * r.best_test_acc,
                100.0 * r.final_test_acc);
    std::fflush(stdout);
  };
  const auto run = [&](const std::string& name, const TaskConfig& task,
                       const quant::QuantConfig& cfg) {
    quant::QuantPolicy policy(cfg);
    report(name, run_training(task, &policy, quant_handoff(policy)));
  };

  std::printf("Ablations of the paper's training techniques (synth-Cifar, ResNet-8)\n\n");

  report("FP32 baseline", run_training(base_task));

  quant::QuantConfig paper = quant::QuantConfig::cifar8();
  run("posit, full paper recipe", base_task, paper);

  {
    TaskConfig no_warmup = base_task;
    no_warmup.train.warmup_epochs = 0;
    run("posit, NO warm-up", no_warmup, paper);
  }
  {
    quant::QuantConfig cfg = paper;
    cfg.scale_mode = quant::ScaleMode::kNone;
    run("posit, NO distribution shifting", base_task, cfg);
  }
  {
    quant::QuantConfig cfg = paper;
    cfg.scale_mode = quant::ScaleMode::kCalibrated;
    run("posit, calibrated (frozen) weight shifts", base_task, cfg);
  }
  for (const int sigma : {0, 1, 3}) {
    quant::QuantConfig cfg = paper;
    cfg.sigma = sigma;
    run("posit, sigma = " + std::to_string(sigma) + " (paper: 2)", base_task, cfg);
  }
  {
    // es = 1 for the backward dataflow too (ablating "Adjust Dynamic Range").
    quant::QuantConfig cfg = paper;
    cfg.conv.backward = pdnn::posit::PositSpec{8, 1};
    cfg.bn.backward = pdnn::posit::PositSpec{16, 1};
    cfg.linear.backward = pdnn::posit::PositSpec{8, 1};
    run("posit, es=1 for gradients/errors (no es split)", base_task, cfg);
  }
  {
    quant::QuantConfig cfg = paper;
    cfg.round_mode = pdnn::posit::RoundMode::kNearestEven;
    run("posit, round-to-nearest-even", base_task, cfg);
  }
  {
    quant::QuantConfig cfg = paper;
    cfg.round_mode = pdnn::posit::RoundMode::kStochastic;
    run("posit, stochastic rounding", base_task, cfg);
  }

  // --- reduced-precision FLOAT baselines (Section II-A related work) -------
  const auto run_fp = [&](const std::string& name, quant::FpPolicyConfig cfg) {
    quant::FpPolicy policy(cfg);
    report(name, run_training(base_task, &policy, [&policy](nn::Module&) { policy.activate(); }));
  };
  run_fp("FP16 mixed (Micikevicius-style, FP32 master)", quant::FpPolicyConfig::fp16_mixed());
  {
    quant::FpPolicyConfig cfg;  // plain fp16 everywhere, quantized updates
    cfg.scale_mode = quant::ScaleMode::kDynamic;
    run_fp("FP16 everywhere (quantized updates)", cfg);
  }
  run_fp("FP8 1-5-2 (Wang-style, FP16 updates)", quant::FpPolicyConfig::fp8_training());

  std::printf("\nexpected shape: the full recipe tracks FP32; dropping warm-up or shifting hurts;\n");
  std::printf("sigma near 2 and the es split should be at or near the best posit rows;\n");
  std::printf("posit-8 should be competitive with FP8 at the same bit budget.\n");
  return 0;
}
