// table3_accuracy — reproduces Table III: "Training configurations and
// validate accuracies results".
//
// Paper rows (absolute numbers are theirs; ours come from the synthetic
// stand-in tasks — DESIGN.md §2):
//   Cifar-10  / Cifar-ResNet-18 : FP32 93.40 vs posit 92.87
//     posit (8,1) CONV forward+update, (8,2) CONV backward,
//     (16,1) BN forward+update, (16,2) BN backward
//   ImageNet  / ResNet-18       : FP32 71.02 vs posit 71.09
//     posit (16,1) forward+update, (16,2) backward
// The claim under test is RELATIVE: posit training reaches the FP32 baseline
// of the same model/dataset.
#include "train_common.hpp"

int main() {
  using namespace bench;

  std::printf("Table III reproduction: FP32 baseline vs posit training\n");
  std::printf("(synthetic stand-in tasks; the paper's claim is the FP32-vs-posit delta)\n\n");

  // --- Cifar-10 analogue --------------------------------------------------
  {
    const TaskConfig task = synth_cifar_task();
    std::printf("[synth-Cifar-10] ResNet-8, %zux%zu, %zu classes, %zu epochs, batch %zu,\n"
                "  SGD momentum 0.9, warm-up %zu epoch(s)\n",
                task.data.height, task.data.width, task.data.classes, task.train.epochs,
                task.train.batch_size, task.train.warmup_epochs);

    const RunResult fp32 = run_training(task);
    quant::QuantPolicy policy(quant::QuantConfig::cifar8());
    const RunResult posit = run_training(task, &policy, quant_handoff(policy));

    std::printf("  FP32 baseline : final %.2f%%  best %.2f%%\n", 100.0 * fp32.final_test_acc,
                100.0 * fp32.best_test_acc);
    std::printf("  posit (8,1)/(8,2) CONV + (16,1)/(16,2) BN : final %.2f%%  best %.2f%%\n",
                100.0 * posit.final_test_acc, 100.0 * posit.best_test_acc);
    std::printf("  delta (posit - FP32, best): %+.2f points   [paper: 92.87 - 93.40 = -0.53]\n\n",
                100.0 * (posit.best_test_acc - fp32.best_test_acc));
  }

  // --- ImageNet analogue ----------------------------------------------------
  {
    const TaskConfig task = synth_imagenet_proxy_task();
    std::printf("[synth-ImageNet-proxy] ResNet-8, %zu classes, %zu epochs, warm-up %zu epochs\n",
                task.data.classes, task.train.epochs, task.train.warmup_epochs);

    const RunResult fp32 = run_training(task);
    quant::QuantPolicy policy(quant::QuantConfig::imagenet16());
    const RunResult posit = run_training(task, &policy, quant_handoff(policy));

    std::printf("  FP32 baseline : final %.2f%%  best %.2f%%\n", 100.0 * fp32.final_test_acc,
                100.0 * fp32.best_test_acc);
    std::printf("  posit (16,1) fwd/update + (16,2) bwd : final %.2f%%  best %.2f%%\n",
                100.0 * posit.final_test_acc, 100.0 * posit.best_test_acc);
    std::printf("  delta (posit - FP32, best): %+.2f points   [paper: 71.09 - 71.02 = +0.07]\n",
                100.0 * (posit.best_test_acc - fp32.best_test_acc));
  }
  return 0;
}
