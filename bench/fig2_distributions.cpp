// fig2_distributions — reproduces Fig. 2: histograms and distribution
// evolution of a CONV weight and a BN weight across training.
//
// The paper's observation (motivating warm-up training): CONV weight
// distributions are basically stable across training, while BN weight
// distributions move sharply during the first epochs.
#include <cmath>

#include "quant/stats_collector.hpp"
#include "train_common.hpp"

int main() {
  using namespace bench;

  TaskConfig task = synth_cifar_task(/*epochs=*/10);
  task.train.warmup_epochs = 0;  // observe the raw FP32 dynamics like Fig. 2

  const std::string conv_name = "conv1.weight";
  const std::string bn_name = "stage3.block0.bn1.weight";
  quant::WeightStatsCollector collector({conv_name, bn_name});

  std::printf("Fig. 2 reproduction: weight distributions across FP32 training\n\n");
  run_training(task, nullptr, {}, /*seed=*/7,
               [&](std::size_t epoch, nn::Module& net) { collector.collect(epoch, net); });

  for (const std::string& name : {conv_name, bn_name}) {
    const auto& series = collector.series(name);
    std::printf("=== %s ===\n", name.c_str());
    std::printf("%-6s %-10s %-10s %-10s %-10s %s\n", "epoch", "mean", "stddev", "min", "max",
                "log2-center (Eq.2)");
    for (const auto& snap : series) {
      std::printf("%-6zu %-10.4f %-10.4f %-10.4f %-10.4f %.2f\n", snap.epoch, snap.moments.mean,
                  snap.moments.stddev, snap.moments.min, snap.moments.max, snap.log2_center);
    }
    // Panel (a)/(c): histogram at the final epoch.
    std::printf("\nfinal-epoch histogram of %s:\n%s\n", name.c_str(),
                tensor::render_histogram(series.back().hist, 48).c_str());
  }

  // The quantitative form of the paper's observation: relative drift of the
  // distribution width over the first epochs, BN vs CONV.
  const auto drift = [&](const std::string& name) {
    const auto& s = collector.series(name);
    const double first = s.front().moments.stddev;
    const double last = s.back().moments.stddev;
    return std::fabs(last - first) / (first + 1e-12);
  };
  std::printf("relative stddev drift over training: conv1 %.2f%%, bn %.2f%%\n",
              100.0 * drift(conv_name), 100.0 * drift(bn_name));
  std::printf("(paper Fig. 2: BN distributions change steeply early on; CONV stays stable)\n");
  return 0;
}
