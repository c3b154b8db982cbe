// stats_collector.hpp — Fig. 2 support: per-epoch weight-distribution records.
//
// The paper's Fig. 2 plots (a,c) histograms and (b,d) the evolution of the
// distribution of conv1.weight and a BN weight across training, motivating the
// warm-up phase (BN distributions move sharply in the first epochs). The
// collector snapshots moments, log2-domain center and histograms of selected
// parameters each epoch; the fig2 bench renders them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "tensor/stats.hpp"

namespace pdnn::quant {

struct WeightSnapshot {
  std::size_t epoch = 0;
  tensor::Moments moments;
  double log2_center = 0.0;  ///< unrounded Eq. (2) center
  tensor::Histogram hist;    ///< linear-domain histogram
};

class WeightStatsCollector {
 public:
  /// `patterns`: parameter names to track (exact match), e.g. "conv1.weight".
  explicit WeightStatsCollector(std::vector<std::string> patterns, std::size_t bins = 40)
      : patterns_(std::move(patterns)), bins_(bins) {}

  /// Snapshot all tracked parameters of `net` (call from on_epoch_end).
  void collect(std::size_t epoch, nn::Module& net);

  const std::vector<WeightSnapshot>& series(const std::string& name) const;
  std::vector<std::string> tracked() const;

 private:
  std::vector<std::string> patterns_;
  std::size_t bins_;
  std::map<std::string, std::vector<WeightSnapshot>> series_;
  static const std::vector<WeightSnapshot> kEmpty;
};

}  // namespace pdnn::quant
