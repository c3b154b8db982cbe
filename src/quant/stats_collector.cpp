#include "quant/stats_collector.hpp"

#include <algorithm>
#include <cmath>

namespace pdnn::quant {

const std::vector<WeightSnapshot> WeightStatsCollector::kEmpty{};

void WeightStatsCollector::collect(std::size_t epoch, nn::Module& net) {
  for (nn::Param* p : net.params()) {
    if (std::find(patterns_.begin(), patterns_.end(), p->name) == patterns_.end()) continue;
    WeightSnapshot snap;
    snap.epoch = epoch;
    snap.moments = tensor::moments(p->value);
    snap.log2_center = tensor::log2_mean(p->value);
    // Symmetric range padded 10% beyond the extremes (like a Fig. 2 panel).
    const double extent = std::max(std::fabs(snap.moments.min), std::fabs(snap.moments.max)) * 1.1 + 1e-9;
    snap.hist = tensor::histogram(p->value, -extent, extent, bins_);
    series_[p->name].push_back(std::move(snap));
  }
}

const std::vector<WeightSnapshot>& WeightStatsCollector::series(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? kEmpty : it->second;
}

std::vector<std::string> WeightStatsCollector::tracked() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, _] : series_) names.push_back(name);
  return names;
}

}  // namespace pdnn::quant
