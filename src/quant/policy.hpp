// policy.hpp — the paper's posit training policy, wired into the Fig. 3 hook.
//
// Every Fig. 3 site calls the one PrecisionPolicy::quantize(t, name, cls,
// role) hook; QuantPolicy picks the format from (cls, role), the shift from
// the scale mode, and runs quant::transform_span once over the tensor.
// Format assignment follows Section III-B "Adjust Dynamic Range" and the
// Table III footnotes:
//   * weights & activations (forward, update): es = 1
//   * errors & weight gradients (backward):    es = 2
//   * CONV/Linear layers: n = 8 (Cifar-10 config) or 16 (ImageNet config)
//   * BN layers:          n = 16 in both configs
// Scaling follows Eq. (2)/(3); the shift is recomputed from each tensor at
// transform time (kDynamic) or frozen from the warm-up model's weights
// (kCalibrated, weights only — activation/gradient shifts stay dynamic since
// they do not exist at calibration time). kNone disables shifting (ablation).
#pragma once

#include <map>
#include <optional>

#include "nn/layers.hpp"
#include "nn/precision.hpp"
#include "quant/posit_transform.hpp"
#include "quant/scale.hpp"

namespace pdnn::quant {

enum class ScaleMode {
  kNone,        ///< raw P(x), no distribution shifting (ablation)
  kDynamic,     ///< Eq. (2) recomputed from every tensor instance
  kCalibrated,  ///< weight shifts frozen at warm-up end; others dynamic
};

/// Formats for one layer family.
struct FormatPair {
  PositSpec forward{8, 1};   ///< weights & activations
  PositSpec backward{8, 2};  ///< errors & weight gradients
};

struct QuantConfig {
  FormatPair conv{{8, 1}, {8, 2}};      ///< Table III Cifar-10 CONV config
  FormatPair bn{{16, 1}, {16, 2}};      ///< Table III Cifar-10 BN config
  FormatPair linear{{8, 1}, {8, 2}};    ///< FC treated like CONV
  int sigma = kPaperSigma;
  ScaleMode scale_mode = ScaleMode::kDynamic;
  posit::RoundMode round_mode = posit::RoundMode::kTowardZero;
  std::uint64_t stochastic_seed = 0x5EED;

  /// The paper's ImageNet config: posit 16 everywhere.
  static QuantConfig imagenet16() {
    QuantConfig c;
    c.conv = {{16, 1}, {16, 2}};
    c.bn = {{16, 1}, {16, 2}};
    c.linear = {{16, 1}, {16, 2}};
    return c;
  }
  /// The paper's Cifar-10 config: posit 8 for CONV, posit 16 for BN.
  static QuantConfig cifar8() { return QuantConfig{}; }
};

class QuantPolicy final : public nn::PrecisionPolicy {
 public:
  explicit QuantPolicy(QuantConfig cfg = {}) : cfg_(cfg), rng_(cfg.stochastic_seed) {}

  bool active() const override { return active_; }
  /// Flip quantization on (wired to Trainer's on_warmup_end).
  void activate() { active_ = true; }
  void deactivate() { active_ = false; }

  /// Freeze per-layer weight shifts from the (warm-up trained) network.
  /// Only meaningful in ScaleMode::kCalibrated.
  void calibrate(nn::Module& net);

  /// P(x / Sf) * Sf with the (cls, role) format and the role's Eq. (2)
  /// shift. Under kCalibrated, the kWeight and kUpdatedWeight sites look up
  /// the frozen shift by `name`, the parameter's name.
  void quantize(tensor::Tensor& t, const std::string& name, nn::LayerClass cls,
                nn::TensorRole role) override;

  const QuantConfig& config() const { return cfg_; }
  /// Number of element transforms performed since construction (diagnostics).
  std::size_t transforms_performed() const { return transforms_; }
  /// Calibrated shift for a parameter, if frozen.
  std::optional<int> calibrated_shift(const std::string& param) const;

 private:
  const PositSpec& format_of(nn::LayerClass cls, nn::TensorRole role) const;
  int shift_of(const tensor::Tensor& t, const std::string& name, nn::TensorRole role) const;

  QuantConfig cfg_;
  bool active_ = false;
  std::map<std::string, int> weight_shifts_;  // parameter name -> frozen shift
  posit::RoundingRng rng_;
  std::size_t transforms_ = 0;
};

}  // namespace pdnn::quant
