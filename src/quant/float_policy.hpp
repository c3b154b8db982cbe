// float_policy.hpp — reduced-precision FLOAT training policy (the baseline).
//
// Mirrors QuantPolicy's use of the Fig. 3 hook (one quantize() override that
// picks the format from the TensorRole) but quantizes to small IEEE-like
// floats with fp_quantize_span instead of posits, reproducing the training
// schemes the paper compares against in Section II-A:
//   * Micikevicius et al. FP16: half precision compute, FP32 master weights
//     (quantize_weight_update = false), dynamic per-tensor scaling standing in
//     for their loss-scaling;
//   * Wang et al. FP8 (1-5-2): 8-bit compute with FP16-ish updates.
#pragma once

#include "nn/precision.hpp"
#include "quant/float_transform.hpp"
#include "quant/policy.hpp"
#include "quant/scale.hpp"

namespace pdnn::quant {

struct FpPolicyConfig {
  FpSpec forward = FpSpec::fp16();   ///< weights & activations
  FpSpec backward = FpSpec::fp16();  ///< errors & weight gradients
  FpSpec update = FpSpec::fp16();    ///< stored weights after the SGD step
  bool quantize_weight_update = true;  ///< false = keep FP32 master weights
  ScaleMode scale_mode = ScaleMode::kNone;  ///< dynamic shift (loss-scaling analogue)
  int sigma = kPaperSigma;
  posit::RoundMode round_mode = posit::RoundMode::kNearestEven;

  /// Micikevicius et al.: FP16 compute, FP32 master weights, scaling.
  static FpPolicyConfig fp16_mixed() {
    FpPolicyConfig c;
    c.quantize_weight_update = false;
    c.scale_mode = ScaleMode::kDynamic;
    return c;
  }
  /// Wang et al.: FP8 (1-5-2) compute, FP16 weight update.
  static FpPolicyConfig fp8_training() {
    FpPolicyConfig c;
    c.forward = FpSpec::fp8_152();
    c.backward = FpSpec::fp8_152();
    c.update = FpSpec::fp16();
    c.scale_mode = ScaleMode::kDynamic;
    return c;
  }
};

class FpPolicy final : public nn::PrecisionPolicy {
 public:
  explicit FpPolicy(FpPolicyConfig cfg = {}) : cfg_(cfg), rng_(0xF10A7) {}

  bool active() const override { return active_; }
  void activate() { active_ = true; }
  void deactivate() { active_ = false; }

  /// Forward format for kWeight/kActivation, backward for kError/kGradient,
  /// update for kUpdatedWeight (skipped with FP32 master weights).
  void quantize(tensor::Tensor& t, const std::string& name, nn::LayerClass cls,
                nn::TensorRole role) override;

  const FpPolicyConfig& config() const { return cfg_; }

 private:
  FpPolicyConfig cfg_;
  bool active_ = false;
  posit::RoundingRng rng_;
};

}  // namespace pdnn::quant
