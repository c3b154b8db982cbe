#include "quant/float_policy.hpp"

namespace pdnn::quant {

using nn::TensorRole;

void FpPolicy::quantize(tensor::Tensor& t, const std::string& /*name*/, nn::LayerClass /*cls*/,
                        TensorRole role) {
  const bool backward = role == TensorRole::kError || role == TensorRole::kGradient;
  const bool update = role == TensorRole::kUpdatedWeight;
  if (update && !cfg_.quantize_weight_update) return;  // FP32 master weights
  const FpSpec& spec = update ? cfg_.update : backward ? cfg_.backward : cfg_.forward;
  const int shift = cfg_.scale_mode == ScaleMode::kNone ? 0 : scale_shift(t, cfg_.sigma);
  fp_quantize_span(t.data(), t.numel(), spec, shift, cfg_.round_mode, &rng_);
}

}  // namespace pdnn::quant
