#include "quant/policy.hpp"

namespace pdnn::quant {

using nn::LayerClass;
using nn::TensorRole;
using tensor::Tensor;

const PositSpec& QuantPolicy::format_of(LayerClass cls, TensorRole role) const {
  const FormatPair& pair = cls == LayerClass::kBn     ? cfg_.bn
                           : cls == LayerClass::kConv ? cfg_.conv
                                                      : cfg_.linear;
  // Section III-B: es = 1 formats for the forward dataflow (W, A, updated W),
  // es = 2 formats for the backward dataflow (E, dW).
  const bool backward = role == TensorRole::kError || role == TensorRole::kGradient;
  return backward ? pair.backward : pair.forward;
}

int QuantPolicy::shift_of(const Tensor& t, const std::string& name, TensorRole role) const {
  switch (cfg_.scale_mode) {
    case ScaleMode::kNone:
      return 0;
    case ScaleMode::kDynamic:
      return scale_shift(t, cfg_.sigma);
    case ScaleMode::kCalibrated: {
      if (role == TensorRole::kWeight || role == TensorRole::kUpdatedWeight) {
        const auto it = weight_shifts_.find(name);
        if (it != weight_shifts_.end()) return it->second;
      }
      return scale_shift(t, cfg_.sigma);  // non-weight tensors stay dynamic
    }
  }
  return 0;
}

void QuantPolicy::quantize(Tensor& t, const std::string& name, LayerClass cls, TensorRole role) {
  const int shift = shift_of(t, name, role);
  transforms_ += t.numel();
  transform_span(t.data(), t.numel(), format_of(cls, role), shift, cfg_.round_mode, &rng_);
}

void QuantPolicy::calibrate(nn::Module& net) {
  weight_shifts_.clear();
  for (nn::Param* p : net.params()) {
    weight_shifts_[p->name] = scale_shift(p->value, cfg_.sigma);
  }
}

std::optional<int> QuantPolicy::calibrated_shift(const std::string& param) const {
  const auto it = weight_shifts_.find(param);
  if (it == weight_shifts_.end()) return std::nullopt;
  return it->second;
}

}  // namespace pdnn::quant
