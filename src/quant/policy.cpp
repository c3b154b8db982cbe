#include "quant/policy.hpp"

namespace pdnn::quant {

using nn::LayerClass;
using nn::TensorRole;
using tensor::Tensor;

const PositSpec& QuantPolicy::format_of(LayerClass cls, TensorRole role) const {
  const FormatPair& pair = cls == LayerClass::kBn     ? cfg_.bn
                           : cls == LayerClass::kConv ? cfg_.conv
                                                      : cfg_.linear;
  // Section III-B: es = 1 formats for the forward dataflow (W, A), es = 2
  // formats for the backward dataflow (E, dW).
  const bool forward = role == TensorRole::kWeight || role == TensorRole::kActivation;
  return forward ? pair.forward : pair.backward;
}

int QuantPolicy::shift_of(const Tensor& t, const std::string& layer, TensorRole role) {
  switch (cfg_.scale_mode) {
    case ScaleMode::kNone:
      return 0;
    case ScaleMode::kDynamic:
      return scale_shift(t, cfg_.sigma);
    case ScaleMode::kCalibrated: {
      if (role == TensorRole::kWeight) {
        const auto it = weight_shifts_.find(layer);
        if (it != weight_shifts_.end()) return it->second;
      }
      return scale_shift(t, cfg_.sigma);  // non-weight tensors stay dynamic
    }
  }
  return 0;
}

void QuantPolicy::transform(Tensor& t, const PositSpec& spec, int shift) {
  transforms_ += t.numel();
  if (cfg_.round_mode == posit::RoundMode::kTowardZero) {
    transform_scaled_inplace(t, spec, shift);
  } else {
    transform_inplace_rounded(t, spec, cfg_.round_mode, &rng_, shift);
  }
}

void QuantPolicy::calibrate(nn::Module& net) {
  weight_shifts_.clear();
  for (nn::Param* p : net.params()) {
    weight_shifts_[p->name] = scale_shift(p->value, cfg_.sigma);
  }
}

std::optional<int> QuantPolicy::calibrated_shift(const std::string& layer) const {
  const auto it = weight_shifts_.find(layer);
  if (it == weight_shifts_.end()) return std::nullopt;
  return it->second;
}

Tensor QuantPolicy::quantize_weight(const Tensor& w, const std::string& layer, LayerClass cls) {
  Tensor q = w;
  // The hook passes the module name; calibrated shifts are stored per
  // parameter name ("<layer>.weight").
  const std::string pname = layer + ".weight";
  transform(q, format_of(cls, TensorRole::kWeight), shift_of(w, pname, TensorRole::kWeight));
  return q;
}

void QuantPolicy::quantize_activation(Tensor& a, const std::string& layer, LayerClass cls) {
  transform(a, format_of(cls, TensorRole::kActivation), shift_of(a, layer, TensorRole::kActivation));
}

void QuantPolicy::quantize_error(Tensor& e, const std::string& layer, LayerClass cls) {
  transform(e, format_of(cls, TensorRole::kError), shift_of(e, layer, TensorRole::kError));
}

void QuantPolicy::quantize_gradient(Tensor& g, const std::string& layer, LayerClass cls) {
  transform(g, format_of(cls, TensorRole::kGradient), shift_of(g, layer, TensorRole::kGradient));
}

void QuantPolicy::quantize_updated_weight(Tensor& w, const std::string& layer, LayerClass cls) {
  const std::string pname = layer;  // optimizer passes the parameter name already
  transform(w, format_of(cls, TensorRole::kWeight), shift_of(w, pname, TensorRole::kWeight));
}

}  // namespace pdnn::quant
