#include "nn/optimizer.hpp"

namespace pdnn::nn {

SgdMomentum::SgdMomentum(std::vector<Param*> params, SgdConfig cfg, PrecisionPolicy* policy)
    : params_(std::move(params)), cfg_(cfg), policy_(policy) {
  velocity_.reserve(params_.size());
  for (const auto* p : params_) velocity_.emplace_back(p->value.shape());
}

void SgdMomentum::zero_grad() {
  for (auto* p : params_) p->zero_grad();
}

void SgdMomentum::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    tensor::Tensor& v = velocity_[i];
    const float wd = p.decay ? cfg_.weight_decay : 0.0f;
    for (std::size_t j = 0; j < p.value.numel(); ++j) {
      const float g = p.grad[j] + wd * p.value[j];
      v[j] = cfg_.momentum * v[j] + g;
      p.value[j] -= cfg_.lr * v[j];
    }
    if (policy_ != nullptr && policy_->active()) {
      policy_->quantize(p.value, p.name, p.layer_class, TensorRole::kUpdatedWeight);
    }
    p.mark_updated();
  }
}

}  // namespace pdnn::nn
