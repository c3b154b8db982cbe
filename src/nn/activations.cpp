#include "nn/activations.hpp"

#include <cmath>

namespace pdnn::nn {

using tensor::Tensor;

Tensor Tanh::forward(const Tensor& x, bool training) {
  Tensor out = x;
  out.apply([](float v) { return std::tanh(v); });
  if (training) cached_output_ = out;
  if (quantizing()) policy_->quantize(out, name_, LayerClass::kLinear, TensorRole::kActivation);
  return out;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.numel(); ++i) {
    const float y = cached_output_[i];
    grad_in[i] *= 1.0f - y * y;
  }
  return grad_in;
}

Tensor Sigmoid::forward(const Tensor& x, bool training) {
  Tensor out = x;
  out.apply([](float v) { return 1.0f / (1.0f + std::exp(-v)); });
  if (training) cached_output_ = out;
  if (quantizing()) policy_->quantize(out, name_, LayerClass::kLinear, TensorRole::kActivation);
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.numel(); ++i) {
    const float y = cached_output_[i];
    grad_in[i] *= y * (1.0f - y);
  }
  return grad_in;
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  if (!training || p_ <= 0.0f) {
    mask_.clear();
    return x;
  }
  const float keep_scale = 1.0f / (1.0f - p_);
  mask_.resize(x.numel());
  Tensor out = x;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const bool keep = rng_.uniform() >= p_;
    mask_[i] = keep ? keep_scale : 0.0f;
    out[i] *= mask_[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.numel(); ++i) grad_in[i] *= mask_[i];
  return grad_in;
}

Tensor AvgPool2x2::forward(const Tensor& x, bool training) {
  (void)training;
  input_shape_ = x.shape();
  const std::size_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], w = x.shape()[3];
  Tensor out({n, c, h / 2, w / 2});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci)
      for (std::size_t y = 0; y + 1 < h; y += 2)
        for (std::size_t xx = 0; xx + 1 < w; xx += 2) {
          const float sum = x.at(ni, ci, y, xx) + x.at(ni, ci, y, xx + 1) + x.at(ni, ci, y + 1, xx) +
                            x.at(ni, ci, y + 1, xx + 1);
          out.at(ni, ci, y / 2, xx / 2) = sum * 0.25f;
        }
  return out;
}

Tensor AvgPool2x2::backward(const Tensor& grad_out) {
  Tensor grad_in(input_shape_);
  const std::size_t n = input_shape_[0], c = input_shape_[1], h = input_shape_[2], w = input_shape_[3];
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci)
      for (std::size_t y = 0; y + 1 < h; y += 2)
        for (std::size_t xx = 0; xx + 1 < w; xx += 2) {
          const float g = grad_out.at(ni, ci, y / 2, xx / 2) * 0.25f;
          grad_in.at(ni, ci, y, xx) = g;
          grad_in.at(ni, ci, y, xx + 1) = g;
          grad_in.at(ni, ci, y + 1, xx) = g;
          grad_in.at(ni, ci, y + 1, xx + 1) = g;
        }
  return grad_in;
}

}  // namespace pdnn::nn
