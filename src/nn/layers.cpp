#include "nn/layers.hpp"

#include <cmath>

namespace pdnn::nn {

// Threading mirrors src/tensor/ops.cpp: parallel axes are independent output
// slices (BN channels, ReLU elements, rows of the bias add), each computed in
// serial order, so threaded results are bit-identical to single-thread runs.

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------
Conv2d::Conv2d(std::string name, std::size_t in_c, std::size_t out_c, std::size_t kernel,
               std::size_t stride, std::size_t pad, tensor::Rng& rng, bool with_bias,
               std::size_t kernel_w)
    : Module(std::move(name)), with_bias_(with_bias), in_c_(in_c), out_c_(out_c), kernel_(kernel),
      stride_(stride), pad_(pad), kernel_w_(kernel_w) {
  const std::size_t kw = this->kernel_w();
  weight_.name = name_ + ".weight";
  weight_.layer_class = LayerClass::kConv;
  const std::size_t fan_in = in_c * kernel * kw;
  weight_.value = Tensor::kaiming({out_c, in_c, kernel, kw}, fan_in, rng);
  weight_.grad = Tensor::zeros(weight_.value.shape());
  if (with_bias_) {
    bias_.name = name_ + ".bias";
    bias_.layer_class = LayerClass::kConv;
    bias_.value = Tensor::zeros({out_c});
    bias_.grad = Tensor::zeros({out_c});
    bias_.decay = false;
  }
}

Tensor Conv2d::forward(const Tensor& x, bool training) {
  geom_ = tensor::Conv2dGeom{in_c_, x.shape()[2], x.shape()[3], out_c_, kernel_, stride_, pad_,
                             kernel_w_};
  // Fig. 3a: W_p = P(W); the quantized weight is also what backward sees.
  cached_qweight_ = weight_.value;
  if (quantizing()) {
    policy_->quantize(cached_qweight_, weight_.name, LayerClass::kConv, TensorRole::kWeight);
  }
  Tensor out = tensor::conv2d_forward(x, cached_qweight_, geom_);
  if (with_bias_) {
    // Each output channel owns its slice across the batch — same parallel
    // shape as the BN channel loops.
    const std::size_t n = out.shape()[0];
    const std::size_t plane = out.shape()[2] * out.shape()[3];
#pragma omp parallel for schedule(static) if (out_c_ > 1 && n* out_c_* plane > 16384)
    for (std::size_t ci = 0; ci < out_c_; ++ci) {
      const float b = bias_.value[ci];
      for (std::size_t ni = 0; ni < n; ++ni) {
        float* dst = out.data() + (ni * out_c_ + ci) * plane;
        for (std::size_t i = 0; i < plane; ++i) dst[i] += b;
      }
    }
  }
  if (training) cached_input_ = x;
  // Fig. 3a: A_p = P(A) on the output.
  if (quantizing()) policy_->quantize(out, name_, LayerClass::kConv, TensorRole::kActivation);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  // Fig. 3b: E_p = P(E) on the incoming error.
  Tensor e = grad_out;
  if (quantizing()) policy_->quantize(e, name_, LayerClass::kConv, TensorRole::kError);
  if (with_bias_) {
    // db[c] = sum over batch and plane of the (quantized) error.
    const std::size_t n = e.shape()[0];
    const std::size_t plane = e.shape()[2] * e.shape()[3];
#pragma omp parallel for schedule(static) if (out_c_ > 1 && n* out_c_* plane > 16384)
    for (std::size_t ci = 0; ci < out_c_; ++ci) {
      float acc = 0.0f;
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* src = e.data() + (ni * out_c_ + ci) * plane;
        for (std::size_t i = 0; i < plane; ++i) acc += src[i];
      }
      bias_.grad[ci] += acc;
    }
  }
  Tensor grad_in = tensor::conv2d_backward(cached_input_, cached_qweight_, e, geom_, weight_.grad);
  // Fig. 3b: dW_p = P(dW).
  if (quantizing()) {
    policy_->quantize(weight_.grad, name_, LayerClass::kConv, TensorRole::kGradient);
    if (with_bias_) policy_->quantize(bias_.grad, name_, LayerClass::kConv, TensorRole::kGradient);
  }
  return grad_in;
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------
BatchNorm2d::BatchNorm2d(std::string name, std::size_t channels, float eps, float momentum)
    : Module(std::move(name)), channels_(channels), eps_(eps), momentum_(momentum),
      running_mean_(channels, 0.0f), running_var_(channels, 1.0f) {
  gamma_.name = name_ + ".weight";
  gamma_.layer_class = LayerClass::kBn;
  gamma_.value = Tensor::full({channels}, 1.0f);
  gamma_.grad = Tensor::zeros({channels});
  gamma_.decay = false;
  beta_.name = name_ + ".bias";
  beta_.layer_class = LayerClass::kBn;
  beta_.value = Tensor::zeros({channels});
  beta_.grad = Tensor::zeros({channels});
  beta_.decay = false;
}

Tensor BatchNorm2d::forward(const Tensor& x, bool training) {
  const std::size_t n = x.shape()[0], c = x.shape()[1];
  const std::size_t plane = x.shape()[2] * x.shape()[3];
  const std::size_t per_channel = n * plane;
  cached_shape_ = x.shape();

  // Fig. 3a applied to BN: the BN "weight" (gamma) is quantized with the BN
  // format before use; the output activation is quantized after.
  Tensor qgamma = gamma_.value;
  if (quantizing()) policy_->quantize(qgamma, gamma_.name, LayerClass::kBn, TensorRole::kWeight);

  Tensor out(x.shape());
  if (training) {
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_.assign(c, 0.0f);
  }
  // Each channel owns its mean/var reduction, running-stat slot, and output
  // plane slice — the batch*plane work per channel parallelizes by channel.
#pragma omp parallel for schedule(static) if (c > 1 && n * plane > 4096)
  for (std::size_t ci = 0; ci < c; ++ci) {
    float mean, var;
    if (training) {
      double sum = 0.0, sum_sq = 0.0;
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* src = x.data() + (ni * c + ci) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          sum += src[i];
          sum_sq += static_cast<double>(src[i]) * src[i];
        }
      }
      mean = static_cast<float>(sum / static_cast<double>(per_channel));
      var = static_cast<float>(
          std::max(0.0, sum_sq / static_cast<double>(per_channel) - static_cast<double>(mean) * mean));
      running_mean_[ci] = (1 - momentum_) * running_mean_[ci] + momentum_ * mean;
      running_var_[ci] = (1 - momentum_) * running_var_[ci] + momentum_ * var;
    } else {
      mean = running_mean_[ci];
      var = running_var_[ci];
    }
    const float inv_std = 1.0f / std::sqrt(var + eps_);
    if (training) cached_inv_std_[ci] = inv_std;
    const float g = qgamma[ci], b = beta_.value[ci];
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* src = x.data() + (ni * c + ci) * plane;
      float* dst = out.data() + (ni * c + ci) * plane;
      float* xh = training ? cached_xhat_.data() + (ni * c + ci) * plane : nullptr;
      for (std::size_t i = 0; i < plane; ++i) {
        const float xhat = (src[i] - mean) * inv_std;
        if (xh != nullptr) xh[i] = xhat;
        dst[i] = g * xhat + b;
      }
    }
  }
  // Training rewrote every running-stat slot above; a single bump after the
  // parallel loop keeps the version monotonic without per-channel contention.
  if (training) stats_version_ = next_param_version();
  if (quantizing()) policy_->quantize(out, name_, LayerClass::kBn, TensorRole::kActivation);
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  Tensor e = grad_out;
  if (quantizing()) policy_->quantize(e, name_, LayerClass::kBn, TensorRole::kError);

  const std::size_t n = cached_shape_[0], c = cached_shape_[1];
  const std::size_t plane = cached_shape_[2] * cached_shape_[3];
  const auto per_channel = static_cast<float>(n * plane);

  Tensor grad_in(cached_shape_);
#pragma omp parallel for schedule(static) if (c > 1 && n * plane > 4096)
  for (std::size_t ci = 0; ci < c; ++ci) {
    // Reductions: dGamma = sum(dY * xhat), dBeta = sum(dY).
    double dg = 0.0, db = 0.0;
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* gy = e.data() + (ni * c + ci) * plane;
      const float* xh = cached_xhat_.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        dg += static_cast<double>(gy[i]) * xh[i];
        db += gy[i];
      }
    }
    gamma_.grad[ci] += static_cast<float>(dg);
    beta_.grad[ci] += static_cast<float>(db);

    // dX = gamma * inv_std / m * (m*dY - sum(dY) - xhat * sum(dY*xhat))
    const float scale = gamma_.value[ci] * cached_inv_std_[ci] / per_channel;
    const auto sdg = static_cast<float>(dg);
    const auto sdb = static_cast<float>(db);
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* gy = e.data() + (ni * c + ci) * plane;
      const float* xh = cached_xhat_.data() + (ni * c + ci) * plane;
      float* gx = grad_in.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        gx[i] = scale * (per_channel * gy[i] - sdb - xh[i] * sdg);
      }
    }
  }
  if (quantizing()) {
    policy_->quantize(gamma_.grad, name_, LayerClass::kBn, TensorRole::kGradient);
    policy_->quantize(beta_.grad, name_, LayerClass::kBn, TensorRole::kGradient);
  }
  return grad_in;
}

void BatchNorm2d::update_running_stats(const float* mean, const float* var) {
  for (std::size_t ci = 0; ci < channels_; ++ci) {
    running_mean_[ci] = (1 - momentum_) * running_mean_[ci] + momentum_ * mean[ci];
    running_var_[ci] = (1 - momentum_) * running_var_[ci] + momentum_ * var[ci];
  }
  stats_version_ = next_param_version();
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------
Tensor ReLU::forward(const Tensor& x, bool training) {
  Tensor out = x;
  const std::size_t numel = out.numel();
  if (training) mask_.assign(numel, 0);
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t i = 0; i < numel; ++i) {
    if (out[i] > 0.0f) {
      if (training) mask_[i] = 1;
    } else {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  const std::size_t numel = grad_in.numel();
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t i = 0; i < numel; ++i) {
    if (mask_[i] == 0) grad_in[i] = 0.0f;
  }
  return grad_in;
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------
Linear::Linear(std::string name, std::size_t in_features, std::size_t out_features, tensor::Rng& rng)
    : Module(std::move(name)), in_f_(in_features), out_f_(out_features) {
  weight_.name = name_ + ".weight";
  weight_.layer_class = LayerClass::kLinear;
  weight_.value = Tensor::kaiming({out_features, in_features}, in_features, rng);
  weight_.grad = Tensor::zeros(weight_.value.shape());
  bias_.name = name_ + ".bias";
  bias_.layer_class = LayerClass::kLinear;
  bias_.value = Tensor::zeros({out_features});
  bias_.grad = Tensor::zeros({out_features});
  bias_.decay = false;
}

Tensor Linear::forward(const Tensor& x, bool training) {
  cached_qweight_ = weight_.value;
  if (quantizing()) {
    policy_->quantize(cached_qweight_, weight_.name, LayerClass::kLinear, TensorRole::kWeight);
  }
  if (training) cached_input_ = x;
  Tensor out = tensor::matmul(x, tensor::transpose(cached_qweight_));
  const std::size_t n = out.shape()[0];
#pragma omp parallel for schedule(static) if (n > 1 && n * out_f_ > 16384)
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < out_f_; ++j) out.at(i, j) += bias_.value[j];
  if (quantizing()) policy_->quantize(out, name_, LayerClass::kLinear, TensorRole::kActivation);
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  Tensor e = grad_out;
  if (quantizing()) policy_->quantize(e, name_, LayerClass::kLinear, TensorRole::kError);
  // dW = dY^T X ; db = colsum(dY) ; dX = dY W
  Tensor dw = tensor::matmul(tensor::transpose(e), cached_input_);
  weight_.grad += dw;
  const std::size_t n = e.shape()[0];
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < out_f_; ++j) bias_.grad[j] += e.at(i, j);
  Tensor grad_in = tensor::matmul(e, cached_qweight_);
  if (quantizing()) {
    policy_->quantize(weight_.grad, name_, LayerClass::kLinear, TensorRole::kGradient);
    policy_->quantize(bias_.grad, name_, LayerClass::kLinear, TensorRole::kGradient);
  }
  return grad_in;
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------
Tensor MaxPool2x2::forward(const Tensor& x, bool training) {
  (void)training;
  input_shape_ = x.shape();
  return tensor::maxpool2x2_forward(x, argmax_);
}

Tensor MaxPool2x2::backward(const Tensor& grad_out) {
  return tensor::maxpool2x2_backward(grad_out, argmax_, input_shape_);
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool training) {
  (void)training;
  input_shape_ = x.shape();
  return tensor::global_avgpool_forward(x);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  return tensor::global_avgpool_backward(grad_out, input_shape_);
}

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------
Tensor Sequential::forward(const Tensor& x, bool training) {
  Tensor h = x;
  for (auto& child : children_) h = child->forward(h, training);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::vector<Module*> Sequential::children() {
  std::vector<Module*> out;
  out.reserve(children_.size());
  for (auto& child : children_) out.push_back(child.get());
  return out;
}

// ---------------------------------------------------------------------------
// ResidualBlock
// ---------------------------------------------------------------------------
ResidualBlock::ResidualBlock(std::string name, std::size_t in_c, std::size_t out_c, std::size_t stride,
                             tensor::Rng& rng, float bn_momentum)
    : Module(name),
      conv1_(name + ".conv1", in_c, out_c, 3, stride, 1, rng),
      bn1_(name + ".bn1", out_c, 1e-5f, bn_momentum),
      relu1_(name + ".relu1"),
      conv2_(name + ".conv2", out_c, out_c, 3, 1, 1, rng),
      bn2_(name + ".bn2", out_c, 1e-5f, bn_momentum) {
  if (stride != 1 || in_c != out_c) {
    down_conv_ = std::make_unique<Conv2d>(name + ".down.conv", in_c, out_c, 1, stride, 0, rng);
    down_bn_ = std::make_unique<BatchNorm2d>(name + ".down.bn", out_c, 1e-5f, bn_momentum);
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool training) {
  Tensor h = conv1_.forward(x, training);
  h = bn1_.forward(h, training);
  h = relu1_.forward(h, training);
  h = conv2_.forward(h, training);
  h = bn2_.forward(h, training);

  Tensor skip = x;
  if (down_conv_ != nullptr) {
    skip = down_conv_->forward(x, training);
    skip = down_bn_->forward(skip, training);
  }
  h += skip;
  // Final ReLU; record mask for backward.
  const std::size_t numel = h.numel();
  if (training) relu_mask_.assign(numel, 0);
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t i = 0; i < numel; ++i) {
    if (h[i] > 0.0f) {
      if (training) relu_mask_[i] = 1;
    } else {
      h[i] = 0.0f;
    }
  }
  // The residual add produced new values: quantize the block output.
  if (quantizing()) policy_->quantize(h, name_, LayerClass::kConv, TensorRole::kActivation);
  return h;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  if (quantizing()) policy_->quantize(g, name_, LayerClass::kConv, TensorRole::kError);
  const std::size_t numel = g.numel();
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t i = 0; i < numel; ++i) {
    if (relu_mask_[i] == 0) g[i] = 0.0f;
  }
  // Main path.
  Tensor gm = bn2_.backward(g);
  gm = conv2_.backward(gm);
  gm = relu1_.backward(gm);
  gm = bn1_.backward(gm);
  gm = conv1_.backward(gm);
  // Skip path.
  Tensor gs = g;
  if (down_conv_ != nullptr) {
    gs = down_bn_->backward(gs);
    gs = down_conv_->backward(gs);
  }
  gm += gs;
  return gm;
}

std::vector<Module*> ResidualBlock::children() {
  std::vector<Module*> out{&conv1_, &bn1_, &relu1_, &conv2_, &bn2_};
  if (down_conv_ != nullptr) {
    out.push_back(down_conv_.get());
    out.push_back(down_bn_.get());
  }
  return out;
}

}  // namespace pdnn::nn
