#include "exec/float_backend.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "exec/graph_builder.hpp"
#include "exec/kernels.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"

namespace pdnn::exec {

using tensor::Tensor;

// Bit-exactness contract: every kernel below evaluates the same floating-
// point expressions in the same per-element order as the corresponding
// nn::Module::forward(x, /*training=*/false) — the GEMMs are the same
// gemm_blocked calls matmul/matmul_acc make, the bias adds and BN/ReLU
// expressions are copied verbatim. Parallel axes are independent output
// slices, so thread count never changes a bit (same policy as src/nn).

namespace {

/// The backward dX staging shared by the GEMM and scatter grad steps:
/// `compute(dx)` writes into a zeroed target — `gout` itself, or, when the
/// step accumulates, `scratch` (zeroed like eager's fresh tensor) which is
/// then added into `gout` element by element.
template <class F>
void stage_dx(Tensor& scratch, Tensor& gout, bool acc, F&& compute) {
  if (acc) scratch.resize(gout.shape());
  Tensor& target = acc ? scratch : gout;
  target.fill(0.0f);
  compute(target);
  if (acc) {
    float* d = gout.data();
    const float* v = scratch.data();
    for (std::size_t i = 0; i < gout.numel(); ++i) d[i] += v[i];
  }
}

/// The training-mode zero-clamp of `value(i)` into `out`, recording the mask
/// backward reads; each element is read before it is written, so `out` may
/// alias the input.
template <class F>
void masked_relu(std::vector<std::uint8_t>& mask, Tensor& out, F&& value) {
  const std::size_t numel = out.numel();
  mask.assign(numel, 0);
  float* dst = out.data();
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t i = 0; i < numel; ++i) {
    const float v = value(i);
    if (v > 0.0f) {
      mask[i] = 1;
      dst[i] = v;
    } else {
      dst[i] = 0.0f;
    }
  }
}

/// The eager layers' Fig. 3 hook sites: P(A) on the outputs and P(E) on the
/// incoming errors of Linear, Conv2d, BatchNorm2d and the residual join (the
/// block's post-add activation); ReLU and pooling apply no hook.
bool fig3_hooked(OpKind op) {
  return op == OpKind::kLinear || op == OpKind::kConv2d || op == OpKind::kBatchNorm ||
         op == OpKind::kResidualJoin;
}

}  // namespace

FloatBackend FloatBackend::compile(nn::Module& net, nn::PrecisionPolicy* policy,
                                   PlanOptions opts) {
  if (policy != nullptr) {
    // The eager forward this path mirrors bit-for-bit fires the A_p = P(A)
    // hook between a layer and its trailing ReLU, and quantizes W before BN
    // applies — both orderings die under fusion/folding, so a policy pins
    // the faithful per-layer lowering. im2col elision moves no arithmetic
    // and stays on.
    opts.fuse_epilogues = false;
    opts.fold_bn = false;
  }
  FloatBackend b;
  b.opts_ = opts;
  b.runner_ = PlanRunner(GraphBuilder::lower(net, opts));
  b.net_ = &net;
  b.policy_ = policy;
  b.state_.resize(b.plan().steps.size());
  b.refresh();
  return b;
}

std::unique_ptr<Backend> FloatBackend::clone() const {
  if (plan().training()) return std::make_unique<FloatBackend>(compile_training(*net_, policy_));
  return std::make_unique<FloatBackend>(compile(*net_, policy_, opts_));
}

FloatBackend FloatBackend::compile_training(nn::Module& net, nn::PrecisionPolicy* policy) {
  FloatBackend b;
  b.opts_ = PlanOptions::none();
  b.runner_ = PlanRunner(GraphBuilder::lower_training(net));
  b.net_ = &net;
  b.policy_ = policy;
  const std::vector<Step>& steps = b.plan().steps;
  b.state_.resize(steps.size());
  b.tstate_.resize(steps.size());
  // Backend-owned gradient accumulators in net.params() order — the order
  // every clone agrees on, so a data-parallel trainer can reduce across
  // backends index by index.
  b.params_ = net.params();
  b.grads_.reserve(b.params_.size());
  for (nn::Param* p : b.params_) b.grads_.push_back(Tensor::zeros(p->value.shape()));
  const auto pidx = [&b](const nn::Param* p) -> int {
    for (std::size_t i = 0; i < b.params_.size(); ++i) {
      if (b.params_[i] == p) return static_cast<int>(i);
    }
    throw std::logic_error(
        "FloatBackend::compile_training: step parameter missing from net.params()");
  };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    TrainState& ts = b.tstate_[i];
    switch (s.op) {
      case OpKind::kLinear:
        ts.wgrad = pidx(&s.linear->weight());
        ts.bgrad = pidx(&s.linear->bias());
        break;
      case OpKind::kConv2d:
        ts.wgrad = pidx(&s.conv->weight());
        if (s.conv->has_bias()) ts.bgrad = pidx(&s.conv->bias());
        break;
      case OpKind::kBatchNorm:
        ts.wgrad = pidx(&s.bn->gamma());
        ts.bgrad = pidx(&s.bn->beta());
        ts.bn_stats = static_cast<int>(b.bn_stats_.size());
        b.bn_stats_.push_back(BnBatchStats{s.bn, {}, {}});
        break;
      default: break;
    }
  }
  b.refresh();
  return b;
}

void FloatBackend::require_training(const char* who) const {
  if (!plan().training()) {
    throw std::logic_error(std::string("FloatBackend::") + who +
                           ": backend was not compiled with compile_training()");
  }
}

void FloatBackend::zero_grad() {
  require_training("zero_grad");
  for (Tensor& g : grads_) g.fill(0.0f);
}

void FloatBackend::commit_bn_stats() {
  require_training("commit_bn_stats");
  if (!forward_done_) {
    throw std::logic_error("FloatBackend::commit_bn_stats: no train_forward() batch to commit");
  }
  for (BnBatchStats& s : bn_stats_) s.bn->update_running_stats(s.mean.data(), s.var.data());
}

void FloatBackend::refresh() {
  const bool quant = quantizing();
  // An activate()/deactivate() flip between runs — or an explicit
  // invalidate() — rebuilds every cached panel regardless of versions,
  // the backward W^T panels included (whichever of run() and
  // train_forward() refreshes first consumes the flag).
  const bool force = quant != panels_quantized_ || force_refresh_;
  panels_quantized_ = quant;
  force_refresh_ = false;
  if (force) {
    for (TrainState& ts : tstate_) ts.wt_bound = false;
  }
  for (std::size_t i = 0; i < plan().steps.size(); ++i) {
    const Step& s = plan().steps[i];
    StepState& st = state_[i];
    switch (s.op) {
      case OpKind::kLinear: {
        nn::Param& w = s.linear->weight();
        if (force || !st.bound || w.version != st.version) {
          if (quant) {
            st.qweight = w.value;
            policy_->quantize(st.qweight, w.name, nn::LayerClass::kLinear, nn::TensorRole::kWeight);
          }
          // Grow-only resize + transpose_into: weight updates between
          // training steps re-derive the panel without reallocating.
          st.panel.resize({s.in_c, s.out_c});
          tensor::transpose_into((quant ? st.qweight : w.value).data(), s.out_c, s.in_c,
                                 st.panel.data());
          st.version = w.version;
          st.bound = true;
        }
        break;
      }
      case OpKind::kConv2d: {
        nn::Param& w = s.conv->weight();
        if (s.folded_bn != nullptr) {
          // fold_bn panels: every input that reaches the folded arithmetic
          // participates in the staleness key, running stats included.
          nn::BatchNorm2d& bn = *s.folded_bn;
          const std::uint64_t bias_v = s.conv->has_bias() ? s.conv->bias().version : 0;
          if (force || !st.bound || w.version != st.version || bias_v != st.bias_version ||
              bn.gamma().version != st.gamma_version || bn.beta().version != st.beta_version ||
              bn.stats_version() != st.stats_version) {
            fold_conv_bn(s, st);
            st.version = w.version;
            st.bias_version = bias_v;
            st.gamma_version = bn.gamma().version;
            st.beta_version = bn.beta().version;
            st.stats_version = bn.stats_version();
            st.bound = true;
          }
        } else if (quant) {
          if (force || !st.bound || w.version != st.version) {
            st.qweight = w.value;
            policy_->quantize(st.qweight, w.name, nn::LayerClass::kConv, nn::TensorRole::kWeight);
            st.version = w.version;
            st.bound = true;
          }
        } else if (force || !st.bound) {
          st.qweight = Tensor();  // read the live weight directly
          st.version = w.version;
          st.bound = true;
        }
        break;
      }
      case OpKind::kBatchNorm: {
        nn::Param& g = s.bn->gamma();
        if (quant) {
          if (force || !st.bound || g.version != st.gamma_version) {
            st.qgamma = g.value;
            policy_->quantize(st.qgamma, g.name, nn::LayerClass::kBn, nn::TensorRole::kWeight);
            st.gamma_version = g.version;
            st.bound = true;
          }
        } else if (force || !st.bound) {
          st.qgamma = Tensor();
          st.gamma_version = g.version;
          st.bound = true;
        }
        break;
      }
      default: break;
    }
  }
}

void FloatBackend::fold_conv_bn(const Step& s, StepState& st) {
  // Eval-mode BN is a per-channel affine y = scale*(x - mean) + beta with
  // scale = gamma / sqrt(var + eps), so it folds into the conv:
  //   fw[c,:] = W[c,:] * scale[c]
  //   fb[c]   = (b[c] - mean[c]) * scale[c] + beta[c]   (b = 0 without bias)
  // This pre-rounds W*scale once per refresh — epsilon-close to, not
  // bit-identical with, the unfolded conv→bn chain.
  nn::BatchNorm2d& bn = *s.folded_bn;
  const Tensor& w = s.conv->weight().value;
  const std::size_t patch = w.numel() / s.out_c;
  st.fw.resize({s.out_c, patch});
  st.fb.resize({s.out_c});
  const float* src = w.data();
  float* fw = st.fw.data();
#pragma omp parallel for schedule(static) if (s.out_c > 1 && s.out_c * patch > 16384)
  for (std::size_t ci = 0; ci < s.out_c; ++ci) {
    const float inv_std = 1.0f / std::sqrt(bn.running_var()[ci] + bn.eps());
    const float scale = bn.gamma().value[ci] * inv_std;
    for (std::size_t e = 0; e < patch; ++e) fw[ci * patch + e] = src[ci * patch + e] * scale;
    const float b0 = s.conv->has_bias() ? s.conv->bias().value[ci] : 0.0f;
    st.fb[ci] = (b0 - bn.running_mean()[ci]) * scale + bn.beta().value[ci];
  }
}

const Tensor& FloatBackend::run_impl(const Tensor& x) {
  refresh();
  const bool quant = quantizing();
  return runner_.forward(x, "FloatBackend", [&](std::size_t i, const Step& s, const Tensor& in,
                                                 const Tensor* skip, Tensor& out) {
    StepState& st = state_[i];
    switch (s.op) {
      case OpKind::kLinear: exec_linear(s, st, in, out); break;
      case OpKind::kConv2d: exec_conv(s, st, in, out); break;
      case OpKind::kBatchNorm: exec_bn(s, st, in, out); break;
      case OpKind::kRelu: relu_kernel(in, out); break;
      case OpKind::kMaxPool2x2: maxpool2x2_kernel(in, out); break;
      case OpKind::kGlobalAvgPool: exec_gap(in, out); break;
      case OpKind::kResidualJoin: exec_join(in, *skip, out); break;
    }
    // A_p = P(A); step.cls is each layer's class, the conv family for the join.
    if (quant && fig3_hooked(s.op)) {
      policy_->quantize(out, s.name, s.cls, nn::TensorRole::kActivation);
    }
  });
}

void FloatBackend::exec_linear(const Step& s, StepState& st, const Tensor& in, Tensor& out) {
  // Same computation as nn::Linear::forward: out = x W^T (blocked GEMM on a
  // zeroed target) then the bias add — W^T is the panel cached at refresh()
  // instead of a per-call transpose, and the bias (plus any fused ReLU)
  // rides the GEMM epilogue: per element the same add-then-clamp expression
  // order as the separate sweeps, so the output bits don't change.
  const std::size_t n = in.shape()[0];
  out.fill(0.0f);
  tensor::GemmEpilogue ep;
  ep.col_bias = s.epilogue.bias ? s.linear->bias().value.data() : nullptr;
  ep.relu = s.epilogue.relu;
  tensor::gemm_blocked(n, s.out_c, s.in_c, in.data(), s.in_c, st.panel.data(), s.out_c, out.data(),
                       s.out_c, ep);
}

void FloatBackend::exec_conv(const Step& s, StepState& st, const Tensor& in, Tensor& out) {
  // Same computation as tensor::conv2d_forward: per-sample im2col + blocked
  // GEMM — but into persistent cols scratch and straight into the output
  // slice (conv2d_forward computes the identical GEMM into a temporary and
  // memcpys it out). Bias / fused ReLU / folded BN affine ride the GEMM
  // epilogue; a 1x1/s1/p0 conv skips im2col entirely — the input slice
  // [C, H*W] already IS the patch matrix.
  const tensor::Conv2dGeom geom{s.in_c,   in.shape()[2], in.shape()[3], s.out_c,
                                s.kernel, s.stride,      s.pad,         s.kernel_w};
  const std::size_t batch = in.shape()[0];
  const std::size_t pixels = geom.out_h() * geom.out_w();
  const std::size_t patch = geom.patch();
  const bool folded = s.folded_bn != nullptr;
  const float* w2d = folded             ? st.fw.data()
                     : quantizing()     ? st.qweight.data()
                                        : s.conv->weight().value.data();
  tensor::GemmEpilogue ep;
  ep.row_bias = folded             ? st.fb.data()
                : s.epilogue.bias  ? s.conv->bias().value.data()
                                   : nullptr;
  ep.relu = s.epilogue.relu;
  if (!s.elide_im2col) st.cols.resize({patch, pixels});
  const std::size_t in_stride = s.in_c * geom.in_h * geom.in_w;
  const std::size_t out_stride = s.out_c * pixels;
  for (std::size_t nidx = 0; nidx < batch; ++nidx) {
    const float* bmat;
    if (s.elide_im2col) {
      bmat = in.data() + nidx * in_stride;
    } else {
      tensor::im2col(in.data() + nidx * in_stride, geom, st.cols.data());
      bmat = st.cols.data();
    }
    float* oslice = out.data() + nidx * out_stride;
    std::memset(oslice, 0, out_stride * sizeof(float));
    tensor::gemm_blocked(s.out_c, pixels, patch, w2d, patch, bmat, pixels, oslice, pixels, ep);
  }
}

void FloatBackend::exec_bn(const Step& s, const StepState& st, const Tensor& in, Tensor& out) {
  // nn::BatchNorm2d::forward with training=false, expression for expression;
  // running statistics and beta are read live from the module. A fused ReLU
  // clamps the exact value the separate sweep would read — bit-identical.
  nn::BatchNorm2d& bn = *s.bn;
  const std::size_t n = in.shape()[0], c = in.shape()[1];
  const std::size_t plane = in.shape()[2] * in.shape()[3];
  const float* gamma = quantizing() ? st.qgamma.data() : bn.gamma().value.data();
  const bool relu = s.epilogue.relu;
#pragma omp parallel for schedule(static) if (c > 1 && n * plane > 4096)
  for (std::size_t ci = 0; ci < c; ++ci) {
    const float mean = bn.running_mean()[ci];
    const float var = bn.running_var()[ci];
    const float inv_std = 1.0f / std::sqrt(var + bn.eps());
    const float g = gamma[ci], b = bn.beta().value[ci];
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* src = in.data() + (ni * c + ci) * plane;
      float* dst = out.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float xhat = (src[i] - mean) * inv_std;
        const float y = g * xhat + b;
        dst[i] = relu ? (y > 0.0f ? y : 0.0f) : y;
      }
    }
  }
}

void FloatBackend::exec_gap(const Tensor& in, Tensor& out) {
  // tensor::global_avgpool_forward's serial per-cell reduction.
  const std::size_t n = in.shape()[0], c = in.shape()[1];
  const std::size_t plane = in.shape()[2] * in.shape()[3];
#pragma omp parallel for schedule(static) if (n * c > 1 && n * c * plane > 16384)
  for (std::size_t cell = 0; cell < n * c; ++cell) {
    const float* src = in.data() + cell * plane;
    float acc = 0.0f;
    for (std::size_t i = 0; i < plane; ++i) acc += src[i];
    out[cell] = acc / static_cast<float>(plane);
  }
}

void FloatBackend::exec_join(const Tensor& main, const Tensor& skip, Tensor& out) {
  // ResidualBlock's h += skip then ReLU, fused: t = m + s; max(t, 0).
  const std::size_t numel = out.numel();
  const float* ma = main.data();
  const float* sk = skip.data();
  float* dst = out.data();
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t i = 0; i < numel; ++i) {
    const float t = ma[i] + sk[i];
    dst[i] = t > 0.0f ? t : 0.0f;
  }
}

// ---------------------------------------------------------------------------
// Training forward
// ---------------------------------------------------------------------------
// The training kernels mirror nn::Module::forward(x, /*training=*/true)
// expression for expression — the batch-stats BN reductions, the mask
// recording, the maxpool comparisons — with the saved-for-backward state in
// backend-owned storage (masks/argmax/inv_std per step, x-hat in the step's
// arena save slot) instead of module members, so clones never touch the
// shared module graph.

const Tensor& FloatBackend::train_forward(const Tensor& x) {
  require_training("train_forward");
  bump_generation();
  refresh();
  const bool quant = quantizing();
  const Tensor& out = runner_.forward(x, "FloatBackend", [&](std::size_t i, const Step& s,
                                                             const Tensor& in, const Tensor* skip,
                                                             Tensor& out) {
    StepState& st = state_[i];
    TrainState& ts = tstate_[i];
    ts.in_shape = in.shape();
    switch (s.op) {
      case OpKind::kLinear: exec_linear(s, st, in, out); break;
      case OpKind::kConv2d: exec_conv(s, st, in, out); break;
      case OpKind::kBatchNorm:
        exec_bn_train(s, st, ts, in, out, runner_.bind(s.save, in.shape()));
        break;
      case OpKind::kRelu: exec_relu_train(ts, in, out); break;
      case OpKind::kMaxPool2x2: exec_maxpool_train(ts, in, out); break;
      case OpKind::kGlobalAvgPool: exec_gap(in, out); break;
      case OpKind::kResidualJoin: exec_join_train(ts, in, *skip, out); break;
    }
    // A_p = P(A) after the masks are recorded, as the eager join does.
    if (quant && fig3_hooked(s.op)) {
      policy_->quantize(out, s.name, s.cls, nn::TensorRole::kActivation);
    }
  });
  train_out_shape_ = out.shape();
  train_input_ = &x;
  forward_done_ = true;
  return out;
}

void FloatBackend::exec_bn_train(const Step& s, const StepState& st, TrainState& ts,
                                 const Tensor& in, Tensor& out, Tensor& xhat) {
  // nn::BatchNorm2d::forward with training=true, minus the running-stat EMA
  // (batch stats land in bn_stats_; the trainer commits them serially).
  // Under a policy the output uses P(gamma), like the eager forward.
  nn::BatchNorm2d& bn = *s.bn;
  const std::size_t n = in.shape()[0], c = in.shape()[1];
  const std::size_t plane = in.shape()[2] * in.shape()[3];
  const std::size_t per_channel = n * plane;
  ts.inv_std.assign(c, 0.0f);
  BnBatchStats& stats = bn_stats_[static_cast<std::size_t>(ts.bn_stats)];
  stats.mean.assign(c, 0.0f);
  stats.var.assign(c, 0.0f);
  const float* gamma = quantizing() ? st.qgamma.data() : bn.gamma().value.data();
  const float* beta = bn.beta().value.data();
#pragma omp parallel for schedule(static) if (c > 1 && n * plane > 4096)
  for (std::size_t ci = 0; ci < c; ++ci) {
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* src = in.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum += src[i];
        sum_sq += static_cast<double>(src[i]) * src[i];
      }
    }
    const float mean = static_cast<float>(sum / static_cast<double>(per_channel));
    const float var = static_cast<float>(std::max(
        0.0, sum_sq / static_cast<double>(per_channel) - static_cast<double>(mean) * mean));
    stats.mean[ci] = mean;
    stats.var[ci] = var;
    const float inv_std = 1.0f / std::sqrt(var + bn.eps());
    ts.inv_std[ci] = inv_std;
    const float g = gamma[ci], b = beta[ci];
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* src = in.data() + (ni * c + ci) * plane;
      float* dst = out.data() + (ni * c + ci) * plane;
      float* xh = xhat.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float xhat_v = (src[i] - mean) * inv_std;
        xh[i] = xhat_v;
        dst[i] = g * xhat_v + b;
      }
    }
  }
}

void FloatBackend::exec_relu_train(TrainState& ts, const Tensor& in, Tensor& out) {
  // nn::ReLU::forward(training=true): zero-clamp recording the mask.
  const float* src = in.data();
  masked_relu(ts.mask, out, [src](std::size_t i) { return src[i]; });
}

void FloatBackend::exec_join_train(TrainState& ts, const Tensor& main, const Tensor& skip,
                                   Tensor& out) {
  // ResidualBlock's h += skip then masked ReLU: the fused t = m + s is the
  // exact value the separate sweeps would clamp and mask.
  const float* ma = main.data();
  const float* sk = skip.data();
  masked_relu(ts.mask, out, [ma, sk](std::size_t i) { return ma[i] + sk[i]; });
}

void FloatBackend::exec_maxpool_train(TrainState& ts, const Tensor& in, Tensor& out) {
  // tensor::maxpool2x2_forward with the argmax recorded into backend state;
  // planes are independent, so the parallel axis never changes a comparison.
  const std::size_t n = in.shape()[0], c = in.shape()[1];
  const std::size_t h = in.shape()[2], w = in.shape()[3];
  const std::size_t oh = h / 2, ow = w / 2;
  ts.argmax.assign(out.numel(), 0);
  const float* src = in.data();
  float* dst = out.data();
#pragma omp parallel for schedule(static) if (n * c > 1 && n * c * oh * ow > 16384)
  for (std::size_t pc = 0; pc < n * c; ++pc) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t dy = 0; dy < 2; ++dy) {
          for (std::size_t dx = 0; dx < 2; ++dx) {
            const std::size_t idx = (pc * h + 2 * y + dy) * w + 2 * x + dx;
            if (src[idx] > best) {
              best = src[idx];
              best_idx = idx;
            }
          }
        }
        const std::size_t oi = (pc * oh + y) * ow + x;
        dst[oi] = best;
        ts.argmax[oi] = best_idx;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Training backward
// ---------------------------------------------------------------------------
// Mirrors nn::Module::backward op for op: the same GEMM calls (staged through
// persistent scratch instead of fresh temporaries), the same serial
// accumulation loops, the same omp guards. Accumulating steps (`acc`) stage
// dX into zeroed scratch exactly like eager's fresh tensor, then add it to
// the slot's prior contents — eager's `gm += gs` with the operands swapped,
// identical bits for any non-NaN gradient (IEEE addition is commutative).
// Under an active policy a hooked step applies P(E) to a TrainState::eq copy
// of its error (grad_out and the slots stay untouched), dX reads the
// forward's P(W) (BN's dX the raw gamma, as eager), and P(dW) runs on the
// backend grads in eager order: weight then bias, gamma then beta.

const Tensor& FloatBackend::run_backward(const Tensor& grad_out) {
  require_training("run_backward");
  if (!forward_done_) {
    throw std::logic_error("FloatBackend::run_backward: no train_forward() to differentiate");
  }
  if (grad_out.shape() != train_out_shape_) {
    throw std::invalid_argument("FloatBackend::run_backward: grad_out " +
                                grad_out.shape().to_string() + " does not match forward output " +
                                train_out_shape_.to_string());
  }
  bump_generation();
  const bool quant = quantizing();
  // Slot lookups: the caller-owned grad_out for the last step's gin, the
  // caller's forward input for a first-layer GEMM's saved activation.
  const Tensor& x = *train_input_;
  for (const GradStep& g : plan().grad_steps) {
    const auto i = static_cast<std::size_t>(g.fwd_step);
    const Step& s = plan().steps[i];
    TrainState& ts = tstate_[i];
    const Tensor* ep = &runner_.slot(g.gin, grad_out);
    if (quant && fig3_hooked(s.op)) {
      ts.eq = *ep;  // reuses eq's storage once it has seen this shape
      policy_->quantize(ts.eq, s.name, s.cls, nn::TensorRole::kError);
      ep = &ts.eq;
    }
    const Tensor& e = *ep;
    // The weight the forward multiplied by: P(W) if its panels were quantized.
    const auto fwd_weight = [&](nn::Param& w) {
      return (panels_quantized_ ? state_[i].qweight : w.value).data();
    };
    Tensor& gout0 = runner_.bind(g.gout0, ts.in_shape);
    switch (s.op) {
      case OpKind::kLinear:
        exec_linear_grad(s, fwd_weight(s.linear->weight()), ts, e, runner_.slot(s.in0, x), gout0,
                         g.acc0);
        break;
      case OpKind::kConv2d:
        exec_conv_grad(s, fwd_weight(s.conv->weight()), ts, e, runner_.slot(s.in0, x), gout0,
                       g.acc0);
        break;
      case OpKind::kBatchNorm: exec_bn_grad(s, ts, e, runner_.slot(s.save, x), gout0, g.acc0); break;
      case OpKind::kRelu: exec_relu_grad(ts, e, gout0, g.acc0); break;
      case OpKind::kMaxPool2x2: exec_maxpool_grad(ts, e, gout0, g.acc0); break;
      case OpKind::kGlobalAvgPool: exec_gap_grad(ts, e, gout0, g.acc0); break;
      case OpKind::kResidualJoin:
        // ResidualBlock::backward's masked g, routed to both branches: the
        // main branch's bn2 and the skip operand receive the identical value.
        exec_relu_grad(ts, e, gout0, g.acc0);
        exec_relu_grad(ts, e, runner_.bind(g.gout1, ts.in_shape), g.acc1);
        break;
    }
    if (quant && ts.wgrad >= 0) {
      policy_->quantize(grads_[static_cast<std::size_t>(ts.wgrad)], s.name, s.cls,
                        nn::TensorRole::kGradient);
      if (ts.bgrad >= 0) {
        policy_->quantize(grads_[static_cast<std::size_t>(ts.bgrad)], s.name, s.cls,
                          nn::TensorRole::kGradient);
      }
    }
  }
  return runner_.slot(plan().grad_input_slot, x);
}

void FloatBackend::exec_linear_grad(const Step& s, const float* w, TrainState& ts, const Tensor& e,
                                    const Tensor& in, Tensor& gout, bool acc) {
  // nn::Linear::backward: dW = dY^T X, db = colsum(dY), dX = dY W — the same
  // blocked GEMMs matmul makes, staged through persistent scratch.
  const std::size_t n = e.shape()[0];
  ts.e_t.resize({s.out_c, n});
  tensor::transpose_into(e.data(), n, s.out_c, ts.e_t.data());
  ts.dw.resize({s.out_c, s.in_c});
  ts.dw.fill(0.0f);
  tensor::gemm_blocked(s.out_c, s.in_c, n, ts.e_t.data(), n, in.data(), s.in_c, ts.dw.data(),
                       s.in_c);
  Tensor& gw = grads_[static_cast<std::size_t>(ts.wgrad)];
  float* gwp = gw.data();
  const float* dwp = ts.dw.data();
  for (std::size_t i = 0; i < gw.numel(); ++i) gwp[i] += dwp[i];
  float* gb = grads_[static_cast<std::size_t>(ts.bgrad)].data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < s.out_c; ++j) gb[j] += e.data()[i * s.out_c + j];
  }
  stage_dx(ts.dx_scratch, gout, acc, [&](Tensor& dx) {
    tensor::gemm_blocked(n, s.in_c, s.out_c, e.data(), s.out_c, w, s.in_c, dx.data(), s.in_c);
  });
}

void FloatBackend::exec_conv_grad(const Step& s, const float* w, TrainState& ts, const Tensor& e,
                                  const Tensor& in, Tensor& gout, bool acc) {
  // nn::Conv2d::backward + tensor::conv2d_backward: per-channel bias
  // reduction, then the serial per-sample im2col / dW GEMM / dX col2im loop —
  // dW accumulates straight into the backend-owned grad (same layout and
  // bits as eager's reshaped-copy-and-write-back), W^T is a panel cached per
  // Param::version (a transpose moves data, it computes nothing).
  const tensor::Conv2dGeom geom{s.in_c,   ts.in_shape[2], ts.in_shape[3], s.out_c,
                                s.kernel, s.stride,       s.pad,          s.kernel_w};
  const std::size_t batch = ts.in_shape[0];
  const std::size_t pixels = geom.out_h() * geom.out_w();
  const std::size_t patch = geom.patch();
  if (s.epilogue.bias) {
    float* gb = grads_[static_cast<std::size_t>(ts.bgrad)].data();
#pragma omp parallel for schedule(static) if (s.out_c > 1 && batch * s.out_c * pixels > 16384)
    for (std::size_t ci = 0; ci < s.out_c; ++ci) {
      float acc_b = 0.0f;
      for (std::size_t ni = 0; ni < batch; ++ni) {
        const float* src = e.data() + (ni * s.out_c + ci) * pixels;
        for (std::size_t i = 0; i < pixels; ++i) acc_b += src[i];
      }
      gb[ci] += acc_b;
    }
  }
  const std::uint64_t version = s.conv->weight().version;
  if (!ts.wt_bound || ts.wt_version != version) {
    ts.w2d_t.resize({patch, s.out_c});
    tensor::transpose_into(w, s.out_c, patch, ts.w2d_t.data());
    ts.wt_version = version;
    ts.wt_bound = true;
  }
  ts.cols.resize({patch, pixels});
  ts.cols_t.resize({pixels, patch});
  ts.grad_cols.resize({patch, pixels});
  float* gw = grads_[static_cast<std::size_t>(ts.wgrad)].data();  // [out_c, patch] layout
  const std::size_t in_stride = s.in_c * geom.in_h * geom.in_w;
  const std::size_t out_stride = s.out_c * pixels;
  stage_dx(ts.dx_scratch, gout, acc, [&](Tensor& dx) {
    for (std::size_t nidx = 0; nidx < batch; ++nidx) {
      const float* go = e.data() + nidx * out_stride;
      // dW += dY * cols^T; the serial batch loop keeps accumulation order fixed.
      tensor::im2col(in.data() + nidx * in_stride, geom, ts.cols.data());
      tensor::transpose_into(ts.cols.data(), patch, pixels, ts.cols_t.data());
      tensor::gemm_blocked(s.out_c, patch, pixels, go, pixels, ts.cols_t.data(), patch, gw, patch);
      // dX = col2im(W^T * dY)
      ts.grad_cols.fill(0.0f);
      tensor::gemm_blocked(patch, pixels, s.out_c, ts.w2d_t.data(), s.out_c, go, pixels,
                           ts.grad_cols.data(), pixels);
      tensor::col2im(ts.grad_cols.data(), geom, dx.data() + nidx * in_stride);
    }
  });
}

void FloatBackend::exec_bn_grad(const Step& s, TrainState& ts, const Tensor& e, const Tensor& xhat,
                                Tensor& gout, bool acc) {
  // nn::BatchNorm2d::backward, with x-hat from the save slot and inv_std from
  // the last train_forward. May run in place over e (the per-channel
  // reductions complete before any element of that channel is written).
  const std::size_t n = ts.in_shape[0], c = ts.in_shape[1];
  const std::size_t plane = ts.in_shape[2] * ts.in_shape[3];
  const auto per_channel = static_cast<float>(n * plane);
  float* gg = grads_[static_cast<std::size_t>(ts.wgrad)].data();
  float* gb = grads_[static_cast<std::size_t>(ts.bgrad)].data();
  const float* gamma = s.bn->gamma().value.data();
#pragma omp parallel for schedule(static) if (c > 1 && n * plane > 4096)
  for (std::size_t ci = 0; ci < c; ++ci) {
    double dg = 0.0, db = 0.0;
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* gy = e.data() + (ni * c + ci) * plane;
      const float* xh = xhat.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        dg += static_cast<double>(gy[i]) * xh[i];
        db += gy[i];
      }
    }
    gg[ci] += static_cast<float>(dg);
    gb[ci] += static_cast<float>(db);
    const float scale = gamma[ci] * ts.inv_std[ci] / per_channel;
    const auto sdg = static_cast<float>(dg);
    const auto sdb = static_cast<float>(db);
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* gy = e.data() + (ni * c + ci) * plane;
      const float* xh = xhat.data() + (ni * c + ci) * plane;
      float* gx = gout.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float v = scale * (per_channel * gy[i] - sdb - xh[i] * sdg);
        gx[i] = acc ? gx[i] + v : v;
      }
    }
  }
}

void FloatBackend::exec_relu_grad(const TrainState& ts, const Tensor& e, Tensor& gout, bool acc) {
  // nn::ReLU::backward (and the join's trailing ReLU): pass where the mask
  // fired, zero elsewhere.
  const std::size_t numel = e.numel();
  const float* g = e.data();
  float* dst = gout.data();
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t i = 0; i < numel; ++i) {
    const float v = ts.mask[i] != 0 ? g[i] : 0.0f;
    dst[i] = acc ? dst[i] + v : v;
  }
}

void FloatBackend::exec_maxpool_grad(TrainState& ts, const Tensor& e, Tensor& gout, bool acc) {
  // tensor::maxpool2x2_backward: zero, then the serial winner scatter.
  stage_dx(ts.dx_scratch, gout, acc, [&](Tensor& dx) {
    for (std::size_t i = 0; i < e.numel(); ++i) dx[ts.argmax[i]] += e[i];
  });
}

void FloatBackend::exec_gap_grad(const TrainState& ts, const Tensor& e, Tensor& gout, bool acc) {
  // tensor::global_avgpool_backward's serial per-cell broadcast.
  const std::size_t n = ts.in_shape[0], c = ts.in_shape[1];
  const std::size_t plane = ts.in_shape[2] * ts.in_shape[3];
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float g = e.data()[ni * c + ci] * inv;
      float* dst = gout.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) dst[i] = acc ? dst[i] + g : g;
    }
  }
}

}  // namespace pdnn::exec
