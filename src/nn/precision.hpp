// precision.hpp — the numeric-precision hook interface (Fig. 3 of the paper).
//
// The network calls quantize() at exactly the points where Fig. 3 inserts the
// posit transformation P(.), naming the site by its TensorRole:
//   forward:  W_p = P(W) before the conv (kWeight); A_p = P(A) on each layer
//             output (kActivation)
//   backward: E_p = P(E) on the incoming error (kError); dW_p = P(dW) after
//             computing it (kGradient)
//   update:   W_p = P(W) on the updated weight (kUpdatedWeight)
// P(W) sites copy the weight into their own cache and quantize the copy, so
// the same W_p feeds backward (Fig. 3b shows the backward conv consuming W_p).
// The default policy is a no-op, i.e. FP32 training (the baseline row of
// Table III). quant/QuantPolicy implements the paper's posit policy.
#pragma once

#include "nn/param.hpp"

namespace pdnn::nn {

class PrecisionPolicy {
 public:
  virtual ~PrecisionPolicy() = default;

  /// False during the FP32 warm-up phase: the call sites skip quantize().
  virtual bool active() const { return false; }

  /// Applies P(.) in place to `t`. `name` is the parameter's name for the
  /// kWeight/kUpdatedWeight sites (e.g. "conv1.weight") and the layer's name
  /// otherwise; `cls` and `role` pick the format.
  virtual void quantize(tensor::Tensor& /*t*/, const std::string& /*name*/, LayerClass /*cls*/,
                        TensorRole /*role*/) {}
};

}  // namespace pdnn::nn
