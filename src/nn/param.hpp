// param.hpp — learnable parameter record and tensor-role taxonomy.
//
// The paper applies different posit formats to different tensors (Table III
// footnotes): CONV weights/activations vs BN parameters, forward vs backward.
// LayerClass and TensorRole identify each hook site, the two arguments of
// PrecisionPolicy::quantize() besides the name, so a precision policy can
// route every tensor to its (n, es) format and layer-wise scale factor.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "tensor/tensor.hpp"

namespace pdnn::nn {

/// Which family of layer a tensor belongs to (drives the format choice).
enum class LayerClass {
  kConv,    ///< convolution layers: posit(8,1)/(8,2) in the Cifar-10 config
  kBn,      ///< batch-norm layers: posit(16,1)/(16,2) in the Cifar-10 config
  kLinear,  ///< fully-connected layers (treated like CONV by the policy)
};

/// The role a tensor plays in the Fig. 3 dataflow.
enum class TensorRole {
  kWeight,         ///< W   — forward pass, cached for backward (es = 1 per paper)
  kActivation,     ///< A   — forward pass (es = 1)
  kError,          ///< E   — backward input gradient (es = 2)
  kGradient,       ///< dW  — weight gradient (es = 2)
  kUpdatedWeight,  ///< W   — stored weight after the optimizer step, Fig. 3c (es = 1)
};

const char* to_string(LayerClass c);
const char* to_string(TensorRole r);

/// Process-wide monotonic counter backing Param::version. Every Param starts
/// at a fresh value, so a (data pointer, version) pair can never collide with
/// an earlier Param that happened to reuse the same allocation.
inline std::uint64_t next_param_version() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

/// A learnable tensor with its gradient and routing metadata.
struct Param {
  std::string name;            ///< e.g. "stage2.block0.conv1.weight"
  LayerClass layer_class = LayerClass::kConv;
  tensor::Tensor value;
  tensor::Tensor grad;
  bool decay = true;           ///< participates in weight decay (BN params do not)
  std::uint64_t version = next_param_version();  ///< bumped on every value mutation

  void zero_grad() { grad.fill(0.0f); }

  /// Invalidation hook: every code path that rewrites `value` (optimizer
  /// step, checkpoint load, manual surgery) must call this so derived caches
  /// (e.g. the posit inference weight-code cache) refresh their encodings.
  void mark_updated() { version = next_param_version(); }
};

inline const char* to_string(LayerClass c) {
  switch (c) {
    case LayerClass::kConv: return "conv";
    case LayerClass::kBn: return "bn";
    case LayerClass::kLinear: return "linear";
  }
  return "?";
}

inline const char* to_string(TensorRole r) {
  switch (r) {
    case TensorRole::kWeight: return "weight";
    case TensorRole::kActivation: return "activation";
    case TensorRole::kError: return "error";
    case TensorRole::kGradient: return "gradient";
    case TensorRole::kUpdatedWeight: return "updated_weight";
  }
  return "?";
}

}  // namespace pdnn::nn
