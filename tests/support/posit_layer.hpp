// posit_layer.hpp — one posit layer as a compiled PositSession, the engine
// tests' single entry to the posit GEMM: a Linear (no geometry) or a Conv2d
// (with geometry) holding exactly the given weights, so its output can be
// compared bit for bit with posit_linear_reference / posit_conv2d_reference.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "nn/layers.hpp"
#include "quant/posit_session.hpp"

namespace pdnn::test_support {

/// The session binds (does not own) its network, so both travel together.
struct PositLayer {
  std::unique_ptr<nn::Sequential> net;
  quant::PositSession session;

  const tensor::Tensor& run(const tensor::Tensor& x) { return session.run(x); }
};

/// w is [out, in] for a Linear, or [O, I, KH, KW] with `conv` supplying the
/// window, stride and padding (its H/W are taken from each run's input). An
/// empty bias means none: a zero bias on a Linear (posit x + 0 == x, so the
/// bits equal a bias-less reference), with_bias=false on a Conv2d.
inline PositLayer posit_layer(const tensor::Tensor& w, const tensor::Tensor& bias,
                              const posit::PositSpec& spec, quant::AccumMode mode,
                              const std::optional<tensor::Conv2dGeom>& conv = std::nullopt) {
  tensor::Rng rng(1);  // the ctor init is overwritten below
  auto net = std::make_unique<nn::Sequential>("net");
  nn::Param* weight = nullptr;
  nn::Param* b = nullptr;
  if (conv) {
    auto layer = std::make_unique<nn::Conv2d>("layer", conv->in_c, conv->out_c, conv->kh(),
                                              conv->stride, conv->pad, rng,
                                              /*with_bias=*/bias.numel() > 0, conv->kernel_w);
    weight = &layer->weight();
    if (layer->has_bias()) b = &layer->bias();
    net->add(std::move(layer));
  } else {
    auto layer = std::make_unique<nn::Linear>("layer", w.shape()[1], w.shape()[0], rng);
    weight = &layer->weight();
    if (bias.numel() > 0) b = &layer->bias();  // the ctor zero-inits the bias
    net->add(std::move(layer));
  }
  weight->value = w;
  weight->mark_updated();
  if (b != nullptr) {
    b->value = bias;
    b->mark_updated();
  }
  quant::SessionConfig cfg;
  cfg.spec = spec;
  cfg.mode = mode;
  quant::PositSession session = quant::PositSession::compile(*net, cfg);
  return {std::move(net), std::move(session)};
}

}  // namespace pdnn::test_support
