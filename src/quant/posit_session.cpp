#include "quant/posit_session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "exec/graph_builder.hpp"
#include "exec/kernels.hpp"
#include "exec/runner.hpp"
#include "posit/simd.hpp"
#include "quant/engine_gemm.hpp"
#include "tensor/ops.hpp"

namespace pdnn::quant {

using posit::PositSpec;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// SessionConfig
// ---------------------------------------------------------------------------

SessionConfig SessionConfig::from_quant(const QuantConfig& cfg, AccumMode mode) {
  SessionConfig c;
  c.spec = cfg.conv.forward;
  c.mode = mode;
  c.by_class[nn::LayerClass::kConv] = {cfg.conv.forward, {}};
  c.by_class[nn::LayerClass::kBn] = {cfg.bn.forward, {}};
  c.by_class[nn::LayerClass::kLinear] = {cfg.linear.forward, {}};
  return c;
}

PositSpec SessionConfig::spec_for(const std::string& name, nn::LayerClass cls) const {
  const auto by_n = by_name.find(name);
  if (by_n != by_name.end() && by_n->second.spec.has_value()) return *by_n->second.spec;
  const auto by_c = by_class.find(cls);
  if (by_c != by_class.end() && by_c->second.spec.has_value()) return *by_c->second.spec;
  return spec;
}

AccumMode SessionConfig::mode_for(const std::string& name, nn::LayerClass cls) const {
  const auto by_n = by_name.find(name);
  if (by_n != by_name.end() && by_n->second.mode.has_value()) return *by_n->second.mode;
  const auto by_c = by_class.find(cls);
  if (by_c != by_class.end() && by_c->second.mode.has_value()) return *by_c->second.mode;
  return mode;
}

// ---------------------------------------------------------------------------
// Per-step backend state over the shared ExecPlan
// ---------------------------------------------------------------------------

namespace {

/// A parameter tensor bound to a session-owned encoded panel. `version`
/// mirrors Param::version at encode time; a mismatch at run() re-encodes.
struct Binding {
  nn::Param* param = nullptr;
  std::uint64_t version = 0;
  posit::PackedPositTensor panel;
};

/// The posit-side state attached to one plan step: resolved format and
/// accumulation mode, LUT kernels, quire-arena index, encoded weight panels,
/// BN constants, and the encoded input batch plane the hot loop reuses.
struct StepState {
  PositSpec spec{16, 1};
  AccumMode mode = AccumMode::kQuire;
  detail::EngineLuts luts;
  int arena = -1;  ///< per-thread quire pool index (kQuire GEMMs, GAP)

  Binding weight, bias;  // bias.param == nullptr -> no bias (panel stays empty)

  // bn: constants derived from (gamma, beta, running stats) at encode time
  std::uint64_t gamma_version = 0, beta_version = 0, stats_version = 0;
  std::vector<std::uint32_t> bn_scale, bn_mean, bn_shift;

  detail::OperandBuffers input;  // steady-state scratch (grow-only)
};

}  // namespace

struct PositSession::Impl final : exec::Backend {
  SessionConfig cfg;
  nn::Module* net = nullptr;  // not owned; clone() recompiles from it
  exec::PlanRunner runner;
  std::vector<StepState> state;  // parallel to plan().steps

  struct Arena {
    PositSpec spec{16, 1};
    std::vector<posit::Quire> quires;  // one per OpenMP thread
  };
  std::vector<Arena> arenas;

  std::uint64_t encodes = 0;
  std::size_t bound = 0;
  bool force_refresh = false;

  const exec::ExecPlan& plan() const override { return runner.plan(); }
  std::size_t arena_bytes() const override { return runner.arena().bytes(); }
  std::unique_ptr<exec::Backend> clone() const override {
    return PositSession::compile_backend(*net, cfg);
  }

  int arena_for(const PositSpec& spec) {
    for (std::size_t i = 0; i < arenas.size(); ++i) {
      if (arenas[i].spec == spec) return static_cast<int>(i);
    }
    arenas.push_back({spec, {}});
    return static_cast<int>(arenas.size() - 1);
  }

  void ensure_arena_threads() {
    const std::size_t threads = static_cast<std::size_t>(detail::engine_threads());
    for (Arena& a : arenas) {
      while (a.quires.size() < threads) a.quires.emplace_back(a.spec);
    }
  }

  posit::Quire* pool(const StepState& s) {
    return s.arena >= 0 ? arenas[static_cast<std::size_t>(s.arena)].quires.data() : nullptr;
  }

  void bind(Binding& b, nn::Param& p, const PositSpec& spec) {
    b.param = &p;
    encode(b, spec);
    ++bound;
  }

  /// (Re)encode a bound parameter into its existing panel storage.
  void encode(Binding& b, const PositSpec& spec) {
    const Tensor& value = b.param->value;
    b.version = b.param->version;
    b.panel.shape = value.shape();
    encode_pack_into(value.data(), value.numel(), spec, b.panel);
    ++encodes;
  }

  /// (Re)derive the per-channel BN constants exactly as the per-layer engine
  /// does: scale = round(gamma) * round(1/sqrt(var+eps)), rounded once.
  void encode_bn(const exec::Step& step, StepState& s) {
    nn::BatchNorm2d& bn = *step.bn;
    const std::size_t c = bn.running_mean().size();
    s.bn_scale.resize(c);
    s.bn_mean.resize(c);
    s.bn_shift.resize(c);
    for (std::size_t ci = 0; ci < c; ++ci) {
      const double inv_std = 1.0 / std::sqrt(static_cast<double>(bn.running_var()[ci]) + bn.eps());
      const std::uint32_t g = posit::from_double(bn.gamma().value[ci], s.spec, kEncodeRound);
      s.bn_scale[ci] = posit::mul(g, posit::from_double(inv_std, s.spec, kEncodeRound), s.spec);
      s.bn_mean[ci] = posit::from_double(bn.running_mean()[ci], s.spec, kEncodeRound);
      s.bn_shift[ci] = posit::from_double(bn.beta().value[ci], s.spec, kEncodeRound);
    }
    s.gamma_version = bn.gamma().version;
    s.beta_version = bn.beta().version;
    s.stats_version = bn.stats_version();
    ++encodes;
  }

  void compile_step(const exec::Step& step, StepState& s);
  void refresh(bool force);

  const Tensor& run_impl(const Tensor& x) override;

  void exec_gemm(const exec::Step& step, StepState& s, const Tensor& in, Tensor& out);
  void exec_bn(StepState& s, const Tensor& in, Tensor& out);
  void exec_gap(StepState& s, const Tensor& in, Tensor& out);
  void exec_join(StepState& s, const Tensor& main, const Tensor& skip, Tensor& out);
};

// ---------------------------------------------------------------------------
// compile
// ---------------------------------------------------------------------------

void PositSession::Impl::compile_step(const exec::Step& step, StepState& s) {
  // Pooling and the join resolve with the conv family (step.cls; see the
  // lowering); ReLU and max pooling resolve a format they never use.
  s.spec = cfg.spec_for(step.name, step.cls);
  s.mode = cfg.mode_for(step.name, step.cls);
  // BN and the join run on the AVX2 lane kernels where they can; only the
  // coded step needs the (8,·) tables, and building one costs tens of ms.
  const bool coded_elementwise =
      !posit::simd::enabled() || !posit::simd::rounded_lanes_supported(s.spec);
  // GEMMs dispatch LUT kernels and, in kQuire mode, a quire pool.
  const auto resolve_accum = [&] {
    s.luts = detail::resolve_luts(s.spec, s.mode);
    if (s.mode == AccumMode::kQuire) s.arena = arena_for(s.spec);
  };
  switch (step.op) {
    case exec::OpKind::kLinear:
      resolve_accum();
      bind(s.weight, step.linear->weight(), s.spec);
      bind(s.bias, step.linear->bias(), s.spec);
      break;
    case exec::OpKind::kConv2d:
      if (step.folded_bn != nullptr) {
        // The session declines fold_bn by construction (compile() forces it
        // off); this guards against a hand-built plan ever reaching us.
        throw std::invalid_argument("PositSession: step '" + step.name +
                                    "' carries a folded BatchNorm; the posit backend declines "
                                    "fold_bn (pre-scaled weights break its encoded-BN numerics)");
      }
      resolve_accum();
      bind(s.weight, step.conv->weight(), s.spec);
      if (step.conv->has_bias()) bind(s.bias, step.conv->bias(), s.spec);
      break;
    case exec::OpKind::kBatchNorm:
      // The per-element transform is one fma: where the lane kernel cannot
      // run it, dispatch its table when the BN format is small enough,
      // whatever the accumulation mode. Under a later force_disable the coded
      // step runs posit::fma itself: the same bits, only slower.
      if (coded_elementwise && posit::fma_lut_supported(s.spec, posit::RoundMode::kNearestEven)) {
        s.luts.fma = &posit::fma_lut(s.spec, posit::RoundMode::kNearestEven);
      }
      encode_bn(step, s);
      break;
    case exec::OpKind::kGlobalAvgPool:
      s.arena = arena_for(s.spec);  // the plane sum always runs through a quire
      break;
    case exec::OpKind::kResidualJoin:
      // One rounded add, any mode; its table only off the lane kernel, as BN.
      if (coded_elementwise && posit::add_lut_supported(s.spec, posit::RoundMode::kNearestEven)) {
        s.luts.add = &posit::add_lut(s.spec, posit::RoundMode::kNearestEven);
      }
      break;
    case exec::OpKind::kRelu:
    case exec::OpKind::kMaxPool2x2:
      break;
  }
}

// ---------------------------------------------------------------------------
// refresh (Param::version-driven re-encode)
// ---------------------------------------------------------------------------

void PositSession::Impl::refresh(bool force) {
  for (std::size_t i = 0; i < plan().steps.size(); ++i) {
    const exec::Step& step = plan().steps[i];
    StepState& s = state[i];
    for (Binding* b : {&s.weight, &s.bias}) {
      if (b->param != nullptr && (force || b->param->version != b->version)) encode(*b, s.spec);
    }
    if (step.bn != nullptr && (force || step.bn->gamma().version != s.gamma_version ||
                               step.bn->beta().version != s.beta_version ||
                               step.bn->stats_version() != s.stats_version)) {
      encode_bn(step, s);
    }
  }
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

const Tensor& PositSession::Impl::run_impl(const Tensor& x) {
  ensure_arena_threads();  // the caller may have grown the OpenMP team
  refresh(force_refresh);
  force_refresh = false;
  return runner.forward(x, "PositSession", [&](std::size_t i, const exec::Step& step,
                                                const Tensor& in, const Tensor* skip, Tensor& out) {
    StepState& s = state[i];
    switch (step.op) {
      case exec::OpKind::kLinear:
      case exec::OpKind::kConv2d: exec_gemm(step, s, in, out); break;
      case exec::OpKind::kBatchNorm: exec_bn(s, in, out); break;
      case exec::OpKind::kRelu: exec::relu_kernel(in, out); break;
      case exec::OpKind::kMaxPool2x2: exec::maxpool2x2_kernel(in, out); break;
      case exec::OpKind::kGlobalAvgPool: exec_gap(s, in, out); break;
      case exec::OpKind::kResidualJoin: exec_join(s, in, *skip, out); break;
    }
    if (step.epilogue.relu) {
      // The fusion pass swallowed a trailing nn::ReLU. The session's GEMM and
      // BN kernels store decoded floats, so clamping them here is bit-for-bit
      // what the separate kRelu step over the same buffer produced.
      exec::relu_kernel(out, out);
    }
  });
}

void PositSession::Impl::exec_gemm(const exec::Step& step, StepState& s, const Tensor& in,
                                   Tensor& out) {
  // One GEMM over the whole batch: rows = N * pixels, each weight row
  // decoded once per run; the output lands as [N, out_c, pixels]. A linear
  // step's [n, k] batch is n images of k channels under a 1x1 window.
  const tensor::Conv2dGeom geom =
      step.op == exec::OpKind::kLinear
          ? tensor::Conv2dGeom{step.in_c, 1, 1, step.out_c, 1, 1, 0}
          : tensor::Conv2dGeom{step.in_c,   in.shape()[2], in.shape()[3], step.out_c,
                               step.kernel, step.stride,   step.pad,      step.kernel_w};
  detail::engine_gemm(
      detail::encode_activation(in.data(), in.shape()[0], geom, s.spec, s.mode, s.luts, s.input),
      s.weight.panel, s.bias.panel, step.out_c, s.mode, out.data(), s.luts, pool(s));
}

namespace {

/// Element i in [begin, end) through `lanes(i, count)`, an element-wise
/// lane kernel that returns how many it ran, when `use_lanes`; `coded(i)`
/// runs the group of kLanes it stopped at (a NaN or +-Inf, or the ragged
/// tail) and every element when not.
template <typename Lanes, typename Coded>
void run_elementwise(std::size_t begin, std::size_t end, bool use_lanes, Lanes lanes,
                     Coded coded) {
  for (std::size_t i = begin; i < end;) {
    if (use_lanes) i += lanes(i, end - i);
    const std::size_t stop = use_lanes ? std::min(end, i + posit::simd::kLanes) : end;
    for (; i < stop; ++i) coded(i);
  }
}

}  // namespace

void PositSession::Impl::exec_bn(StepState& s, const Tensor& in, Tensor& out) {
  // Eval-mode BN as posit arithmetic: y = scale * (x - mean) + shift with
  // scale/mean/shift pre-encoded per channel. The AVX2 lane kernel reads the
  // constants as exact doubles, decoded once per channel here; a channel
  // with a NaR constant, (32, *) and hosts without AVX2 run the coded step
  // on every element (with its table at small n when compiled off the
  // lanes).
  const std::size_t n = in.shape()[0], c = in.shape()[1];
  const std::size_t plane = in.shape()[2] * in.shape()[3];
  const bool lanes = posit::simd::enabled() && posit::simd::rounded_lanes_supported(s.spec);
  // Channel slices are independent (same parallel shape as the FP32 BN);
  // out may alias in (in-place step): reads and writes share the index.
#pragma omp parallel for schedule(static) if (c > 1 && n * plane > 4096)
  for (std::size_t ci = 0; ci < c; ++ci) {
    const std::uint32_t scale = s.bn_scale[ci];
    const std::uint32_t mean = s.bn_mean[ci];
    const std::uint32_t shift = s.bn_shift[ci];
    const std::uint32_t nar = s.spec.nar_code();
    const bool channel_lanes = lanes && scale != nar && mean != nar && shift != nar;
    const double scale_v = posit::to_double(scale, s.spec);
    const double mean_v = posit::to_double(mean, s.spec);
    const double shift_v = posit::to_double(shift, s.spec);
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* src = in.data() + (ni * c + ci) * plane;
      float* dst = out.data() + (ni * c + ci) * plane;
      run_elementwise(
          0, plane, channel_lanes,
          [&](std::size_t p, std::size_t count) {
            return posit::simd::batchnorm_lanes_avx2(src + p, count, s.spec, scale_v, mean_v,
                                                     shift_v, dst + p);
          },
          [&](std::size_t p) {
            const std::uint32_t xv = posit::from_double(src[p], s.spec, kEncodeRound);
            const std::uint32_t centered = posit::sub(xv, mean, s.spec);
            const std::uint32_t scaled = s.luts.fma != nullptr
                                             ? s.luts.fma->at(centered, scale, shift)
                                             : posit::fma(centered, scale, shift, s.spec);
            dst[p] = static_cast<float>(posit::to_double(scaled, s.spec));
          });
    }
  }
}

void PositSession::Impl::exec_gap(StepState& s, const Tensor& in, Tensor& out) {
  // Average = quire sum then posit division by the (exact) plane count.
  const std::size_t n = in.shape()[0], c = in.shape()[1];
  const std::size_t plane = in.shape()[2] * in.shape()[3];
  const std::uint32_t divisor =
      posit::from_double(static_cast<double>(plane), s.spec, kEncodeRound);
  posit::Quire* quires = pool(s);
  // Each (image, channel) cell owns its reduction; per-thread quires.
#pragma omp parallel
  {
    posit::Quire& quire = quires[detail::engine_thread_id()];
#pragma omp for schedule(static) collapse(2)
    for (std::size_t ni = 0; ni < n; ++ni) {
      for (std::size_t ci = 0; ci < c; ++ci) {
        quire.clear();
        const float* src = in.data() + (ni * c + ci) * plane;
        for (std::size_t p = 0; p < plane; ++p) {
          quire.add_posit(posit::from_double(src[p], s.spec, kEncodeRound));
        }
        const std::uint32_t sum = quire.to_posit();
        out.at(ni, ci) =
            static_cast<float>(posit::to_double(posit::div(sum, divisor, s.spec), s.spec));
      }
    }
  }
}

void PositSession::Impl::exec_join(StepState& s, const Tensor& main, const Tensor& skip,
                                   Tensor& out) {
  const std::size_t numel = out.numel();
  const float* ma = main.data();
  const float* sk = skip.data();
  float* dst = out.data();
  // Join then ReLU, all in the block's format: one rounded add per element
  // in every mode (a quire sum of two terms rounds to the same code), on the
  // AVX2 lane kernel or as the coded step (with its table at small n when
  // compiled off the lanes).
  const bool lanes = posit::simd::enabled() && posit::simd::rounded_lanes_supported(s.spec);
  const auto coded = [&](std::size_t i) {
    const std::uint32_t a = posit::from_double(ma[i], s.spec, kEncodeRound);
    const std::uint32_t b = posit::from_double(sk[i], s.spec, kEncodeRound);
    const std::uint32_t joined =
        s.luts.add != nullptr ? s.luts.add->at(a, b) : posit::add(a, b, s.spec);
    const float v = static_cast<float>(posit::to_double(joined, s.spec));
    dst[i] = v > 0.0f ? v : 0.0f;
  };
  // Elements are independent: contiguous blocks split the span across the
  // team, each run by the kernel from its start.
  constexpr std::size_t kBlock = 4096;
  const std::size_t blocks = (numel + kBlock - 1) / kBlock;
#pragma omp parallel for schedule(static) if (numel > 16384)
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    run_elementwise(
        blk * kBlock, std::min(numel, (blk + 1) * kBlock), lanes,
        [&](std::size_t i, std::size_t count) {
          return posit::simd::residual_join_lanes_avx2(ma + i, sk + i, count, s.spec, dst + i);
        },
        coded);
  }
}

// ---------------------------------------------------------------------------
// PositSession
// ---------------------------------------------------------------------------

PositSession::PositSession() : impl_(std::make_unique<Impl>()) {}
PositSession::PositSession(PositSession&&) noexcept = default;
PositSession& PositSession::operator=(PositSession&&) noexcept = default;
PositSession::~PositSession() = default;

PositSession PositSession::compile(nn::Module& net, const SessionConfig& cfg) {
  PositSession session;
  Impl& I = *session.impl_;
  I.cfg = cfg;
  I.net = &net;
  // The session consumes the bit-identical passes (fused ReLU clamps the
  // decoded floats it stores anyway; 1x1 elision is moot, its gather reads
  // the input plane whatever the window) but
  // declines fold_bn: its BN runs in encoded posit arithmetic, and a
  // pre-scaled float weight panel would change which values get encoded.
  exec::PlanOptions opts = exec::PlanOptions::defaults();
  opts.fold_bn = false;
  I.runner = exec::PlanRunner(exec::GraphBuilder::lower(net, opts));
  const std::vector<exec::Step>& steps = I.plan().steps;
  I.state.resize(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) I.compile_step(steps[i], I.state[i]);
  I.ensure_arena_threads();
  return session;
}

std::unique_ptr<exec::Backend> PositSession::compile_backend(nn::Module& net,
                                                            const SessionConfig& cfg) {
  PositSession session = compile(net, cfg);
  return std::move(session.impl_);
}

const Tensor& PositSession::run(const Tensor& x) { return impl_->run(x); }

void PositSession::invalidate() { impl_->force_refresh = true; }

const SessionConfig& PositSession::config() const { return impl_->cfg; }
const exec::ExecPlan& PositSession::plan() const { return impl_->plan(); }
std::size_t PositSession::arena_bytes() const { return impl_->arena_bytes(); }
std::size_t PositSession::steps() const { return impl_->plan().top_level_steps; }
std::size_t PositSession::bound_params() const { return impl_->bound; }
std::uint64_t PositSession::encode_count() const { return impl_->encodes; }

std::size_t PositSession::panel_bytes() const {
  std::size_t bytes = 0;
  for (const StepState& s : impl_->state) {
    for (const Binding* b : {&s.weight, &s.bias}) bytes += b->panel.payload_bytes();
    bytes += (s.bn_scale.size() + s.bn_mean.size() + s.bn_shift.size()) * sizeof(std::uint32_t);
  }
  return bytes;
}

std::size_t PositSession::panel_scratch_bytes() const {
  std::size_t bytes = 0;
  for (const StepState& s : impl_->state) bytes += s.input.bytes();
  return bytes;
}

}  // namespace pdnn::quant
