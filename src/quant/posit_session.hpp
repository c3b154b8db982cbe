// posit_session.hpp — compiled whole-network posit inference.
//
// Production serving separates *compile* from *run* (cf. marian-dev's
// compiled expression graphs): walk the model once, bind every weight, plan
// every buffer — then make the hot loop do nothing but arithmetic.
// PositSession is the true-posit Backend over the shared exec layer:
//
//   * compile() lowers the module graph through exec::GraphBuilder into the
//     backend-neutral ExecPlan (Sequential nesting and ResidualBlock
//     skip-connections included — the residual join is one rounded posit
//     add per element), lets exec::ArenaPlanner
//     fold every intermediate tensor onto lifetime-shared arena buffers,
//     then resolves each step's (PositSpec, AccumMode) from SessionConfig,
//     pre-encodes every weight/bias/BN constant into session-owned
//     posit::PackedPositTensor panels, resolves the n <= 8 LUT kernels, and
//     plans per-thread quire arenas plus per-step scratch (each GEMM step's
//     input image, encoded and decoded once per element).
//   * run() executes the compiled plan through exec::PlanRunner, the exec
//     layer's one step interpreter, with posit per-op kernels. In steady state (shapes repeat, no
//     weight mutation) it performs no allocation and takes no lock: panels,
//     arenas, and scratch are reused; Param::version mismatches — an
//     optimizer step or checkpoint load that called Param::mark_updated() —
//     re-encode exactly the stale panels first.
//
// exec::FloatBackend executes the identical plan in FP32 — the session is
// one of two pluggable backends over one lowering and one interpreter.
//
// The session is the only way to run the posit engine GEMM; a single layer
// is a one-layer session. Every linear and conv step is bit-identical to the
// scalar reference (posit_linear_reference / posit_conv2d_reference) at
// every spec, accumulation mode, and thread count.
//
// BN constants re-encode whenever gamma/beta versions or the BN's
// stats_version change — a training forward that only moves the running
// statistics is caught automatically. invalidate() remains for mutations
// that bypass every version (e.g. writing a tensor's storage directly).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "exec/backend.hpp"
#include "exec/plan.hpp"
#include "nn/layers.hpp"
#include "quant/posit_inference.hpp"

namespace pdnn::quant {

/// Per-layer override of the session defaults. Unset fields inherit.
struct LayerOverride {
  std::optional<posit::PositSpec> spec;
  std::optional<AccumMode> mode;
};

/// Format/accumulation plan for a session: one default (spec, mode) pair
/// plus overrides keyed by layer class or by exact layer name (name wins
/// over class, class over default) — genuine per-layer mixed precision.
/// Pooling layers resolve with LayerClass::kConv.
struct SessionConfig {
  posit::PositSpec spec{16, 1};
  AccumMode mode = AccumMode::kQuire;
  std::map<nn::LayerClass, LayerOverride> by_class;
  std::map<std::string, LayerOverride> by_name;

  /// The session equivalent of QuantConfig's per-class forward formats
  /// (conv/bn/linear), under one accumulation mode.
  static SessionConfig from_quant(const QuantConfig& cfg, AccumMode mode);

  posit::PositSpec spec_for(const std::string& name, nn::LayerClass cls) const;
  AccumMode mode_for(const std::string& name, nn::LayerClass cls) const;
};

class PositSession {
 public:
  /// Compile `net` (any Module: a Sequential, a ResidualBlock, or a single
  /// layer) against `cfg`. Throws std::invalid_argument on module types the
  /// engine cannot execute.
  ///
  /// The session binds (but does not own) the network's parameters: `net`
  /// must outlive every run() — the Param::version checks read through into
  /// the live module graph.
  static PositSession compile(nn::Module& net, const SessionConfig& cfg);

  /// Compile as an owning exec::Backend — the polymorphic form a
  /// serve::Engine worker pool consumes (each worker clone()s an
  /// independent set of panels, quire arenas, and scratch over the same
  /// module graph). Same contract as compile().
  static std::unique_ptr<exec::Backend> compile_backend(nn::Module& net,
                                                        const SessionConfig& cfg);

  PositSession(PositSession&&) noexcept;
  PositSession& operator=(PositSession&&) noexcept;
  ~PositSession();

  /// Eval-mode forward pass in true posit arithmetic. Returns a reference to
  /// the session-owned output buffer, valid until the next run() or the
  /// session's destruction; copy it to keep it. Batch size (and conv H/W)
  /// may vary between calls; steady state means repeated shapes.
  const tensor::Tensor& run(const tensor::Tensor& x);

  /// Force every panel and BN constant to re-encode on the next run()
  /// (needed only for mutations that bypass every version counter, e.g.
  /// writing a parameter's storage without Param::mark_updated()).
  void invalidate();

  const SessionConfig& config() const;
  /// The backend-neutral lowering this session executes (step table, slot
  /// wiring, arena buffers) — ExecPlan::dump() pretty-prints it.
  const exec::ExecPlan& plan() const;
  /// Bytes held by the slot arena (peak run shapes seen so far).
  std::size_t arena_bytes() const;
  /// Top-level compiled steps (a ResidualBlock is one step).
  std::size_t steps() const;
  /// Parameter tensors bound to session-owned panels.
  std::size_t bound_params() const;
  /// Panel/constant encode passes performed, compile included — the
  /// observable for compile-once/run-many and invalidation tests.
  std::uint64_t encode_count() const;
  /// Resident model footprint: packed weight/bias code payloads plus the
  /// encoded BN constant vectors — the bytes that scale with clone count and
  /// decide how many worker backends stay cache-resident. Run scratch is
  /// excluded; see panel_scratch_bytes().
  std::size_t panel_bytes() const;
  /// Steady-state run scratch the session owns: each GEMM step's input
  /// image (a linear step's batch) as codes plus its kernel's operand form,
  /// grow-only — 0 before the first run, > 0 after it. The gathered panels
  /// are per-thread engine scratch (detail::engine_scratch_bytes()).
  std::size_t panel_scratch_bytes() const;

 private:
  PositSession();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pdnn::quant
