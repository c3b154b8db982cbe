// float_backend.hpp — compile-once/run-many FP32 inference over an ExecPlan.
//
// The float twin of quant::PositSession: GraphBuilder lowers the module tree
// once, ArenaPlanner folds every intermediate onto reusable arena buffers,
// and run() and train_forward() each walk the plan through the one
// exec::PlanRunner, supplying blocked-GEMM kernels with persistent im2col
// scratch and pre-transposed linear weight panels. Steady state
// (repeated shapes, no weight mutation) performs zero heap allocations,
// and outputs are bit-identical to chaining nn::Module::forward in eval
// mode — the eager path computes exactly the same GEMM calls, bias loops,
// and elementwise expressions, just with fresh temporaries each time. The
// PassPipeline's fusion passes (epilogue ReLU, 1x1 im2col elision) preserve
// that bit-identity; the opt-in fold_bn pass pre-scales conv weights by the
// BN affine and is epsilon-close instead (weights round once at fold time).
//
// An optional PrecisionPolicy fires the eager layers' Fig. 3 hooks at the
// same sites: W_p = P(W) cached per Param::version, A_p = P(A) in place on
// the slot buffer, and in a training backend's run_backward() E_p = P(E) and
// dW_p = P(dW) — so posit-simulated training and its eval loop run through
// the compiled plan. With no policy (or an inactive one), it is plain FP32.
//
// ## Training mode (compile_training)
//
// A training backend executes a GraphBuilder::lower_training plan:
// train_forward() is the training-mode forward (batch-stats BN writing x-hat
// to its save slot, ReLU/join masks and pool argmax recorded as backend
// state) and run_backward() replays the plan's grad steps in reverse forward
// order, accumulating parameter gradients into BACKEND-OWNED grad tensors
// (param_grads()) — never into the shared Param::grad, so cloned training
// backends can run on worker threads without racing. Both are bit-identical
// to the eager Module::forward(x, true)/backward chain (under a policy too,
// for any policy whose transforms are deterministic): the same GEMM calls,
// the same per-element expressions, the same serial accumulation orders —
// the only reordering is which operand of a final gradient add comes first
// (IEEE-commutative). Batch statistics land in bn_batch_stats(); they are
// NOT folded into the modules' running estimates until the trainer commits
// them (BatchNorm2d::update_running_stats), keeping clones side-effect-free.
// run() still works on a training backend and is the eval-mode forward.
// Steady state (repeated shapes, no weight mutation) allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/backend.hpp"
#include "exec/passes.hpp"
#include "exec/runner.hpp"
#include "nn/precision.hpp"

namespace pdnn::exec {

class FloatBackend final : public Backend {
 public:
  /// Compile `net` (any Module tree GraphBuilder can lower). The module
  /// graph must outlive the backend: weights, BN statistics, and biases are
  /// read through the live modules, with Param::version (and
  /// BatchNorm2d::stats_version) re-deriving cached panels exactly when a
  /// parameter mutates. `opts` selects the plan rewrites; a non-null
  /// `policy` forces fuse_epilogues/fold_bn off, because the Fig. 3 hooks
  /// fire between a layer and its trailing ReLU (and quantize W before BN
  /// applies) in the eager forward the policy path must match bit-for-bit.
  static FloatBackend compile(nn::Module& net, nn::PrecisionPolicy* policy = nullptr,
                              PlanOptions opts = PlanOptions::defaults());

  /// Compile a training backend (see "Training mode" above). No fusion
  /// passes: fused epilogues conflict with the saved activations and masks
  /// backward needs. A non-null `policy` fires the Fig. 3 hooks in
  /// train_forward() and run_backward() whenever it is active.
  static FloatBackend compile_training(nn::Module& net, nn::PrecisionPolicy* policy = nullptr);

  FloatBackend(FloatBackend&&) noexcept = default;
  FloatBackend& operator=(FloatBackend&&) noexcept = default;

  /// A fresh backend compiled over the same module graph and policy, with
  /// its own panels, scratch, and arena — see Backend::clone().
  std::unique_ptr<Backend> clone() const override;

  const ExecPlan& plan() const override { return runner_.plan(); }
  std::size_t arena_bytes() const override { return runner_.arena().bytes(); }
  std::size_t arena_buffers() const { return runner_.arena().buffers(); }
  /// The plan options actually compiled (after any policy forcing).
  const PlanOptions& options() const { return opts_; }

  /// Drop every cached panel (weight panels, BN-folded weights, and the
  /// backward W^T panels) so whichever of run() and train_forward() comes
  /// next re-derives them, mirroring quant::PositSession::invalidate().
  /// Version checks already catch Param and running-stat mutations; this is
  /// the belt-and-braces hook for out-of-band weight writes.
  void invalidate() { force_refresh_ = true; }

  // --- training API (compile_training backends only; others throw) ---------

  /// Per-BatchNorm-step batch statistics of the last train_forward(), in
  /// step order. The trainer folds them into the modules serially via
  /// BatchNorm2d::update_running_stats (or commit_bn_stats() below).
  struct BnBatchStats {
    nn::BatchNorm2d* bn = nullptr;
    std::vector<float> mean, var;
  };

  /// Training-mode forward pass: batch-stats BN (x-hat saved for backward),
  /// ReLU/join masks and pool argmax recorded. Same output contract as
  /// run(); the input `x` must stay alive and unmodified until run_backward
  /// finishes (the backward GEMMs read it). Shapes may vary between calls.
  const tensor::Tensor& train_forward(const tensor::Tensor& x);

  /// Backward pass over the last train_forward(). `grad_out` is
  /// d(loss)/d(output) with the forward output's shape; returns
  /// d(loss)/d(input) (arena-owned, valid until the next run-like call).
  /// Parameter gradients ACCUMULATE into param_grads() — call zero_grad()
  /// to start a fresh batch, exactly like the eager Param::grad contract.
  const tensor::Tensor& run_backward(const tensor::Tensor& grad_out);

  /// Zero the backend-owned gradient accumulators.
  void zero_grad();

  /// The trained parameters in nn::Module::params() order, and the
  /// backend-owned gradient tensors aligned with them.
  const std::vector<nn::Param*>& trained_params() const { return params_; }
  std::vector<tensor::Tensor>& param_grads() { return grads_; }
  const std::vector<tensor::Tensor>& param_grads() const { return grads_; }

  const std::vector<BnBatchStats>& bn_batch_stats() const { return bn_stats_; }
  /// Single-worker convenience: EMA-fold the last batch's BN statistics into
  /// the live modules in step order (bumps each stats_version). Data-parallel
  /// trainers commit shard stats themselves, in shard order.
  void commit_bn_stats();

 protected:
  /// Eval-mode forward pass behind Backend::run(); returns a reference into
  /// the slot arena, valid until the next run() (see the contract in
  /// backend.hpp). Batch size (and conv H/W) may vary between calls.
  const tensor::Tensor& run_impl(const tensor::Tensor& x) override;

 private:
  FloatBackend() = default;

  /// Per-step backend state: weight-derived panels and conv scratch.
  struct StepState {
    tensor::Tensor panel;    ///< linear: W^T [in,out] (P(W)^T under a policy)
    tensor::Tensor qweight;  ///< linear/conv under policy: P(W), read forward and backward
    std::uint64_t version = 0;
    bool bound = false;
    tensor::Tensor qgamma;  ///< bn under policy: P(gamma)
    std::uint64_t gamma_version = 0;
    tensor::Tensor cols;    ///< conv im2col scratch, persistent across runs
    // BN-folded conv panels (step.folded_bn != nullptr): fw = W * scale,
    // fb = (b - mean) * scale + beta with scale = gamma / sqrt(var + eps).
    // Keyed on every contributing version: conv W (version above), conv
    // bias, gamma (gamma_version above), beta, and the running stats.
    tensor::Tensor fw;
    tensor::Tensor fb;
    std::uint64_t bias_version = 0;
    std::uint64_t beta_version = 0;
    std::uint64_t stats_version = 0;
  };

  /// Per-step training state: saved-for-backward bookkeeping the arena can't
  /// hold (masks/argmax are not float tensors) plus persistent backward
  /// scratch. Grad-index fields map the step's parameters into
  /// params_/grads_.
  struct TrainState {
    tensor::Shape in_shape;              ///< forward input shape, per run
    std::vector<std::uint8_t> mask;      ///< relu / residual-join mask
    std::vector<std::size_t> argmax;     ///< maxpool winner indices
    std::vector<float> inv_std;          ///< bn: batch 1/sqrt(var+eps)
    int bn_stats = -1;                   ///< bn: index into bn_stats_
    int wgrad = -1;                      ///< linear/conv W, bn gamma
    int bgrad = -1;                      ///< linear/conv bias, bn beta
    tensor::Tensor w2d_t;                ///< conv: W^T [patch, out_c] panel
    std::uint64_t wt_version = 0;
    bool wt_bound = false;
    tensor::Tensor e_t;                  ///< linear: dY^T scratch
    tensor::Tensor dw;                   ///< linear: dW staging
    tensor::Tensor cols, cols_t, grad_cols;  ///< conv backward scratch
    tensor::Tensor dx_scratch;           ///< accumulate-mode dX staging
    tensor::Tensor eq;                   ///< P(E) copy of the incoming error
  };

  bool quantizing() const { return policy_ != nullptr && policy_->active(); }
  void refresh();
  void fold_conv_bn(const Step& s, StepState& st);
  void require_training(const char* who) const;

  void exec_linear(const Step& s, StepState& st, const tensor::Tensor& in, tensor::Tensor& out);
  void exec_conv(const Step& s, StepState& st, const tensor::Tensor& in, tensor::Tensor& out);
  void exec_bn(const Step& s, const StepState& st, const tensor::Tensor& in, tensor::Tensor& out);
  static void exec_gap(const tensor::Tensor& in, tensor::Tensor& out);
  static void exec_join(const tensor::Tensor& main, const tensor::Tensor& skip,
                        tensor::Tensor& out);

  void exec_bn_train(const Step& s, const StepState& st, TrainState& ts, const tensor::Tensor& in,
                     tensor::Tensor& out, tensor::Tensor& xhat);
  static void exec_relu_train(TrainState& ts, const tensor::Tensor& in, tensor::Tensor& out);
  static void exec_maxpool_train(TrainState& ts, const tensor::Tensor& in, tensor::Tensor& out);
  static void exec_join_train(TrainState& ts, const tensor::Tensor& main,
                              const tensor::Tensor& skip, tensor::Tensor& out);

  void exec_linear_grad(const Step& s, const float* w, TrainState& ts, const tensor::Tensor& e,
                        const tensor::Tensor& in, tensor::Tensor& gout, bool acc);
  void exec_conv_grad(const Step& s, const float* w, TrainState& ts, const tensor::Tensor& e,
                      const tensor::Tensor& in, tensor::Tensor& gout, bool acc);
  void exec_bn_grad(const Step& s, TrainState& ts, const tensor::Tensor& e,
                    const tensor::Tensor& xhat, tensor::Tensor& gout, bool acc);
  static void exec_relu_grad(const TrainState& ts, const tensor::Tensor& e, tensor::Tensor& gout,
                             bool acc);
  static void exec_maxpool_grad(TrainState& ts, const tensor::Tensor& e, tensor::Tensor& gout,
                                bool acc);
  static void exec_gap_grad(const TrainState& ts, const tensor::Tensor& e, tensor::Tensor& gout,
                            bool acc);

  PlanRunner runner_;
  PlanOptions opts_;
  std::vector<StepState> state_;
  nn::Module* net_ = nullptr;              // not owned; clone() recompiles from it
  nn::PrecisionPolicy* policy_ = nullptr;  // not owned
  bool panels_quantized_ = false;
  bool force_refresh_ = false;

  // Training-only state (empty for inference backends).
  std::vector<TrainState> tstate_;
  std::vector<nn::Param*> params_;      // net.params() order; clones agree
  std::vector<tensor::Tensor> grads_;   // backend-owned, aligned with params_
  std::vector<BnBatchStats> bn_stats_;  // kBatchNorm steps, in step order
  tensor::Shape train_out_shape_;       // last train_forward output shape
  const tensor::Tensor* train_input_ = nullptr;  // caller's x; backward GEMMs read it
  bool forward_done_ = false;
};

}  // namespace pdnn::exec
