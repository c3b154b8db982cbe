// trainer.hpp — deterministic data-parallel training on the compiled ExecPlan.
//
// train::Trainer drives exec::FloatBackend's training mode
// (compile_training / train_forward / run_backward) instead of the eager
// Module::forward/backward chain, and shards each batch across worker
// threads. The determinism contract:
//
//   * The NUMERICS ARE DEFINED BY THE MICRO-BATCH, NOT THE WORKER COUNT.
//     A batch of N samples is cut into fixed contiguous shards of
//     `micro_batch` samples ([0,m), [m,2m), ...); shard s is processed by
//     worker s % workers on that worker's private backend (own arena, own
//     gradient accumulators), so shard results are bitwise independent of
//     which worker ran them or when.
//   * Per-shard logit gradients are scaled by n_s / N, making the summed
//     shard gradients the same mean-over-batch loss the eager loop
//     differentiates.
//   * After the join, shard gradients merge by a serial fixed-order tree
//     reduce (G[i] += G[i + stride] for stride = 1, 2, 4, ...) and BN batch
//     statistics fold into the modules' running estimates in shard order —
//     both independent of the worker assignment.
//
//   => Trained parameters are BIT-IDENTICAL for any `workers` value at
//      fixed micro_batch. And with micro_batch == batch_size (one shard,
//      scale n_s/N == 1), the whole step is bit-identical to a hand-written
//      eager loop (Module::forward/backward + SgdMomentum) on the same
//      batches.
//
// The paper's method runs on the same loop: an optional PrecisionPolicy
// fires the Fig. 3 hooks in the compiled backends and P(W_updated) in the
// SGD step, and fit() trains `warmup_epochs` in FP32 before on_warmup_end
// switches the policy on. A policy holds an RNG and counters, so its hook
// order must not depend on thread scheduling: it requires `workers == 1`.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/float_backend.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"

namespace pdnn::train {

struct TrainerConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 64;
  /// Shard size defining the numerics; 0 means batch_size (single shard,
  /// bit-identical to the eager loop).
  std::size_t micro_batch = 0;
  /// Worker threads sharing the shard queue round-robin. Any value yields
  /// the same trained bits; more workers only changes wall-clock.
  std::size_t workers = 1;
  nn::SgdConfig sgd;
  nn::StepSchedule schedule;
  std::uint64_t shuffle_seed = 1;
  bool verbose = false;
  /// Fig. 3 precision policy (not owned; nullptr trains in FP32). Its hooks
  /// fire whenever it is active. Requires workers == 1.
  nn::PrecisionPolicy* policy = nullptr;
  /// FP32 epochs before on_warmup_end fires (0: before the first epoch).
  std::size_t warmup_epochs = 1;
  /// Called once when warm-up finishes; wire this to
  /// QuantPolicy::calibrate(net) + activate(). May be empty.
  std::function<void(nn::Module&)> on_warmup_end;
  /// Called after every epoch (e.g. the Fig. 2 histogram collector).
  std::function<void(std::size_t epoch, nn::Module&)> on_epoch_end;
};

/// Aggregates of one optimizer step, weighted like the eager loop's epoch
/// accumulation (loss_sum is loss * samples).
struct StepStats {
  double loss_sum = 0.0;
  std::size_t correct = 0;
  std::size_t count = 0;
};

struct EpochResult {
  std::size_t epoch = 0;
  float lr = 0.0f;
  float train_loss = 0.0f;
  float train_acc = 0.0f;
  float test_acc = 0.0f;
  bool quantized = false;  ///< the policy was active during this epoch
};

class Trainer {
 public:
  /// Compiles one training backend per worker over `net` (which must outlive
  /// the trainer). The module graph is shared read-only during a step; all
  /// mutation (gradient merge, BN running stats, SGD update) happens serially
  /// on the calling thread after the workers join. Throws
  /// std::invalid_argument on batch_size 0 or a policy with workers > 1.
  Trainer(nn::Module& net, TrainerConfig cfg);

  /// One optimizer step on batch (bx, by): shard, forward/backward on the
  /// workers, merge, SGD update. Throws std::invalid_argument on an empty
  /// batch or a label count mismatch.
  StepStats step(const tensor::Tensor& bx, const std::vector<int>& by);

  /// Full training run: Fisher-Yates shuffle per epoch from shuffle_seed,
  /// lr from the step schedule, the warm-up handoff entering epoch
  /// warmup_epochs, one EpochResult per epoch. Throws std::invalid_argument
  /// on an empty train or test set or a label count mismatch.
  std::vector<EpochResult> fit(const tensor::Tensor& train_x, const std::vector<int>& train_y,
                               const tensor::Tensor& test_x, const std::vector<int>& test_y);

  /// Accuracy in eval mode (compiled forward, running BN stats, the policy's
  /// P(W)/P(A) while it is active). Throws std::invalid_argument on an empty
  /// set or a label count mismatch.
  float evaluate(const tensor::Tensor& x, const std::vector<int>& y, std::size_t batch = 128);

  std::size_t workers() const { return backends_.size(); }
  /// Arena bytes across all worker backends (bench reporting).
  std::size_t arena_bytes() const;

 private:
  void run_worker(std::size_t w, std::size_t n_shards, const tensor::Tensor& bx,
                  const std::vector<int>& by);
  tensor::Tensor gather(const tensor::Tensor& x, const std::vector<std::size_t>& idx,
                        std::size_t lo, std::size_t hi) const;

  nn::Module& net_;
  TrainerConfig cfg_;
  std::vector<exec::FloatBackend> backends_;  // one per worker
  std::vector<nn::Param*> params_;            // net.params() order
  nn::SgdMomentum opt_;

  // Per-worker scratch (indexed by worker id).
  std::vector<tensor::Tensor> worker_x_;
  std::vector<std::vector<int>> worker_y_;
  std::vector<tensor::Tensor> worker_dlogits_;

  // Per-shard results (indexed by shard id — worker-assignment independent).
  std::vector<std::vector<tensor::Tensor>> shard_grads_;
  struct ShardBnStats {
    std::vector<float> mean, var;
  };
  std::vector<std::vector<ShardBnStats>> shard_bn_;
  std::vector<double> shard_loss_;
  std::vector<std::size_t> shard_correct_;
  std::vector<std::size_t> shard_count_;
};

}  // namespace pdnn::train
