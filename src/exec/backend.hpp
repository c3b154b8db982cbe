// backend.hpp — what it means to execute an ExecPlan.
//
// A Backend owns everything numeric about a compiled network — weight panels
// in its own operand format, scratch, arenas — and runs the shared plan's
// dataflow. exec::FloatBackend is the FP32 implementation on the blocked
// GEMM path; quant::PositSession is the true-posit implementation. Both obey
// the same contract:
//
//   * compile binds the plan's leaf modules (the module graph must outlive
//     the backend) and pre-computes every weight-derived panel;
//   * run() walks the plan through exec::PlanRunner (runner.hpp), the one
//     step interpreter, which calls the backend's per-op kernels and writes
//     a slot arena; it returns a reference to the output buffer; steady state (repeated shapes, no weight mutation)
//     performs no heap allocation and takes no lock.
//
// ## The run() output contract (read before keeping the reference)
//
// The reference run() returns points INTO BACKEND-OWNED STORAGE and is
// silently overwritten by the next run() on the same backend — a
// use-after-overwrite trap for any pipelined or concurrent caller that holds
// it across calls. The rules:
//
//   * consume or copy the output before calling run() again;
//   * a backend instance is single-caller: concurrent run() calls on one
//     backend are a data race. Concurrency comes from a pool of clone()d
//     backends (serve::Engine owns one per worker), never from sharing one;
//   * anything that must outlive the next run() — e.g. a serving future —
//     is copied out of the buffer (serve::Engine scatters each batch row
//     into its request's future storage before the worker's next batch).
//
// run_checked() enforces the rule mechanically: it returns the same
// reference wrapped with the run's generation number, and Output::get()
// throws std::logic_error once a later run() has overwritten the buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "exec/plan.hpp"

namespace pdnn::exec {

class Backend {
 public:
  virtual ~Backend() = default;

  /// Eval-mode forward pass; see the output contract above. Non-virtual:
  /// stamps the run generation, then dispatches to the backend's run_impl.
  const tensor::Tensor& run(const tensor::Tensor& x) {
    ++generation_;
    return run_impl(x);
  }

  /// run() plus a stale-read guard: the returned handle re-checks the
  /// backend's generation on every access, so holding an output across a
  /// later run() fails loudly instead of silently reading overwritten data.
  struct Output {
    const tensor::Tensor& get() const {
      if (backend->run_generation() != generation) {
        throw std::logic_error(
            "exec::Backend::Output: stale read — a later run() overwrote this output buffer "
            "(copy the tensor out before the next run)");
      }
      return *tensor;
    }
    const Backend* backend = nullptr;
    const tensor::Tensor* tensor = nullptr;
    std::uint64_t generation = 0;
  };

  Output run_checked(const tensor::Tensor& x) {
    const tensor::Tensor& t = run(x);
    return Output{this, &t, generation_};
  }

  /// Monotonic count of run() calls — the Output staleness stamp. Not
  /// atomic: a backend instance is single-caller by contract (see above),
  /// so the counter is only ever touched by its owning thread.
  std::uint64_t run_generation() const { return generation_; }

  /// A fresh backend over the same module graph and configuration, with its
  /// own panels, scratch, and arenas — the serve::Engine worker-pool hook.
  /// Clones share the (read-only in steady state) module graph but no
  /// mutable state, so each can run() on its own thread.
  virtual std::unique_ptr<Backend> clone() const = 0;

  /// The shared plan this backend executes.
  virtual const ExecPlan& plan() const = 0;

  /// Bytes held by the slot arena (peak shapes seen so far).
  virtual std::size_t arena_bytes() const = 0;

 protected:
  virtual const tensor::Tensor& run_impl(const tensor::Tensor& x) = 0;

  /// For backends with additional run-like entry points that overwrite slot
  /// buffers (FloatBackend's training forward/backward): stamp the generation
  /// exactly like run() does, so Output handles from earlier runs go stale.
  void bump_generation() { ++generation_; }

 private:
  std::uint64_t generation_ = 0;
};

}  // namespace pdnn::exec
