// runner.hpp — the one ExecPlan interpreter every backend runs through.
//
// PlanRunner owns a compiled plan and the slot arena its buffers fold onto.
// forward() walks the steps: resolve the input slots, validate them and
// derive the output shape (infer_out_shape), bind the output slot, then call
// the backend's per-op callable. A backend keeps only its pre-run work, its
// per-op switch and its post-step hooks; the walk is a template, so a step
// costs no virtual call. Plan and arena are held by value because backends
// are returned and stored by value (a pointer into one would dangle).
#pragma once

#include <cstddef>
#include <utility>

#include "exec/plan.hpp"
#include "tensor/arena.hpp"

namespace pdnn::exec {

class PlanRunner {
 public:
  PlanRunner() = default;
  explicit PlanRunner(ExecPlan plan) : plan_(std::move(plan)) {
    arena_.configure(plan_.num_buffers);
  }

  const ExecPlan& plan() const { return plan_; }
  const tensor::TensorArena& arena() const { return arena_; }

  /// Slot `id`'s tensor; caller-owned slots (the plan input, a training
  /// plan's grad_out) have no buffer and resolve to `x`.
  const tensor::Tensor& slot(int id, const tensor::Tensor& x) const {
    const int b = buffer(id);
    return b < 0 ? x : arena_.at(static_cast<std::size_t>(b));
  }

  /// View slot `id`'s arena buffer as `shape` (grow-only storage).
  tensor::Tensor& bind(int id, const tensor::Shape& shape) {
    return arena_.bind(static_cast<std::size_t>(buffer(id)), shape);
  }

  /// The plan output (always arena-owned: a zero-step plan fails to lower).
  const tensor::Tensor& output() const {
    return arena_.at(static_cast<std::size_t>(buffer(plan_.output_slot)));
  }

  /// Run every forward step on input `x`, calling
  /// `op(index, step, in, skip, out)` (`skip` is null except for joins);
  /// `who` prefixes shape errors. Returns output().
  template <class Op>
  const tensor::Tensor& forward(const tensor::Tensor& x, const char* who, Op&& op) {
    for (std::size_t i = 0; i < plan_.steps.size(); ++i) {
      const Step& s = plan_.steps[i];
      const tensor::Tensor& in = slot(s.in0, x);
      const tensor::Tensor* skip = s.in1 >= 0 ? &slot(s.in1, x) : nullptr;
      const tensor::Shape* skip_shape = skip != nullptr ? &skip->shape() : nullptr;
      tensor::Tensor& out = bind(s.out, infer_out_shape(s, in.shape(), skip_shape, who));
      op(i, s, in, skip, out);
    }
    return output();
  }

 private:
  int buffer(int id) const { return plan_.slots[static_cast<std::size_t>(id)].buffer; }

  ExecPlan plan_;
  tensor::TensorArena arena_;
};

}  // namespace pdnn::exec
