// backward_test.cpp — the compiled training path (FloatBackend
// compile_training / train_forward / run_backward) against the eager
// Module::forward(training)/backward chain: finite-difference gradient
// checks, bit-equality on 40+ randomized nested graphs (including N = 0 and
// batch-shape changes), the Fig. 3 policy hooks against the eager layers
// under every deterministic policy, BN running-stat commit parity,
// zero-heap-allocation steady state, invalidate() reaching the backward
// panels, and the training-API misuse throws.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exec/float_backend.hpp"
#include "graph_gen.hpp"
#include "nn/layers.hpp"
#include "nn/resnet.hpp"
#include "quant/float_policy.hpp"
#include "quant/policy.hpp"
#include "support/bits.hpp"
#include "support/heap_counter.hpp"
#include "tensor/ops.hpp"

namespace pdnn::exec {
namespace {

using test_support::bit_identical;
using test_support::expect_nets_identical;
using test_support::g_heap_allocs;

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// One eager training step on `net`: zero grads, training forward, backward.
Tensor eager_step(nn::Module& net, const Tensor& x, const Tensor& grad_out, Tensor& out) {
  for (nn::Param* p : net.params()) p->zero_grad();
  out = net.forward(x, /*training=*/true);
  return net.backward(grad_out);
}

/// Compiled counterpart on a compile_training backend, committing BN stats
/// (the eager forward folds them in-line; the backend defers to the caller).
const Tensor& plan_step(FloatBackend& b, const Tensor& x, const Tensor& grad_out, Tensor& out) {
  b.zero_grad();
  out = b.train_forward(x);
  b.commit_bn_stats();
  return b.run_backward(grad_out);
}

void expect_steps_match(nn::Module& eager_net, FloatBackend& b, const Tensor& x,
                        const Tensor& grad_out, const std::string& ctx) {
  Tensor eager_out, plan_out;
  const Tensor eager_gin = eager_step(eager_net, x, grad_out, eager_out);
  const Tensor& plan_gin = plan_step(b, x, grad_out, plan_out);
  EXPECT_TRUE(bit_identical(eager_out, plan_out)) << ctx << ": forward outputs differ";
  EXPECT_TRUE(bit_identical(eager_gin, plan_gin)) << ctx << ": input gradients differ";

  const std::vector<nn::Param*> eager_params = eager_net.params();
  const std::vector<Tensor>& plan_grads = b.param_grads();
  ASSERT_EQ(eager_params.size(), plan_grads.size()) << ctx;
  for (std::size_t i = 0; i < eager_params.size(); ++i) {
    EXPECT_TRUE(bit_identical(eager_params[i]->grad, plan_grads[i]))
        << ctx << ": grad of param " << i << " (" << eager_params[i]->name << ") differs";
  }
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checks
// ---------------------------------------------------------------------------

float loss_of(FloatBackend& b, const Tensor& x, const std::vector<int>& labels) {
  return tensor::cross_entropy(b.train_forward(x), labels, nullptr);
}

/// Central-difference check of d(loss)/d(param[j]) against the compiled
/// backward, for a handful of entries per parameter tensor.
void fd_check(nn::Module& net, const Tensor& x, const std::vector<int>& labels) {
  FloatBackend b = FloatBackend::compile_training(net);
  b.zero_grad();
  const Tensor& logits = b.train_forward(x);
  Tensor dlogits;
  tensor::cross_entropy(logits, labels, &dlogits);
  b.run_backward(dlogits);

  const std::vector<nn::Param*> params = b.trained_params();
  const std::vector<Tensor>& grads = b.param_grads();
  // Small enough to sit inside the local linear patch (ReLU/maxpool kinks,
  // BN curvature); large enough that FP32 loss noise stays below tol.
  const float h = 1e-3f;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    nn::Param& p = *params[pi];
    const std::size_t probes[] = {0, p.value.numel() / 2, p.value.numel() - 1};
    for (const std::size_t j : probes) {
      const float orig = p.value[j];
      p.value[j] = orig + h;
      p.mark_updated();
      const float lp = loss_of(b, x, labels);
      p.value[j] = orig - h;
      p.mark_updated();
      const float lm = loss_of(b, x, labels);
      p.value[j] = orig;
      p.mark_updated();
      const float fd = (lp - lm) / (2.0f * h);
      const float got = grads[pi][j];
      const float tol = std::max(5e-2f * std::fabs(fd), 2e-3f);
      EXPECT_NEAR(got, fd, tol) << "param " << p.name << " entry " << j;
    }
  }
}

TEST(TrainBackward, FiniteDifferenceMlp) {
  Rng rng(11);
  auto net = nn::mlp(5, 8, 3, 2, rng);
  const Tensor x = Tensor::randn({4, 5}, rng);
  const std::vector<int> labels = {0, 2, 1, 2};
  fd_check(*net, x, labels);
}

TEST(TrainBackward, FiniteDifferenceConvBnPool) {
  Rng rng(13);
  nn::Sequential net("net");
  net.add(std::make_unique<nn::Conv2d>("conv", 2, 3, 3, 1, 1, rng, /*with_bias=*/true));
  net.add(std::make_unique<nn::BatchNorm2d>("bn", 3));
  net.add(std::make_unique<nn::ReLU>("relu"));
  net.add(std::make_unique<nn::MaxPool2x2>("pool"));
  net.add(std::make_unique<nn::GlobalAvgPool>("gap"));
  net.add(std::make_unique<nn::Linear>("head", 3, 3, rng));
  const Tensor x = Tensor::randn({3, 2, 4, 4}, rng);
  const std::vector<int> labels = {1, 0, 2};
  fd_check(net, x, labels);
}

TEST(TrainBackward, FiniteDifferenceResidual) {
  Rng rng(17);
  nn::Sequential net("net");
  net.add(std::make_unique<nn::ResidualBlock>("res", 2, 4, 2, rng));
  net.add(std::make_unique<nn::GlobalAvgPool>("gap"));
  net.add(std::make_unique<nn::Linear>("head", 4, 3, rng));
  const Tensor x = Tensor::randn({3, 2, 4, 4}, rng);
  const std::vector<int> labels = {2, 1, 0};
  fd_check(net, x, labels);
}

// ---------------------------------------------------------------------------
// Eager-vs-plan bit-equality on randomized graphs
// ---------------------------------------------------------------------------

TEST(TrainBackward, RandomizedGraphsBitIdenticalToEager) {
  for (std::uint64_t trial = 0; trial < 42; ++trial) {
    const std::uint64_t seed = 5000 + trial * 31;
    // Two identically seeded nets: A walks the eager chain (which mutates
    // Param::grad and module caches), B is compiled.
    Rng rng_a(seed), rng_b(seed);
    const std::size_t batch = 1 + trial % 3;
    exec_test::RandomNet a = exec_test::random_cnn(rng_a, batch);
    exec_test::RandomNet c = exec_test::random_cnn(rng_b, batch);
    FloatBackend b = FloatBackend::compile_training(*c.net);

    Rng data_rng(seed ^ 0x9e3779b9);
    const Tensor x = Tensor::randn(a.input_shape, data_rng);
    Tensor probe_out = a.net->forward(x, /*training=*/false);
    const Shape gshape{batch, probe_out.shape()[1]};
    const std::string ctx = "trial " + std::to_string(trial);

    const Tensor g1 = Tensor::randn(gshape, data_rng);
    expect_steps_match(*a.net, b, x, g1, ctx + " batch 1");
    expect_nets_identical(*a.net, *c.net, ctx + " after batch 1");

    // Batch-shape change through the same compiled backend.
    const std::size_t batch2 = batch + 1 + trial % 2;
    const Tensor x2 =
        Tensor::randn({batch2, a.input_shape[1], a.input_shape[2], a.input_shape[3]}, data_rng);
    const Tensor g2 = Tensor::randn({batch2, gshape[1]}, data_rng);
    expect_steps_match(*a.net, b, x2, g2, ctx + " batch 2 (reshaped)");
    expect_nets_identical(*a.net, *c.net, ctx + " after batch 2");

    // Every few trials, push an N = 0 batch through both paths: identical
    // degenerate expressions (BN's 0/0 included) must yield identical bits.
    if (trial % 5 == 0) {
      const Tensor x0(Shape{0, a.input_shape[1], a.input_shape[2], a.input_shape[3]});
      const Tensor g0(Shape{0, gshape[1]});
      expect_steps_match(*a.net, b, x0, g0, ctx + " batch 3 (N=0)");
      expect_nets_identical(*a.net, *c.net, ctx + " after batch 3");
    }
  }
}

TEST(TrainBackward, GradientsAccumulateAcrossCallsLikeEager) {
  const std::uint64_t seed = 99;
  Rng rng_a(seed), rng_b(seed);
  exec_test::RandomNet a = exec_test::random_cnn(rng_a, 2);
  exec_test::RandomNet c = exec_test::random_cnn(rng_b, 2);
  FloatBackend b = FloatBackend::compile_training(*c.net);

  Rng data_rng(4242);
  const Tensor x = Tensor::randn(a.input_shape, data_rng);
  Tensor out = a.net->forward(x, /*training=*/false);
  const Tensor g = Tensor::randn({2, out.shape()[1]}, data_rng);

  // Two backward passes WITHOUT zero_grad in between: grads double up on
  // both paths (the eager Param::grad += contract).
  for (nn::Param* p : a.net->params()) p->zero_grad();
  b.zero_grad();
  for (int pass = 0; pass < 2; ++pass) {
    a.net->forward(x, /*training=*/true);
    a.net->backward(g);
    b.train_forward(x);
    b.commit_bn_stats();
    b.run_backward(g);
  }
  const std::vector<nn::Param*> eager_params = a.net->params();
  for (std::size_t i = 0; i < eager_params.size(); ++i) {
    EXPECT_TRUE(bit_identical(eager_params[i]->grad, b.param_grads()[i])) << "param " << i;
  }
}

// ---------------------------------------------------------------------------
// Fig. 3 policy hooks: compile_training(net, policy) vs the eager layers
// ---------------------------------------------------------------------------

/// Every deterministic policy family the paper benches train with, built
/// for `net` and switched on as the warm-up handoff does: cifar8 then
/// imagenet16, each with dynamic then calibrated shifts, each rounding
/// toward zero then to nearest-even; last the FP8 (1-5-2) float baseline.
std::vector<std::unique_ptr<nn::PrecisionPolicy>> policy_grid(nn::Module& net) {
  std::vector<std::unique_ptr<nn::PrecisionPolicy>> grid;
  for (const bool p16 : {false, true}) {
    for (const auto scale : {quant::ScaleMode::kDynamic, quant::ScaleMode::kCalibrated}) {
      for (const auto round : {posit::RoundMode::kTowardZero, posit::RoundMode::kNearestEven}) {
        quant::QuantConfig cfg =
            p16 ? quant::QuantConfig::imagenet16() : quant::QuantConfig::cifar8();
        cfg.scale_mode = scale;
        cfg.round_mode = round;
        auto p = std::make_unique<quant::QuantPolicy>(cfg);
        p->calibrate(net);
        p->activate();
        grid.push_back(std::move(p));
      }
    }
  }
  auto fp8 = std::make_unique<quant::FpPolicy>(quant::FpPolicyConfig::fp8_training());
  fp8->activate();
  grid.push_back(std::move(fp8));
  return grid;
}

/// Nudge every parameter (an SGD step stand-in), bumping its version.
void perturb(nn::Module& net) {
  for (nn::Param* p : net.params()) {
    for (std::size_t j = 0; j < p->value.numel(); ++j) {
      p->value[j] += 0.01f * static_cast<float>(j % 7);
    }
    p->mark_updated();
  }
}

TEST(TrainBackward, PolicyHooksBitIdenticalToEager) {
  // Identically seeded nets, each with its own instance of every policy: the
  // eager net gets it through set_policy, the plan through compile_training.
  // Both nets stay bit-identical, so each policy continues on them.
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;  // ResNet-8
  rc.base_channels = 4;
  rc.classes = 3;
  const std::vector<std::pair<std::function<std::unique_ptr<nn::Sequential>(Rng&)>, Shape>> graphs =
      {{[](Rng& r) { return nn::mlp(6, 10, 3, 2, r); }, Shape{3, 6}},
       {[](Rng& r) { return nn::plain_cnn(4, 3, r); }, Shape{3, 3, 8, 8}},
       {[rc](Rng& r) { return nn::cifar_resnet(rc, r); }, Shape{3, 3, 8, 8}}};
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    Rng rng_a(808), rng_b(808), data_rng(909);
    auto a = graphs[gi].first(rng_a);
    auto c = graphs[gi].first(rng_b);
    const auto pa = policy_grid(*a), pc = policy_grid(*c);
    for (std::size_t k = 0; k < pa.size(); ++k) {
      const std::string ctx = "graph " + std::to_string(gi) + " policy " + std::to_string(k);
      a->set_policy(pa[k].get());
      FloatBackend b = FloatBackend::compile_training(*c, pc[k].get());
      for (int step = 0; step < 2; ++step) {
        const Tensor x = Tensor::randn(graphs[gi].second, data_rng);
        const Tensor g = Tensor::randn({3, 3}, data_rng);
        expect_steps_match(*a, b, x, g, ctx + " step " + std::to_string(step));
        expect_nets_identical(*a, *c, ctx);
        // The compiled eval forward under the same policy matches eager too.
        EXPECT_TRUE(bit_identical(a->forward(x, /*training=*/false), b.run(x))) << ctx;
        // The next step's P(W) must re-derive from the new versions.
        perturb(*a);
        perturb(*c);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation and misuse
// ---------------------------------------------------------------------------

TEST(TrainBackward, SteadyStateTrainingStepIsAllocationFree) {
  Rng rng(7);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  rc.classes = 4;
  auto net = nn::cifar_resnet(rc, rng);
  FloatBackend b = FloatBackend::compile_training(*net);

  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor g = Tensor::randn({2, 4}, rng);
  for (int warm = 0; warm < 2; ++warm) {
    b.zero_grad();
    b.train_forward(x);
    b.commit_bn_stats();
    b.run_backward(g);
  }
  const std::uint64_t before = g_heap_allocs.load();
  for (int r = 0; r < 5; ++r) {
    b.zero_grad();
    b.train_forward(x);
    b.commit_bn_stats();
    b.run_backward(g);
  }
  EXPECT_EQ(g_heap_allocs.load(), before)
      << "steady-state train_forward/run_backward must not touch the heap\n"
      << b.plan().dump(b.arena_bytes());
}

TEST(TrainBackward, InvalidateAfterEvalRunRebuildsBackwardPanels) {
  // An out-of-band weight write (no Param::mark_updated) is only seen after
  // invalidate(). Here the eval run() consumes that flag before
  // train_forward(); the backward conv W^T panels must still be rebuilt, so
  // dX equals that of a freshly compiled training backend.
  Rng rng(4321);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  rc.classes = 4;
  auto net = nn::cifar_resnet(rc, rng);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor g = Tensor::randn({2, 4}, rng);
  FloatBackend b = FloatBackend::compile_training(*net);
  b.train_forward(x);
  b.run_backward(g);  // binds every W^T panel
  for (nn::Param* p : net->params()) {
    for (std::size_t j = 0; j < p->value.numel(); ++j) p->value[j] *= -0.5f;
  }
  b.invalidate();
  b.run(x);
  b.train_forward(x);
  const Tensor got = b.run_backward(g);

  FloatBackend fresh = FloatBackend::compile_training(*net);
  fresh.train_forward(x);
  EXPECT_TRUE(bit_identical(got, fresh.run_backward(g)));
}

TEST(TrainBackward, WeightUpdateBetweenStepsRefreshesWithoutDrift) {
  // A weight mutation (Param::mark_updated) between steps must re-derive the
  // cached panels: the next compiled step equals a freshly compiled one.
  const std::uint64_t seed = 1234;
  Rng rng_a(seed), rng_b(seed);
  exec_test::RandomNet a = exec_test::random_cnn(rng_a, 2);
  exec_test::RandomNet c = exec_test::random_cnn(rng_b, 2);
  FloatBackend b = FloatBackend::compile_training(*c.net);

  Rng data_rng(77);
  const Tensor x = Tensor::randn(a.input_shape, data_rng);
  Tensor out = a.net->forward(x, /*training=*/false);
  const Tensor g = Tensor::randn({2, out.shape()[1]}, data_rng);
  expect_steps_match(*a.net, b, x, g, "before update");
  perturb(*a.net);
  perturb(*c.net);
  expect_steps_match(*a.net, b, x, g, "after update");
}

TEST(TrainBackward, TrainingApiMisuseThrows) {
  Rng rng(7);
  auto net = nn::mlp(6, 10, 3, 2, rng);
  const Tensor x = Tensor::randn({2, 6}, rng);

  FloatBackend inference = FloatBackend::compile(*net);
  EXPECT_THROW(inference.train_forward(x), std::logic_error);
  EXPECT_THROW(inference.run_backward(x), std::logic_error);
  EXPECT_THROW(inference.commit_bn_stats(), std::logic_error);

  FloatBackend training = FloatBackend::compile_training(*net);
  // Backward before any forward.
  EXPECT_THROW(training.run_backward(Tensor::zeros({2, 3})), std::logic_error);
  EXPECT_THROW(training.commit_bn_stats(), std::logic_error);
  training.train_forward(x);
  // grad_out shape must match the forward output.
  EXPECT_THROW(training.run_backward(Tensor::zeros({2, 4})), std::invalid_argument);
  EXPECT_THROW(training.run_backward(Tensor::zeros({3, 3})), std::invalid_argument);
  EXPECT_NO_THROW(training.run_backward(Tensor::zeros({2, 3})));
  // run() still works on a training backend (eval-mode forward).
  EXPECT_NO_THROW(training.run(x));
}

}  // namespace
}  // namespace pdnn::exec
