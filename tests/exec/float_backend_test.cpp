// float_backend_test.cpp — the compiled FP32 backend against the eager
// module walk: bit-equality on fixed and randomized graphs (nested
// Sequential, ResidualBlock with/without downsample) across batch-shape
// changes and N = 0, zero-heap-allocation steady state (counted by
// support/heap_counter.hpp), Param::version-driven panel refresh, and the
// PrecisionPolicy hook parity that lets a quantized trainer eval through
// the plan.
#include <gtest/gtest.h>

#include <cstring>

#include "exec/float_backend.hpp"
#include "graph_gen.hpp"
#include "nn/activations.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "quant/policy.hpp"
#include "support/bits.hpp"
#include "support/heap_counter.hpp"

namespace pdnn::exec {
namespace {

using test_support::bit_identical;
using test_support::g_heap_allocs;

using tensor::Rng;
using tensor::Tensor;

TEST(FloatBackend, MlpBitIdenticalToEagerForward) {
  Rng rng(211);
  auto net = nn::mlp(6, 12, 3, 2, rng);
  FloatBackend backend = FloatBackend::compile(*net);
  const Tensor x = Tensor::randn({5, 6}, rng);
  EXPECT_TRUE(bit_identical(backend.run(x), net->forward(x, false)));
}

TEST(FloatBackend, ResNetBitIdenticalToEagerForward) {
  Rng rng(223);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 2;  // downsample blocks included
  rc.base_channels = 4;
  auto net = nn::cifar_resnet(rc, rng);
  const Tensor warm = Tensor::randn({4, 3, 8, 8}, rng);
  net->forward(warm, true);
  net->forward(warm, true);
  FloatBackend backend = FloatBackend::compile(*net);
  const Tensor x = Tensor::randn({3, 3, 8, 8}, rng);
  EXPECT_TRUE(bit_identical(backend.run(x), net->forward(x, false)));
}

TEST(FloatBackend, RandomizedGraphsAcrossBatchShapesIncludingEmpty) {
  Rng rng(227);
  for (int trial = 0; trial < 40; ++trial) {
    exec_test::RandomNet rn = exec_test::random_cnn(rng, 2);
    FloatBackend backend = FloatBackend::compile(*rn.net);
    const tensor::Shape& s = rn.input_shape;
    for (const std::size_t batch : {2u, 5u, 2u, 0u, 3u}) {
      const Tensor x = Tensor::randn({batch, s[1], s[2], s[3]}, rng);
      const Tensor want = rn.net->forward(x, false);
      EXPECT_TRUE(bit_identical(backend.run(x), want))
          << "trial " << trial << " batch " << batch << "\n"
          << backend.plan().dump(backend.arena_bytes());
    }
  }
}

TEST(FloatBackend, SteadyStateRunPerformsZeroHeapAllocations) {
  Rng rng(229);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  auto net = nn::cifar_resnet(rc, rng);
  net->forward(Tensor::randn({2, 3, 8, 8}, rng), true);
  FloatBackend backend = FloatBackend::compile(*net);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  backend.run(x);
  backend.run(x);  // arena, GEMM pack scratch, and OpenMP team all settled
  const Tensor want = backend.run(x);
  const std::uint64_t before = g_heap_allocs.load();
  for (int r = 0; r < 5; ++r) backend.run(x);
  EXPECT_EQ(g_heap_allocs.load(), before)
      << "steady-state run() must not touch the heap\n"
      << backend.plan().dump(backend.arena_bytes());
  EXPECT_TRUE(bit_identical(backend.run(x), want));
  EXPECT_GT(backend.arena_bytes(), 0u);
}

TEST(FloatBackend, ParamMutationRefreshesPanels) {
  Rng rng(233);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend backend = FloatBackend::compile(*net);
  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor y1 = backend.run(x);

  const Tensor out = net->forward(x, true);
  net->backward(Tensor::full(out.shape(), 0.1f));
  nn::SgdMomentum opt(net->params(), nn::SgdConfig{0.5f, 0.0f, 0.0f});
  opt.step();

  const Tensor y2 = backend.run(x);
  EXPECT_FALSE(bit_identical(y1, y2)) << "stale panels survived the optimizer step";
  EXPECT_TRUE(bit_identical(y2, net->forward(x, false)));
}

TEST(FloatBackend, QuantPolicyHooksMatchEagerForward) {
  Rng rng(239);
  auto net = nn::plain_cnn(4, 3, rng);
  net->forward(Tensor::randn({4, 3, 8, 8}, rng), true);
  quant::QuantPolicy policy(quant::QuantConfig::cifar8());  // kTowardZero rounding
  net->set_policy(&policy);
  policy.activate();
  FloatBackend backend = FloatBackend::compile(*net, &policy);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_TRUE(bit_identical(backend.run(x), net->forward(x, false)));

  // Deactivation must drop the quantized panels and match plain FP32 again.
  policy.deactivate();
  EXPECT_TRUE(bit_identical(backend.run(x), net->forward(x, false)));
  net->set_policy(nullptr);
}

TEST(FloatBackend, EmptyGraphThrowsAtCompile) {
  // Previously an empty graph "worked" by returning a reference that aliased
  // the caller's own input tensor — a contract violation lower() now rejects.
  nn::Sequential net("empty");
  EXPECT_THROW(FloatBackend::compile(net), std::invalid_argument);
}

TEST(FloatBackend, InvalidateRebuildsPanelsWithoutVersionBump) {
  Rng rng(251);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend backend = FloatBackend::compile(*net);
  const Tensor x = Tensor::randn({3, 4}, rng);
  backend.run(x);
  // Mutate a weight behind Param::version's back — the cached W^T panel goes
  // stale invisibly, exactly the out-of-band case invalidate() exists for.
  nn::Param* w = net->params().front();
  for (std::size_t i = 0; i < w->value.numel(); ++i) w->value[i] *= 1.5f;
  backend.invalidate();
  EXPECT_TRUE(bit_identical(backend.run(x), net->forward(x, false)));
}

TEST(FloatBackend, UnknownModuleTypeThrowsAtCompile) {
  nn::Sequential net("n");
  net.add(std::make_unique<nn::Tanh>("tanh"));
  EXPECT_THROW(FloatBackend::compile(net), std::invalid_argument);
}

TEST(FloatBackend, WrongInputShapeThrowsWithDimensions) {
  Rng rng(241);
  auto net = nn::mlp(4, 6, 2, 1, rng);
  FloatBackend backend = FloatBackend::compile(*net);
  EXPECT_THROW(backend.run(Tensor({2, 3, 4, 4})), std::invalid_argument);
  try {
    backend.run(Tensor({2, 5}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[2,5]"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace pdnn::exec
