// passes_test.cpp — the plan-level pass pipeline: structural rewrites
// (BN constant folding, ReLU epilogue fusion, 1x1 im2col elision) checked
// step-by-step on hand-picked graphs, the single-reader protection that keeps
// twice-read values (residual skip operands) alive, and a randomized sweep of
// nested Sequential/ResidualBlock graphs comparing the compiled-with-passes
// plan against the eager module walk — bit-exact for the fusion-only passes,
// epsilon-bounded for the rounding-changing BN fold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "exec/float_backend.hpp"
#include "exec/graph_builder.hpp"
#include "exec/passes.hpp"
#include "graph_gen.hpp"
#include "nn/activations.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "support/bits.hpp"

namespace pdnn::exec {
namespace {

using test_support::bit_identical;
using tensor::Rng;
using tensor::Tensor;

/// Elementwise |got - want| <= atol + rtol*|want| — the oracle for fold_bn,
/// which pre-scales weights and therefore changes rounding but not math.
void expect_close(const Tensor& got, const Tensor& want, float rtol, float atol,
                  const std::string& what) {
  ASSERT_TRUE(got.shape() == want.shape()) << what;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    const float tol = atol + rtol * std::fabs(want[i]);
    ASSERT_NEAR(got[i], want[i], tol) << what << " at flat index " << i;
  }
}

TEST(PassPipeline, FoldAbsorbsBnBehindConvButNotBehindInput) {
  Rng rng(61);
  nn::Sequential net("n");
  // bn0 reads the plan input — no conv producer, so it must survive the fold
  // (and pick up its trailing ReLU as an epilogue instead).
  net.add(std::make_unique<nn::BatchNorm2d>("bn0", 3));
  net.add(std::make_unique<nn::ReLU>("relu0"));
  net.add(std::make_unique<nn::Conv2d>("conv", 3, 4, 3, 1, 1, rng, true));
  net.add(std::make_unique<nn::BatchNorm2d>("bn1", 4));
  net.add(std::make_unique<nn::ReLU>("relu1"));

  PlanOptions opts;
  opts.fold_bn = true;
  const ExecPlan p = GraphBuilder::lower(net, opts);

  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].op, OpKind::kBatchNorm);
  EXPECT_EQ(p.steps[0].folded_bn, nullptr);
  EXPECT_TRUE(p.steps[0].epilogue.relu);
  EXPECT_EQ(p.steps[1].op, OpKind::kConv2d);
  ASSERT_NE(p.steps[1].folded_bn, nullptr);
  EXPECT_EQ(p.steps[1].folded_bn->name(), "bn1");
  EXPECT_TRUE(p.steps[1].epilogue.bias);  // folded bias exists even for bias-free convs
  EXPECT_TRUE(p.steps[1].epilogue.relu);  // relu1 fused after the fold
  EXPECT_EQ(p.output_slot, p.steps[1].out);
}

TEST(PassPipeline, FoldedResNetHasNoBatchNormSteps) {
  Rng rng(67);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 2;  // includes downsample blocks
  rc.base_channels = 4;
  auto net = nn::cifar_resnet(rc, rng);
  PlanOptions opts;
  opts.fold_bn = true;
  const ExecPlan p = GraphBuilder::lower(*net, opts);
  std::size_t folded = 0;
  for (const Step& s : p.steps) {
    EXPECT_NE(s.op, OpKind::kBatchNorm) << s.name;
    folded += s.folded_bn != nullptr ? 1 : 0;
  }
  EXPECT_GT(folded, 0u);
}

TEST(PassPipeline, TwiceReadProducerOutputIsNeverFused) {
  // Hand-built plan: the linear's output feeds both the relu and a residual
  // join's skip operand. Fusing the relu would rewire the value the join
  // still needs — the single-reader rule must refuse.
  ExecPlan p;
  p.slots.resize(4);
  Step lin;
  lin.op = OpKind::kLinear;
  lin.name = "lin";
  lin.in0 = 0;
  lin.out = 1;
  Step relu;
  relu.op = OpKind::kRelu;
  relu.name = "relu";
  relu.in0 = 1;
  relu.out = 2;
  Step join;
  join.op = OpKind::kResidualJoin;
  join.name = "join";
  join.in0 = 2;
  join.in1 = 1;  // second reader of the linear's output
  join.out = 3;
  p.steps = {lin, relu, join};
  p.output_slot = 3;
  p.top_level_steps = 3;

  EXPECT_EQ(PassPipeline::fuse_relu_epilogues(p), 0u);
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_FALSE(p.steps[0].epilogue.relu);
}

TEST(PassPipeline, ReluIntoPlanOutputStillFuses) {
  // A trailing net-level ReLU's output IS the plan output; fusion rewires the
  // producer onto the output slot. (The protected case is the producer's own
  // out being the output slot — impossible when a relu reads it.)
  Rng rng(71);
  nn::Sequential net("n");
  net.add(std::make_unique<nn::Linear>("fc", 4, 3, rng));
  net.add(std::make_unique<nn::ReLU>("relu"));
  const ExecPlan p = GraphBuilder::lower(net, PlanOptions{});
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].op, OpKind::kLinear);
  EXPECT_TRUE(p.steps[0].epilogue.relu);
  EXPECT_EQ(p.output_slot, p.steps[0].out);
}

TEST(PassPipeline, ElisionRequiresUnitKernelUnitStrideZeroPad) {
  Rng rng(73);
  // Stride-1 downsample: the 1x1 projection qualifies for elision.
  nn::ResidualBlock same("b1", 4, 8, 1, rng);
  const ExecPlan p1 = GraphBuilder::lower(same, PlanOptions{});
  bool saw_1x1 = false;
  for (const Step& s : p1.steps) {
    if (s.op == OpKind::kConv2d && s.kernel == 1) {
      saw_1x1 = true;
      EXPECT_TRUE(s.elide_im2col) << s.name;
    } else if (s.op == OpKind::kConv2d) {
      EXPECT_FALSE(s.elide_im2col) << s.name;  // 3x3 convs keep their im2col
    }
  }
  EXPECT_TRUE(saw_1x1);

  // Stride-2 downsample: 1x1 kernel but strided — the input plane is NOT the
  // patch matrix, so the pass must leave it alone.
  nn::ResidualBlock strided("b2", 4, 8, 2, rng);
  const ExecPlan p2 = GraphBuilder::lower(strided, PlanOptions{});
  saw_1x1 = false;
  for (const Step& s : p2.steps) {
    if (s.op == OpKind::kConv2d && s.kernel == 1) {
      saw_1x1 = true;
      EXPECT_FALSE(s.elide_im2col) << s.name;
    }
  }
  EXPECT_TRUE(saw_1x1);
}

TEST(PassPipeline, RandomGraphsFusionBitIdenticalFoldEpsilonBounded) {
  // The headline contract across >= 50 random nested graphs: the default
  // (fusion-only) pipeline is bit-identical to the eager module walk; the
  // rounding-changing BN fold stays within float tolerance of it.
  Rng rng(79);
  PlanOptions fuse;  // defaults: fuse + elide, no fold
  PlanOptions fold = fuse;
  fold.fold_bn = true;
  for (int trial = 0; trial < 60; ++trial) {
    exec_test::RandomNet rn = exec_test::random_cnn(rng, 2);
    const tensor::Shape& s = rn.input_shape;
    const Tensor x = Tensor::randn({2, s[1], s[2], s[3]}, rng);
    const Tensor want = rn.net->forward(x, false);

    FloatBackend fused = FloatBackend::compile(*rn.net, nullptr, fuse);
    EXPECT_TRUE(bit_identical(fused.run(x), want))
        << "trial " << trial << "\n" << fused.plan().dump();

    FloatBackend folded = FloatBackend::compile(*rn.net, nullptr, fold);
    expect_close(folded.run(x), want, 1e-3f, 1e-4f,
                 "trial " + std::to_string(trial));
  }
}

TEST(PassPipeline, FoldedPanelsRefreshAfterTraining) {
  // Train-then-serve: a training forward moves the BN running stats (and only
  // the stats — no Param::version bump), an optimizer step moves gamma/beta
  // and the conv weights. The folded panels must chase both.
  Rng rng(83);
  auto net = nn::plain_cnn(4, 3, rng);
  const Tensor warm = Tensor::randn({4, 3, 8, 8}, rng);
  net->forward(warm, true);
  net->forward(warm, true);

  PlanOptions fold;
  fold.fold_bn = true;
  FloatBackend backend = FloatBackend::compile(*net, nullptr, fold);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor y1 = backend.run(x);
  expect_close(y1, net->forward(x, false), 1e-3f, 1e-4f, "pre-train");

  // One training step: running stats shift via the forward, parameters via
  // the optimizer.
  const Tensor out = net->forward(Tensor::randn({4, 3, 8, 8}, rng), true);
  net->backward(Tensor::full(out.shape(), 0.1f));
  nn::SgdMomentum opt(net->params(), nn::SgdConfig{0.5f, 0.0f, 0.0f});
  opt.step();

  const Tensor y2 = backend.run(x);
  EXPECT_FALSE(bit_identical(y1, y2)) << "stale folded panels survived training";
  expect_close(y2, net->forward(x, false), 1e-3f, 1e-4f, "post-train");

  // Stats-only movement (training forward, no optimizer step) must refresh
  // too — this is exactly what BatchNorm2d::stats_version exists for.
  net->forward(warm, true);
  const Tensor y3 = backend.run(x);
  EXPECT_FALSE(bit_identical(y2, y3)) << "stats_version change was not observed";
  expect_close(y3, net->forward(x, false), 1e-3f, 1e-4f, "post-stats-move");
}

}  // namespace
}  // namespace pdnn::exec
