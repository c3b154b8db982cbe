// posit_inference_test.cpp — true posit-arithmetic forward passes vs the
// FP32-simulated quantized forward: the emulation-fidelity check.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "quant/posit_inference.hpp"
#include "quant/posit_session.hpp"
#include "support/posit_layer.hpp"
#include "train/trainer.hpp"

namespace pdnn::quant {
namespace {

using posit::PositSpec;
using test_support::posit_layer;
using tensor::Rng;
using tensor::Tensor;

TEST(PositLinear, QuireMatchesDoubleReferenceOnExactCase) {
  // Small-integer weights/inputs: everything exact in posit(16,1); the quire
  // result must equal the FP32 matmul bit for bit.
  Tensor x({2, 3});
  Tensor w({2, 3});
  for (std::size_t i = 0; i < 6; ++i) {
    x[i] = static_cast<float>(static_cast<int>(i) - 2);  // -2..3
    w[i] = static_cast<float>(2 - static_cast<int>(i));  // 2..-3
  }
  const Tensor bias = Tensor::zeros({2});
  const Tensor y = posit_layer(w, bias, PositSpec{16, 1}, AccumMode::kQuire).run(x);
  const Tensor ref = tensor::matmul(x, tensor::transpose(w));
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], ref[i]) << i;
}

TEST(PositLinear, AllAccumulationModesCloseToFp32) {
  Rng rng(3);
  const Tensor x = Tensor::randn({4, 32}, rng, 0.5f);
  const Tensor w = Tensor::randn({8, 32}, rng, 0.3f);
  const Tensor bias = Tensor::randn({8}, rng, 0.1f);
  const Tensor ref = [&] {
    Tensor y = tensor::matmul(x, tensor::transpose(w));
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t o = 0; o < 8; ++o) y.at(i, o) += bias[o];
    return y;
  }();
  for (const AccumMode mode : {AccumMode::kQuire, AccumMode::kSerial, AccumMode::kFma}) {
    const Tensor y = posit_layer(w, bias, PositSpec{16, 1}, mode).run(x);
    for (std::size_t i = 0; i < y.numel(); ++i) {
      EXPECT_NEAR(y[i], ref[i], std::fabs(ref[i]) * 0.02 + 0.02)
          << "mode " << static_cast<int>(mode) << " idx " << i;
    }
  }
}

TEST(PositLinear, QuireIsMoreAccurateThanSerial) {
  // Long dot products with cancellation: serial rounding accumulates error,
  // the quire rounds once.
  Rng rng(5);
  const std::size_t dim = 512;
  const Tensor x = Tensor::randn({1, dim}, rng);
  const Tensor w = Tensor::randn({1, dim}, rng);
  const Tensor none;
  double ref = 0.0;
  for (std::size_t i = 0; i < dim; ++i) ref += static_cast<double>(x[i]) * w[i];

  const PositSpec spec{8, 1};  // coarse: differences show clearly
  const float q = posit_layer(w, none, spec, AccumMode::kQuire).run(x).at(0, 0);
  const float s = posit_layer(w, none, spec, AccumMode::kSerial).run(x).at(0, 0);
  // Quantization of inputs perturbs ref; compare against the quire result of
  // the quantized operands, which is the correctly-rounded answer by
  // construction: serial must be at least as far from it as zero.
  EXPECT_LE(std::fabs(q - ref), std::fabs(s - ref) + 1e-3)
      << "quire should not lose to serial accumulation";
}

TEST(PositConv, MatchesFp32OnExactWeights) {
  Rng rng(7);
  tensor::Conv2dGeom g{2, 6, 6, 3, 3, 1, 1};
  Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
  // Snap x to posit(16,1) values so the conv inputs are exact.
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(posit::to_double(posit::from_double(x[i], {16, 1}), {16, 1}));
  }
  Tensor w({3, 2, 3, 3});
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] = static_cast<float>((static_cast<int>(i) % 5) - 2) * 0.25f;
  const Tensor ref = tensor::conv2d_forward(x, w, g);
  const Tensor none;
  const Tensor y = posit_layer(w, none, PositSpec{16, 1}, AccumMode::kQuire, g).run(x);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    // Inputs/weights exact; quire sum exact; only the final rounding differs.
    EXPECT_NEAR(y[i], ref[i], std::fabs(ref[i]) * 0.001 + 1e-4) << i;
  }
}

TEST(PositForward, MlpAgreementWithSimulatedQuantization) {
  // Train a small MLP with the posit16 policy, then compare the simulated
  // quantized forward against true posit arithmetic inference.
  Rng rng(11);
  auto net = nn::mlp(2, 16, 2, 1, rng);
  const auto data = pdnn::data::make_two_moons(120, 0.15f, 5);

  QuantConfig cfg = QuantConfig::imagenet16();
  QuantPolicy policy(cfg);
  train::TrainerConfig tc;
  tc.epochs = 15;
  tc.batch_size = 32;
  tc.policy = &policy;
  tc.warmup_epochs = 1;
  tc.on_warmup_end = [&policy](nn::Module& n) {
    policy.calibrate(n);
    policy.activate();
  };
  train::Trainer trainer(*net, tc);
  trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);

  // Simulated quantized forward (eval mode, policy active).
  const Tensor sim = exec::FloatBackend::compile(*net, &policy).run(data.test.images);
  // True posit inference: the session reads the raw weights, which already
  // live on the posit grid after training.
  const Tensor real = PositSession::compile(*net, SessionConfig::from_quant(cfg, AccumMode::kQuire))
                          .run(data.test.images);

  // Predictions should agree almost everywhere.
  std::size_t agree = 0;
  const std::size_t n = sim.shape()[0];
  for (std::size_t i = 0; i < n; ++i) {
    const int a = sim.at(i, 0) > sim.at(i, 1) ? 0 : 1;
    const int b = real.at(i, 0) > real.at(i, 1) ? 0 : 1;
    agree += a == b;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(n), 0.97)
      << "true posit inference must reproduce the simulated model";
}

TEST(PositForward, UnsupportedLayerThrows) {
  // ResidualBlock compiles since the session API; a module type the engine
  // has no lowering for must still fail loudly.
  class Opaque final : public nn::Module {
   public:
    Opaque() : Module("opaque") {}
    Tensor forward(const Tensor& x, bool) override { return x; }
    Tensor backward(const Tensor& g) override { return g; }
  };
  nn::Sequential net("n");
  net.add(std::make_unique<Opaque>());
  const auto cfg = SessionConfig::from_quant(QuantConfig{}, AccumMode::kQuire);
  EXPECT_THROW(PositSession::compile(net, cfg), std::invalid_argument);
}

TEST(PositForward, ResidualBlockRunsEndToEnd) {
  // The former hard limitation: a skip-connected block must now run in true
  // posit arithmetic and track the FP32 forward.
  Rng rng(13);
  nn::Sequential net("n");
  net.add(std::make_unique<nn::ResidualBlock>("rb", 3, 5, 2, rng));
  const Tensor warm = Tensor::randn({6, 3, 8, 8}, rng);
  net.forward(warm, true);
  net.forward(warm, true);

  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor ref = net.forward(x, false);
  const auto cfg = SessionConfig::from_quant(QuantConfig::imagenet16(), AccumMode::kQuire);
  const Tensor y = PositSession::compile(net, cfg).run(x);
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[i], ref[i], std::fabs(ref[i]) * 0.05 + 0.05) << i;
  }
}

TEST(PositForward, PlainCnnRunsEndToEnd) {
  Rng rng(17);
  auto net = nn::plain_cnn(4, 3, rng);
  // Populate BN running stats with a few training batches.
  const Tensor warm = Tensor::randn({8, 3, 8, 8}, rng);
  net->forward(warm, true);
  net->forward(warm, true);

  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor ref = net->forward(x, false);
  const auto cfg = SessionConfig::from_quant(QuantConfig::imagenet16(), AccumMode::kQuire);
  const Tensor y = PositSession::compile(*net, cfg).run(x);
  ASSERT_EQ(y.shape(), ref.shape());
  // posit(16,1) forward should track FP32 closely (weights are FP32 here, so
  // this measures pure arithmetic error).
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[i], ref[i], std::fabs(ref[i]) * 0.05 + 0.05) << i;
  }
}

}  // namespace
}  // namespace pdnn::quant
