// posit_session_test.cpp — the compiled PositSession against independent
// oracles: per-layer reference chains on Sequential nets across the full
// spec x mode grid, a hand-rolled scalar walk of a ResNet (residual joins
// included), the AVX2 element-wise BN/join kernels against the coded steps
// (non-finite inputs and NaR constants included), compile-once/run-many
// weight-mutation invalidation, whole-batch GEMMs against solo runs
// (ragged planes, multi-block panels, a NaN in one image), thread-count
// invariance,
// zero-heap-allocation steady state, per-layer precision
// overrides, and the empty/degenerate edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "posit/simd.hpp"
#include "quant/engine_gemm.hpp"
#include "quant/posit_session.hpp"
#include "support/bits.hpp"
#include "support/heap_counter.hpp"
#include "support/posit_layer.hpp"
#include "tensor/ops.hpp"

namespace pdnn::quant {
namespace {

using test_support::bit_identical;
using posit::PositSpec;
using tensor::Rng;
using test_support::g_heap_allocs;
using tensor::Tensor;

const std::vector<AccumMode>& mode_grid() {
  static const std::vector<AccumMode> modes = {AccumMode::kQuire, AccumMode::kSerial,
                                               AccumMode::kFma};
  return modes;
}

// ---------------------------------------------------------------------------
// Scalar oracle: an independent walk of the module graph chaining the
// retained reference kernels and hand-rolled per-element posit loops — no
// engine panels, no session code.
// ---------------------------------------------------------------------------

struct OracleFormats {
  PositSpec conv{16, 1};
  PositSpec bn{16, 1};
  PositSpec linear{16, 1};
  AccumMode mode = AccumMode::kQuire;
};

Tensor oracle_bn(const Tensor& h, nn::BatchNorm2d& bn, const PositSpec& spec) {
  Tensor out = h;
  const std::size_t n = h.shape()[0], c = h.shape()[1];
  const std::size_t plane = h.shape()[2] * h.shape()[3];
  for (std::size_t ci = 0; ci < c; ++ci) {
    const double inv_std = 1.0 / std::sqrt(static_cast<double>(bn.running_var()[ci]) + bn.eps());
    const std::uint32_t g = posit::from_double(bn.gamma().value[ci], spec, kEncodeRound);
    const std::uint32_t scale = posit::mul(g, posit::from_double(inv_std, spec, kEncodeRound), spec);
    const std::uint32_t mean = posit::from_double(bn.running_mean()[ci], spec, kEncodeRound);
    const std::uint32_t beta = posit::from_double(bn.beta().value[ci], spec, kEncodeRound);
    for (std::size_t ni = 0; ni < n; ++ni) {
      float* row = out.data() + (ni * c + ci) * plane;
      for (std::size_t p = 0; p < plane; ++p) {
        const std::uint32_t xv = posit::from_double(row[p], spec, kEncodeRound);
        const std::uint32_t centered = posit::sub(xv, mean, spec);
        row[p] = static_cast<float>(posit::to_double(posit::fma(centered, scale, beta, spec), spec));
      }
    }
  }
  return out;
}

Tensor oracle_gap(const Tensor& h, const PositSpec& spec) {
  const std::size_t n = h.shape()[0], c = h.shape()[1];
  const std::size_t plane = h.shape()[2] * h.shape()[3];
  Tensor out({n, c});
  posit::Quire quire(spec);
  const std::uint32_t divisor = posit::from_double(static_cast<double>(plane), spec, kEncodeRound);
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t ci = 0; ci < c; ++ci) {
      quire.clear();
      const float* src = h.data() + (ni * c + ci) * plane;
      for (std::size_t p = 0; p < plane; ++p) {
        quire.add_posit(posit::from_double(src[p], spec, kEncodeRound));
      }
      out.at(ni, ci) = static_cast<float>(
          posit::to_double(posit::div(quire.to_posit(), divisor, spec), spec));
    }
  }
  return out;
}

Tensor oracle_conv(const Tensor& h, nn::Conv2d& conv, const OracleFormats& f) {
  const tensor::Conv2dGeom geom{conv.in_channels(), h.shape()[2],  h.shape()[3],
                                conv.out_channels(), conv.kernel(), conv.stride(),
                                conv.pad(),          conv.kernel_w()};
  const Tensor none;
  return posit_conv2d_reference(h, conv.weight().value,
                                conv.has_bias() ? conv.bias().value : none, geom, f.conv, f.mode);
}

Tensor oracle_forward(nn::Module& m, const Tensor& x, const OracleFormats& f) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
    Tensor h = x;
    for (nn::Module* child : seq->children()) h = oracle_forward(*child, h, f);
    return h;
  }
  if (auto* rb = dynamic_cast<nn::ResidualBlock*>(&m)) {
    Tensor main = oracle_conv(x, rb->conv1(), f);
    main = oracle_bn(main, rb->bn1(), f.bn);
    main.apply([](float v) { return v > 0.0f ? v : 0.0f; });
    main = oracle_conv(main, rb->conv2(), f);
    main = oracle_bn(main, rb->bn2(), f.bn);
    Tensor skip = x;
    if (rb->has_downsample()) {
      skip = oracle_conv(x, *rb->down_conv(), f);
      skip = oracle_bn(skip, *rb->down_bn(), f.bn);
    }
    Tensor out = main;
    for (std::size_t i = 0; i < out.numel(); ++i) {
      const std::uint32_t a = posit::from_double(main[i], f.conv, kEncodeRound);
      const std::uint32_t b = posit::from_double(skip[i], f.conv, kEncodeRound);
      const float v = static_cast<float>(posit::to_double(posit::add(a, b, f.conv), f.conv));
      out[i] = v > 0.0f ? v : 0.0f;
    }
    return out;
  }
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) return oracle_conv(x, *conv, f);
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) return oracle_bn(x, *bn, f.bn);
  if (auto* fc = dynamic_cast<nn::Linear*>(&m)) {
    return posit_linear_reference(x, fc->weight().value, fc->bias().value, f.linear, f.mode);
  }
  if (dynamic_cast<nn::ReLU*>(&m) != nullptr) {
    Tensor h = x;
    h.apply([](float v) { return v > 0.0f ? v : 0.0f; });
    return h;
  }
  if (dynamic_cast<nn::MaxPool2x2*>(&m) != nullptr) {
    std::vector<std::size_t> argmax;
    return tensor::maxpool2x2_forward(x, argmax);
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr) return oracle_gap(x, f.conv);
  throw std::invalid_argument("oracle: unsupported module");
}

SessionConfig config_for(const OracleFormats& f) {
  SessionConfig cfg;
  cfg.spec = f.conv;
  cfg.mode = f.mode;
  cfg.by_class[nn::LayerClass::kConv] = {f.conv, {}};
  cfg.by_class[nn::LayerClass::kBn] = {f.bn, {}};
  cfg.by_class[nn::LayerClass::kLinear] = {f.linear, {}};
  return cfg;
}

// ---------------------------------------------------------------------------
// Bit-equality on Sequential graphs
// ---------------------------------------------------------------------------

TEST(PositSession, MlpBitIdenticalToReferenceChainAcrossSpecGridAndModes) {
  Rng rng(101);
  auto net = nn::mlp(6, 10, 3, 1, rng);
  const Tensor x = Tensor::randn({4, 6}, rng);
  for (const PositSpec& spec : {PositSpec{8, 0}, PositSpec{8, 1}, PositSpec{8, 2},
                                PositSpec{16, 0}, PositSpec{16, 1}, PositSpec{16, 2},
                                PositSpec{32, 0}, PositSpec{32, 1}, PositSpec{32, 2}}) {
    for (const AccumMode mode : mode_grid()) {
      OracleFormats f{spec, spec, spec, mode};
      PositSession session = PositSession::compile(*net, config_for(f));
      EXPECT_TRUE(bit_identical(session.run(x), oracle_forward(*net, x, f)))
          << spec.to_string() << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(PositSession, PlainCnnBitIdenticalToOracle) {
  Rng rng(103);
  auto net = nn::plain_cnn(4, 3, rng);
  const Tensor warm = Tensor::randn({6, 3, 8, 8}, rng);
  net->forward(warm, true);
  net->forward(warm, true);
  const Tensor x = Tensor::randn({3, 3, 8, 8}, rng);

  const QuantConfig cfg = QuantConfig::cifar8();  // mixed: posit8 conv, posit16 bn
  for (const AccumMode mode : mode_grid()) {
    PositSession session =
        PositSession::compile(*net, SessionConfig::from_quant(cfg, mode));
    const Tensor& got = session.run(x);
    OracleFormats f{cfg.conv.forward, cfg.bn.forward, cfg.linear.forward, mode};
    EXPECT_TRUE(bit_identical(got, oracle_forward(*net, x, f))) << static_cast<int>(mode);
  }
}

// ---------------------------------------------------------------------------
// ResNet: skip connections compile and run
// ---------------------------------------------------------------------------

TEST(PositSession, ResNetBitIdenticalToScalarOracle) {
  Rng rng(107);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  rc.classes = 4;
  auto net = nn::cifar_resnet(rc, rng);
  const Tensor warm = Tensor::randn({4, 3, 8, 8}, rng);
  net->forward(warm, true);
  net->forward(warm, true);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);

  const std::vector<OracleFormats> cases = {
      {{16, 1}, {16, 1}, {16, 1}, AccumMode::kQuire},
      {{8, 1}, {16, 1}, {8, 1}, AccumMode::kSerial},  // LUT-dispatched conv path
      {{8, 2}, {16, 2}, {8, 2}, AccumMode::kFma},
  };
  for (const OracleFormats& f : cases) {
    PositSession session = PositSession::compile(*net, config_for(f));
    const Tensor& got = session.run(x);
    const Tensor want = oracle_forward(*net, x, f);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_TRUE(bit_identical(got, want))
        << f.conv.to_string() << " mode " << static_cast<int>(f.mode);
  }
}

TEST(PositSession, ResNetTracksFp32Forward) {
  Rng rng(109);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 8;
  auto net = nn::cifar_resnet(rc, rng);
  const Tensor warm = Tensor::randn({4, 3, 8, 8}, rng);
  net->forward(warm, true);
  net->forward(warm, true);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor ref = net->forward(x, false);
  PositSession session =
      PositSession::compile(*net, SessionConfig::from_quant(QuantConfig::imagenet16(),
                                                            AccumMode::kQuire));
  const Tensor& y = session.run(x);
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[i], ref[i], std::fabs(ref[i]) * 0.05 + 0.05) << i;
  }
}

// ---------------------------------------------------------------------------
// Element-wise steps: AVX2 lane kernels vs the coded steps
// ---------------------------------------------------------------------------

/// The session's output with every AVX2 kernel on, and with all of them
/// forced off (BN and the join then run their coded per-element steps);
/// panel_bytes() must not depend on which ran.
std::pair<Tensor, Tensor> run_lanes_and_coded(nn::Module& net, const SessionConfig& cfg,
                                              const Tensor& x) {
  std::pair<Tensor, Tensor> out;
  std::size_t panels[2] = {};
  for (const bool scalar : {false, true}) {
    posit::simd::force_disable(scalar);
    PositSession session = PositSession::compile(net, cfg);
    (scalar ? out.second : out.first) = session.run(x);
    panels[scalar] = session.panel_bytes();
    posit::simd::force_disable(false);
  }
  EXPECT_EQ(panels[0], panels[1]);
  return out;
}

/// ResNet-8 (one block per stage) at 9x9: BN planes of 81, 25 and 9
/// elements leave ragged tails behind every group of four.
std::unique_ptr<nn::Sequential> small_resnet8(Rng& rng) {
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  rc.classes = 4;
  auto net = nn::cifar_resnet(rc, rng);
  const Tensor warm = Tensor::randn({4, 3, 9, 9}, rng);
  net->forward(warm, true);
  net->forward(warm, true);
  return net;
}

TEST(PositSession, ElementwiseLanesMatchTheCodedStepsOnResNetAndPlainCnn) {
  if (!posit::simd::available()) GTEST_SKIP() << "no AVX2 lane kernel on this host";
  Rng rng(163);
  auto resnet = small_resnet8(rng);
  auto plain = nn::plain_cnn(4, 3, rng);
  plain->forward(Tensor::randn({4, 3, 9, 9}, rng), true);
  const Tensor x = Tensor::randn({3, 3, 9, 9}, rng);
  for (nn::Sequential* net : {resnet.get(), plain.get()}) {
    for (const PositSpec spec : {PositSpec{8, 1}, PositSpec{16, 1}, PositSpec{16, 2}}) {
      for (const AccumMode mode : mode_grid()) {
        const OracleFormats f{spec, spec, spec, mode};
        const auto [lanes, coded] = run_lanes_and_coded(*net, config_for(f), x);
        EXPECT_TRUE(bit_identical(lanes, coded))
            << net->name() << " " << spec.to_string() << " mode " << static_cast<int>(mode);
      }
    }
  }
}

TEST(PositSession, ElementwiseLanesMatchTheCodedStepsOnNonFiniteInputsAndConstants) {
  // A NaN and an Inf pixel poison their conv windows (NaR -> NaN), so BN
  // and the joins meet non-finite groups mid-plane; a NaN gamma makes one
  // channel's BN scale NaR, which runs that channel coded. Both paths must
  // match each other and the scalar oracle.
  if (!posit::simd::available()) GTEST_SKIP() << "no AVX2 lane kernel on this host";
  Rng rng(167);
  auto net = small_resnet8(rng);
  Tensor x = Tensor::randn({2, 3, 9, 9}, rng);
  x.at(0, 1, 4, 4) = std::numeric_limits<float>::quiet_NaN();
  x.at(1, 2, 0, 7) = std::numeric_limits<float>::infinity();
  auto* block = dynamic_cast<nn::ResidualBlock*>(&net->child(3));
  ASSERT_NE(block, nullptr);
  const OracleFormats f{{16, 1}, {16, 1}, {16, 1}, AccumMode::kQuire};
  for (const bool nan_gamma : {false, true}) {
    if (nan_gamma) block->bn1().gamma().value[1] = std::numeric_limits<float>::quiet_NaN();
    const auto [lanes, coded] = run_lanes_and_coded(*net, config_for(f), x);
    EXPECT_TRUE(bit_identical(lanes, coded)) << "nan gamma " << nan_gamma;
    EXPECT_TRUE(bit_identical(lanes, oracle_forward(*net, x, f))) << "nan gamma " << nan_gamma;
  }
}

// ---------------------------------------------------------------------------
// Compile-once / run-many
// ---------------------------------------------------------------------------

TEST(PositSession, CompileOnceRunManyReencodesOnlyOnMutation) {
  Rng rng(113);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  const Tensor x = Tensor::randn({3, 4}, rng);
  SessionConfig cfg;
  cfg.spec = {16, 1};
  PositSession session = PositSession::compile(*net, cfg);
  EXPECT_EQ(session.bound_params(), 4u);  // 2 layers x (weight + bias)
  EXPECT_GT(session.panel_bytes(), 0u);

  const Tensor y1 = session.run(x);
  const std::uint64_t encodes_cold = session.encode_count();
  const Tensor y2 = session.run(x);
  EXPECT_EQ(session.encode_count(), encodes_cold) << "steady state must not re-encode weights";
  EXPECT_TRUE(bit_identical(y1, y2));

  // One SGD step rewrites every weight (Param::mark_updated); the next run
  // must re-encode exactly the bound panels and see the new values.
  const Tensor out = net->forward(x, true);
  net->backward(Tensor::full(out.shape(), 0.1f));
  nn::SgdMomentum opt(net->params(), nn::SgdConfig{0.5f, 0.0f, 0.0f});
  opt.step();
  const Tensor y3 = session.run(x);
  EXPECT_EQ(session.encode_count(), encodes_cold + 4) << "all four panels were stale";
  EXPECT_FALSE(bit_identical(y1, y3)) << "refreshed panels must reflect the updated weights";

  // A freshly compiled session agrees with the refreshed one bit for bit.
  PositSession fresh = PositSession::compile(*net, cfg);
  EXPECT_TRUE(bit_identical(y3, fresh.run(x)));
}

TEST(PositSession, PackedPanelsShrinkModelFootprint) {
  Rng rng(151);
  auto net = nn::mlp(16, 32, 4, 1, rng);
  SessionConfig cfg;
  cfg.spec = {8, 1};
  PositSession session = PositSession::compile(*net, cfg);
  std::size_t values = 0;
  for (const nn::Param* p : net->params()) values += p->value.numel();
  // 8-bit codes bit-pack to exactly one byte per value; the retired unpacked
  // layout held a uint32 code plus an 8-byte Unpacked lane per value, so the
  // packed panels must come in at no more than a quarter of it.
  EXPECT_EQ(session.panel_bytes(), values);
  EXPECT_LE(session.panel_bytes() * 4, values * 12);
  EXPECT_EQ(session.panel_scratch_bytes(), 0u) << "no run yet, so no activation scratch";

  const Tensor x = Tensor::randn({5, 16}, rng);
  session.run(x);
  EXPECT_GT(session.panel_scratch_bytes(), 0u) << "run scratch is accounted, just not as model";
  EXPECT_EQ(session.panel_bytes(), values) << "running must not grow the resident model";
}

TEST(PositSession, BnRunningStatsRefreshAutomatically) {
  Rng rng(127);
  auto net = nn::plain_cnn(4, 3, rng);
  const Tensor warm = Tensor::randn({4, 3, 8, 8}, rng);
  net->forward(warm, true);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  SessionConfig cfg;
  cfg.spec = {16, 1};
  PositSession session = PositSession::compile(*net, cfg);
  const Tensor y1 = session.run(x);

  // A training forward moves BN running stats but bumps no Param::version —
  // BatchNorm2d::stats_version covers exactly that writer, so the next run
  // re-encodes the BN constants with no invalidate() call.
  net->forward(Tensor::randn({4, 3, 8, 8}, rng), true);
  const Tensor y_fresh = session.run(x);
  EXPECT_FALSE(bit_identical(y_fresh, y1)) << "running stats moved; the output must too";
  PositSession recompiled = PositSession::compile(*net, cfg);
  EXPECT_TRUE(bit_identical(y_fresh, recompiled.run(x)));

  // invalidate() still forces a full re-encode (for storage mutations that
  // bypass every version counter) and must not change the answer.
  const std::uint64_t encodes = session.encode_count();
  session.invalidate();
  const Tensor y_again = session.run(x);
  EXPECT_GT(session.encode_count(), encodes);
  EXPECT_TRUE(bit_identical(y_again, y_fresh));
}

TEST(PositSession, BatchShapeMayVaryBetweenRuns) {
  Rng rng(131);
  auto net = nn::mlp(5, 7, 2, 1, rng);
  SessionConfig cfg;
  PositSession session = PositSession::compile(*net, cfg);
  const OracleFormats f{cfg.spec, cfg.spec, cfg.spec, cfg.mode};
  for (const std::size_t batch : {2u, 5u, 2u, 0u, 3u}) {
    const Tensor x = Tensor::randn({batch, 5}, rng);
    const Tensor& got = session.run(x);
    EXPECT_TRUE(bit_identical(got, oracle_forward(*net, x, f))) << "batch " << batch;
  }
}

// ---------------------------------------------------------------------------
// Whole-batch GEMMs: one GEMM per step over N * pixels patch rows
// ---------------------------------------------------------------------------

/// Whether the whole-batch run of `x` equals running its images one at a
/// time, image by image, bit for bit; `label` names the case on failure.
void expect_batch_matches_solo(PositSession& session, const Tensor& x, const std::string& label) {
  const Tensor batched = session.run(x);  // copy: the solo runs reuse the arena
  ASSERT_EQ(batched.shape()[0], x.shape()[0]) << label;
  const std::size_t per_image = batched.numel() / x.shape()[0];
  Tensor one;
  for (std::size_t i = 0; i < x.shape()[0]; ++i) {
    tensor::extract_span(x, i, 1, one);
    const Tensor& solo = session.run(one);
    ASSERT_EQ(solo.numel(), per_image) << label;
    EXPECT_EQ(std::memcmp(solo.data(), batched.data() + i * per_image, per_image * sizeof(float)),
              0)
        << label << " image " << i;
  }
}

/// One wide conv (k = 64 * 9 = 576) on 12x12 planes: 144 pixels an image,
/// so three or more images fill more than one L2-sized row block of the
/// batch's panel, and the blocks end mid-image.
std::unique_ptr<nn::Sequential> wide_conv(Rng& rng) {
  auto net = std::make_unique<nn::Sequential>("wide");
  net->add(std::make_unique<nn::Conv2d>("conv", 64, 4, 3, 1, 1, rng, true));
  return net;
}

TEST(PositSession, WholeBatchRunsMatchSoloRunsOnRaggedPlanes) {
  // ResNet-8 at 9x9: conv planes of 81, 25 and 9 pixels, none a multiple
  // of four, so lane tiles straddle two images; the wide conv runs several
  // row blocks. Batches of 1, 3 and 8 must give every image the bits of its
  // solo run, with the AVX2 kernels on and forced off, in every mode.
  Rng rng(173);
  auto resnet = small_resnet8(rng);
  auto wide = wide_conv(rng);
  const Tensor x8 = Tensor::randn({8, 3, 9, 9}, rng);
  const Tensor w8 = Tensor::randn({8, 64, 12, 12}, rng);
  Tensor x, w;
  for (const bool scalar : {false, true}) {
    posit::simd::force_disable(scalar);
    for (const PositSpec spec : {PositSpec{8, 1}, PositSpec{16, 1}}) {
      for (const AccumMode mode : mode_grid()) {
        const OracleFormats f{spec, spec, spec, mode};
        PositSession rs = PositSession::compile(*resnet, config_for(f));
        PositSession ws = PositSession::compile(*wide, config_for(f));
        for (const std::size_t batch : {1u, 3u, 8u}) {
          const std::string label = spec.to_string() + " mode " +
                                    std::to_string(static_cast<int>(mode)) + " batch " +
                                    std::to_string(batch) + (scalar ? " scalar" : "");
          tensor::extract_span(x8, 0, batch, x);
          tensor::extract_span(w8, 0, batch, w);
          expect_batch_matches_solo(rs, x, "resnet " + label);
          expect_batch_matches_solo(ws, w, "wide conv " + label);
        }
        tensor::extract_span(x8, 0, 3, x);
        EXPECT_TRUE(bit_identical(rs.run(x), oracle_forward(*resnet, x, f))) << spec.to_string();
      }
    }
    posit::simd::force_disable(false);
  }
}

TEST(PositSession, WholeBatchNarInOneImageStaysInThatImage) {
  // A NaN pixel in image 1 of 3 poisons its own conv windows (NaR -> NaN)
  // and nothing of images 0 and 2, although tiles and row blocks mix rows
  // of all three: each image keeps the bits of its solo run.
  Rng rng(179);
  auto resnet = small_resnet8(rng);
  auto wide = wide_conv(rng);
  Tensor x = Tensor::randn({3, 3, 9, 9}, rng);
  Tensor w = Tensor::randn({3, 64, 12, 12}, rng);
  x.at(1, 2, 4, 4) = std::numeric_limits<float>::quiet_NaN();
  w.at(1, 10, 0, 11) = std::numeric_limits<float>::quiet_NaN();
  for (const bool scalar : {false, true}) {
    posit::simd::force_disable(scalar);
    for (const AccumMode mode : mode_grid()) {
      const OracleFormats f{{16, 1}, {16, 1}, {16, 1}, mode};
      PositSession rs = PositSession::compile(*resnet, config_for(f));
      PositSession ws = PositSession::compile(*wide, config_for(f));
      const std::string label = "mode " + std::to_string(static_cast<int>(mode)) +
                                (scalar ? " scalar" : "");
      expect_batch_matches_solo(rs, x, "resnet " + label);
      expect_batch_matches_solo(ws, w, "wide conv " + label);
      const Tensor& y = ws.run(w);
      const std::size_t per_image = y.numel() / 3;
      std::size_t nans[3] = {};
      for (std::size_t i = 0; i < y.numel(); ++i) nans[i / per_image] += std::isnan(y[i]) ? 1 : 0;
      EXPECT_EQ(nans[0], 0u) << label;
      EXPECT_GT(nans[1], 0u) << label;
      EXPECT_EQ(nans[2], 0u) << label;
    }
    posit::simd::force_disable(false);
  }
}

TEST(PositSession, GatherGeometrySweepMatchesTheReference) {
  // The halo-plane gather of every operand form — (8,1) codes, (16,1) lane
  // doubles and quire lanes, (32,2) and every forced-scalar run Unpacked —
  // against the scalar reference, one-layer sessions: strides 1 and 2, pads
  // 0-2, a rectangular window, output lines of 7 and 5 pixels (tiles
  // straddle lines and images) beside lines of 8 (whole tiles per line), a
  // 1x1 stride-2 conv and a linear step, batches of 1, 3 and 8, AVX2 on and
  // forced off. With a NaN in image 1 the NaR outputs stay in image 1.
  struct Geometry {
    std::size_t in_c, in_h, in_w, kh, kw, stride, pad;
  };
  const Geometry convs[] = {
      {3, 9, 7, 3, 3, 1, 1}, {2, 9, 7, 3, 2, 2, 2}, {2, 6, 10, 3, 3, 1, 0},
      {4, 7, 7, 1, 1, 2, 0}, {3, 5, 6, 2, 3, 2, 1},
  };
  const std::pair<PositSpec, std::vector<AccumMode>> formats[] = {
      {{8, 1}, mode_grid()}, {{16, 1}, mode_grid()}, {{32, 2}, {AccumMode::kQuire}}};
  const std::size_t out_c = 5, linear_in = 13;
  Rng rng(191);
  std::set<int> forms;
  // cs < size(convs) runs that conv; cs == size(convs) the linear step.
  for (std::size_t cs = 0; cs <= std::size(convs); ++cs) {
    const bool linear = cs == std::size(convs);
    const Geometry c = linear ? Geometry{linear_in, 1, 1, 1, 1, 1, 0} : convs[cs];
    const tensor::Conv2dGeom g{c.in_c, c.in_h, c.in_w, out_c, c.kh, c.stride, c.pad, c.kw};
    const Tensor w = linear ? Tensor::randn({out_c, linear_in}, rng, 0.4f)
                            : Tensor::randn({out_c, c.in_c, c.kh, c.kw}, rng, 0.4f);
    const Tensor bias = Tensor::randn({out_c}, rng, 0.2f);
    for (const std::size_t batch : {1u, 3u, 8u}) {
      for (const bool poisoned : {false, true}) {
        if (poisoned && batch != 3) continue;
        Tensor x = linear ? Tensor::randn({batch, linear_in}, rng)
                          : Tensor::randn({batch, c.in_c, c.in_h, c.in_w}, rng);
        if (poisoned) x[x.numel() / 3 + 2] = std::numeric_limits<float>::quiet_NaN();
        for (const auto& [spec, modes] : formats) {
          for (const AccumMode mode : modes) {
            const Tensor ref = linear ? posit_linear_reference(x, w, bias, spec, mode)
                                      : posit_conv2d_reference(x, w, bias, g, spec, mode);
            auto layer = test_support::posit_layer(w, bias, spec, mode,
                                                   linear ? std::nullopt : std::optional(g));
            for (const bool scalar : {false, true}) {
              posit::simd::force_disable(scalar);
              detail::OperandBuffers probe;
              forms.insert(static_cast<int>(
                  detail::encode_activation(x.data(), batch, g, spec, mode,
                                            detail::resolve_luts(spec, mode), probe)
                      .form));
              const Tensor& y = layer.run(x);
              posit::simd::force_disable(false);
              const std::string label = (linear ? "linear" : "conv " + std::to_string(cs)) +
                                        " " + spec.to_string() + " mode " +
                                        std::to_string(static_cast<int>(mode)) + " batch " +
                                        std::to_string(batch) + (poisoned ? " NaN" : "") +
                                        (scalar ? " scalar" : " avx2");
              EXPECT_TRUE(bit_identical(y, ref)) << label;
              if (!poisoned) continue;
              std::size_t nans[3] = {};
              const std::size_t per_image = y.numel() / 3;
              for (std::size_t i = 0; i < y.numel(); ++i) nans[i / per_image] += std::isnan(y[i]);
              EXPECT_EQ(nans[0], 0u) << label;
              EXPECT_GT(nans[1], 0u) << label;
              EXPECT_EQ(nans[2], 0u) << label;
            }
          }
        }
      }
    }
  }
  const std::set<int> all = {static_cast<int>(detail::OperandForm::kCodes),
                             static_cast<int>(detail::OperandForm::kUnpacked),
                             static_cast<int>(detail::OperandForm::kLanes),
                             static_cast<int>(detail::OperandForm::kQuireLanes)};
  if (posit::simd::available()) {
    EXPECT_EQ(forms, all);
  }
}

TEST(PositSession, HaloStaysZeroWhenTheInputPlaneChangesSize) {
  // A conv step's input plane is re-laid out when a run brings new image
  // sizes: border slots that held a larger image's pixels must read zero
  // again. Each size in turn, in every operand form, against the reference.
  Rng rng(193);
  const std::size_t in_c = 3, out_c = 4;
  const Tensor w = Tensor::randn({out_c, in_c, 3, 3}, rng, 0.4f);
  const Tensor bias = Tensor::randn({out_c}, rng, 0.2f);
  const std::pair<std::size_t, std::size_t> sizes[] = {{9, 11}, {6, 6}, {11, 9}, {5, 14}};
  for (const PositSpec spec : {PositSpec{8, 1}, PositSpec{16, 1}}) {
    for (const AccumMode mode : mode_grid()) {
      for (const bool scalar : {false, true}) {
        const tensor::Conv2dGeom g0{in_c, 9, 11, out_c, 3, 1, 1};
        auto layer = test_support::posit_layer(w, bias, spec, mode, g0);
        for (const auto& [h, wd] : sizes) {
          const Tensor x = Tensor::randn({2, in_c, h, wd}, rng);
          const tensor::Conv2dGeom g{in_c, h, wd, out_c, 3, 1, 1};
          posit::simd::force_disable(scalar);
          const Tensor& y = layer.run(x);
          posit::simd::force_disable(false);
          EXPECT_TRUE(bit_identical(y, posit_conv2d_reference(x, w, bias, g, spec, mode)))
              << spec.to_string() << " mode " << static_cast<int>(mode) << " " << h << "x" << wd
              << (scalar ? " scalar" : " avx2");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Threading
// ---------------------------------------------------------------------------

TEST(PositSession, ThreadCountInvariance) {
#ifdef _OPENMP
  Rng rng(137);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  auto net = nn::cifar_resnet(rc, rng);
  const Tensor warm = Tensor::randn({4, 3, 8, 8}, rng);
  net->forward(warm, true);
  const Tensor x = Tensor::randn({3, 3, 8, 8}, rng);
  const int restore = omp_get_max_threads();
  for (const AccumMode mode : mode_grid()) {
    SessionConfig cfg;
    cfg.spec = {16, 1};
    cfg.mode = mode;
    omp_set_num_threads(1);
    PositSession session = PositSession::compile(*net, cfg);
    const Tensor serial = session.run(x);
    for (const int threads : {2, 4}) {
      // Growing the team after compile must both work (arenas grow) and
      // leave every bit unchanged.
      omp_set_num_threads(threads);
      EXPECT_TRUE(bit_identical(session.run(x), serial))
          << "mode " << static_cast<int>(mode) << " threads " << threads;
    }
    omp_set_num_threads(restore);
  }
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

TEST(PositSession, SteadyStateRunPerformsZeroHeapAllocations) {
  // The Backend contract: repeated shapes and no weight mutation touch no
  // heap — for every accumulation mode, a LUT-backed and a LUT-less format,
  // and (with OpenMP) a grown team. Re-encoding weights touches none either.
  Rng rng(149);
  nn::ResNetConfig rc;
  rc.blocks_per_stage = 1;
  rc.base_channels = 4;
  auto net = nn::cifar_resnet(rc, rng);
  net->forward(Tensor::randn({2, 3, 8, 8}, rng), true);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
#ifdef _OPENMP
  const int restore = omp_get_max_threads();
  const std::vector<int> teams = {1, 2};
#else
  const std::vector<int> teams = {1};
#endif
  for (const int threads : teams) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    for (const PositSpec spec : {PositSpec{8, 1}, PositSpec{16, 1}}) {
      for (const AccumMode mode : mode_grid()) {
        // posit(16,1)'s rounded chains, both formats' exact quire and every
        // BN and join run on the AVX2 lane kernels, whose tiles are
        // grow-only scratch too, and forced scalar on RoundedAccum, Quire
        // and the coded element-wise steps.
        const std::vector<bool> kernels = posit::simd::available() ? std::vector<bool>{false, true}
                                                                   : std::vector<bool>{false};
        for (const bool scalar : kernels) {
          posit::simd::force_disable(scalar);
          SessionConfig cfg;
          cfg.spec = spec;
          cfg.mode = mode;
          PositSession session = PositSession::compile(*net, cfg);
          session.run(x);
          session.run(x);  // arena, scratch, quire pools, and OpenMP team settled
          const Tensor want = session.run(x);
          const std::uint64_t before = g_heap_allocs.load();
          for (int r = 0; r < 5; ++r) session.run(x);
          EXPECT_EQ(g_heap_allocs.load(), before)
              << "steady-state run() must not touch the heap: posit(" << spec.n << "," << spec.es
              << ") mode " << static_cast<int>(mode) << " threads " << threads
              << (scalar ? " scalar" : "");
          EXPECT_TRUE(bit_identical(session.run(x), want));
          // A re-encode (here forced for every panel) writes each weight panel
          // into its existing storage; the first one settles the encode scratch.
          session.invalidate();
          session.run(x);
          const std::uint64_t before_reencode = g_heap_allocs.load();
          session.invalidate();
          EXPECT_TRUE(bit_identical(session.run(x), want));
          EXPECT_EQ(g_heap_allocs.load(), before_reencode)
              << "re-encoding must reuse the panels' storage: posit(" << spec.n << "," << spec.es
              << ") mode " << static_cast<int>(mode) << " threads " << threads
              << (scalar ? " scalar" : "");
          posit::simd::force_disable(false);
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(restore);
#endif
}

TEST(PositSession, EngineScratchCountsTheLaneKernelTiles) {
  // The engine's scratch is thread-local: run one layer on a fresh thread
  // (empty scratch) with the lane kernel on and forced off and count it.
  // 5 rows pad to one block of two 4-row tiles of k = 40 operands (doubles
  // for the fma chain, int64 for the exact quire; Unpacked off the kernel),
  // gathered straight from the input plane. One block reads each weight
  // row once, so the thread keeps one row in operand form (and, on the
  // kernel, its NaR flag), staged through one row of codes (and of
  // Unpacked for the lane forms); on the kernel, one double output per
  // block row. No NaR in the input: no row flags.
  if (!posit::simd::available()) GTEST_SKIP() << "no AVX2 lane kernel on this host";
  Rng rng(157);
  auto net = nn::mlp(40, 6, 6, 0, rng);
  const Tensor x = Tensor::randn({5, 40}, rng);
  for (const AccumMode mode : {AccumMode::kFma, AccumMode::kQuire}) {
    SessionConfig cfg;
    cfg.spec = {16, 1};
    cfg.mode = mode;
    PositSession session = PositSession::compile(*net, cfg);
    const auto scratch_after_run = [&](bool scalar) {
      std::size_t bytes = 0;
      std::thread([&] {
#ifdef _OPENMP
        omp_set_num_threads(1);
#endif
        posit::simd::force_disable(scalar);
        session.run(x);
        bytes = detail::engine_scratch_bytes();
        posit::simd::force_disable(false);
      }).join();
      return bytes;
    };
    static_assert(sizeof(double) == sizeof(std::int64_t), "both lane operands are 8 bytes");
    const std::size_t rows = 2 * posit::simd::kLanes, k = 40;
    const std::size_t tiles = rows * k * sizeof(double);
    const std::size_t weight = k * sizeof(double) + 1;
    const std::size_t staging = k * (sizeof(std::uint32_t) + sizeof(posit::Unpacked));
    const std::size_t outputs = rows * sizeof(double);
    EXPECT_EQ(scratch_after_run(false), tiles + weight + staging + outputs)
        << "mode " << static_cast<int>(mode);
    const std::size_t scalar = (rows + 1) * k * sizeof(posit::Unpacked) + k * sizeof(std::uint32_t);
    EXPECT_EQ(scratch_after_run(true), scalar) << "mode " << static_cast<int>(mode);
  }
}

// ---------------------------------------------------------------------------
// Per-layer precision overrides
// ---------------------------------------------------------------------------

TEST(PositSession, PerLayerNameOverrideMixesPrecision) {
  Rng rng(139);
  auto net = nn::mlp(6, 12, 3, 1, rng);  // layers: fc0, relu0, head
  const Tensor x = Tensor::randn({4, 6}, rng);

  SessionConfig cfg;
  cfg.spec = {8, 1};
  cfg.mode = AccumMode::kQuire;
  cfg.by_name["head"] = {PositSpec{16, 1}, {}};
  PositSession session = PositSession::compile(*net, cfg);
  const Tensor& got = session.run(x);

  // Oracle: fc0 in posit(8,1), head in posit(16,1).
  auto* fc0 = dynamic_cast<nn::Linear*>(&net->child(0));
  auto* head = dynamic_cast<nn::Linear*>(&net->child(2));
  ASSERT_NE(fc0, nullptr);
  ASSERT_NE(head, nullptr);
  Tensor h = posit_linear_reference(x, fc0->weight().value, fc0->bias().value, {8, 1},
                                    AccumMode::kQuire);
  h.apply([](float v) { return v > 0.0f ? v : 0.0f; });
  const Tensor want =
      posit_linear_reference(h, head->weight().value, head->bias().value, {16, 1},
                             AccumMode::kQuire);
  EXPECT_TRUE(bit_identical(got, want));

  // And the mix is genuine: the uniform-8 session differs on the head.
  SessionConfig uniform;
  uniform.spec = {8, 1};
  PositSession u = PositSession::compile(*net, uniform);
  EXPECT_FALSE(bit_identical(u.run(x), got));
}

TEST(PositSession, PerClassModeOverride) {
  Rng rng(149);
  auto net = nn::mlp(16, 24, 3, 1, rng);
  const Tensor x = Tensor::randn({3, 16}, rng);
  SessionConfig cfg;
  cfg.spec = {8, 1};
  cfg.mode = AccumMode::kQuire;
  cfg.by_class[nn::LayerClass::kLinear] = {{}, AccumMode::kSerial};
  PositSession session = PositSession::compile(*net, cfg);
  const OracleFormats serial8{{8, 1}, {8, 1}, {8, 1}, AccumMode::kSerial};
  EXPECT_TRUE(bit_identical(session.run(x), oracle_forward(*net, x, serial8)));
}

TEST(PositSession, MaxPoolMatchesReferenceKernelOnNanAndInf) {
  // NaR decodes to NaN; the session's pooling must keep the reference
  // kernel's comparison semantics (NaN entries skipped, all-NaN window
  // yields -inf) so the session stays bit-identical to the pre-session
  // path on non-finite activations.
  nn::Sequential net("n");
  net.add(std::make_unique<nn::MaxPool2x2>("pool"));
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  x.at(0, 0, 0, 0) = nan;   // NaN leads its window
  x.at(0, 0, 0, 2) = inf;   // +inf wins its window
  x.at(0, 0, 2, 0) = nan;   // all-NaN window
  x.at(0, 0, 2, 1) = nan;
  x.at(0, 0, 3, 0) = nan;
  x.at(0, 0, 3, 1) = nan;
  PositSession session = PositSession::compile(net, SessionConfig{});
  const Tensor& got = session.run(x);
  std::vector<std::size_t> argmax;
  const Tensor want = tensor::maxpool2x2_forward(x, argmax);
  EXPECT_TRUE(bit_identical(got, want));
  EXPECT_EQ(got.at(0, 0, 1, 0), -inf) << "all-NaN window keeps the -inf seed";
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

TEST(PositSession, UnknownModuleTypeThrowsAtCompile) {
  class Opaque final : public nn::Module {
   public:
    Opaque() : Module("opaque") {}
    Tensor forward(const Tensor& x, bool) override { return x; }
    Tensor backward(const Tensor& g) override { return g; }
  };
  nn::Sequential net("n");
  net.add(std::make_unique<Opaque>());
  EXPECT_THROW(PositSession::compile(net, SessionConfig{}), std::invalid_argument);
}

TEST(PositSession, WrongInputRankThrowsAtRun) {
  Rng rng(151);
  auto net = nn::mlp(4, 6, 2, 1, rng);
  PositSession session = PositSession::compile(*net, SessionConfig{});
  EXPECT_THROW(session.run(Tensor({2, 3, 4, 4})), std::invalid_argument);
  EXPECT_THROW(session.run(Tensor({2, 5})), std::invalid_argument);
}

TEST(PositSession, EmptyGraphThrowsAtCompile) {
  // The old behavior returned a reference aliasing the caller's own input;
  // GraphBuilder now refuses zero-step plans for every backend.
  nn::Sequential empty("empty");
  EXPECT_THROW(PositSession::compile(empty, SessionConfig{}), std::invalid_argument);
}

}  // namespace
}  // namespace pdnn::quant
