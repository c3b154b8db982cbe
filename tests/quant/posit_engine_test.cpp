// posit_engine_test.cpp — the decode-once engine, run as one-layer
// PositSessions, against the retained scalar reference: exact bit-equality
// over the full spec grid and every accumulation mode, thread-count
// invariance, and the engine edge cases (empty batches, missing bias, 1x1
// windows under both conv lowerings, degenerate geometry). The rounded
// chains above n = 8 run four outputs per AVX2 vector (posit/simd.hpp) or,
// forced scalar, on RoundedAccum; the exact quire runs four outputs per
// vector in int64 limbs where its products fit them, or on Quire. Their
// edge cases run under both kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "nn/resnet.hpp"
#include "posit/simd.hpp"
#include "quant/posit_inference.hpp"
#include "quant/posit_session.hpp"
#include "support/bits.hpp"
#include "support/posit_layer.hpp"
#include "tensor/ops.hpp"

namespace pdnn::quant {
namespace {

using test_support::bit_identical;
using test_support::posit_layer;
using posit::PositSpec;
using tensor::Rng;
using tensor::Tensor;

const std::vector<PositSpec>& spec_grid() {
  // n in {8,16,32} x es in {0,1,2}: every engine dispatch (LUT at n=8,
  // unpacked arithmetic elsewhere) and regime-width regime the paper uses.
  static const std::vector<PositSpec> grid = {
      {8, 0}, {8, 1}, {8, 2}, {16, 0}, {16, 1}, {16, 2}, {32, 0}, {32, 1}, {32, 2},
  };
  return grid;
}

const std::vector<AccumMode>& mode_grid() {
  static const std::vector<AccumMode> modes = {AccumMode::kQuire, AccumMode::kSerial,
                                               AccumMode::kFma};
  return modes;
}

/// Runs fn(scalar) with the posit SIMD kernels enabled (when the host has
/// them) and forced to the scalar fallback.
template <typename Fn>
void for_each_kernel(Fn&& fn) {
  for (const bool scalar : {false, true}) {
    if (!scalar && !posit::simd::available()) continue;
    posit::simd::force_disable(scalar);
    fn(scalar);
  }
  posit::simd::force_disable(false);
}

TEST(PositEngine, LinearBitIdenticalToScalarReferenceAcrossSpecGridAndModes) {
  Rng rng(41);
  const Tensor x = Tensor::randn({5, 37}, rng);
  const Tensor w = Tensor::randn({9, 37}, rng, 0.4f);
  const Tensor bias = Tensor::randn({9}, rng, 0.2f);
  for (const PositSpec& spec : spec_grid()) {
    for (const AccumMode mode : mode_grid()) {
      const Tensor ref = posit_linear_reference(x, w, bias, spec, mode);
      for_each_kernel([&](bool scalar) {
        EXPECT_TRUE(bit_identical(posit_layer(w, bias, spec, mode).run(x), ref))
            << spec.to_string() << " mode " << static_cast<int>(mode)
            << (scalar ? " scalar" : " avx2");
      });
    }
  }
}

TEST(PositEngine, LinearWithoutBiasMatchesReference) {
  Rng rng(43);
  const Tensor x = Tensor::randn({3, 65}, rng);
  const Tensor w = Tensor::randn({4, 65}, rng);
  const Tensor none;
  for (const PositSpec& spec : spec_grid()) {
    for (const AccumMode mode : mode_grid()) {
      EXPECT_TRUE(bit_identical(posit_layer(w, none, spec, mode).run(x),
                                posit_linear_reference(x, w, none, spec, mode)))
          << spec.to_string() << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(PositEngine, ConvBitIdenticalToScalarReferenceWithBiasAndRectKernel) {
  Rng rng(47);
  // Rectangular 3x2 window, stride 2, pad 1: exercises the kernel_w plumbing
  // end to end, with the per-channel bias and without one (with_bias=false:
  // no bias panel is bound and the GEMM adds none).
  tensor::Conv2dGeom g{3, 9, 8, 4, 3, 2, 1, 2};
  const Tensor x = Tensor::randn({2, 3, 9, 8}, rng);
  const Tensor w = Tensor::randn({4, 3, 3, 2}, rng, 0.3f);
  const Tensor bias = Tensor::randn({4}, rng, 0.2f);
  const Tensor none;
  for (const Tensor* b : {&bias, &none}) {
    for (const PositSpec& spec : spec_grid()) {
      for (const AccumMode mode : mode_grid()) {
        const Tensor ref = posit_conv2d_reference(x, w, *b, g, spec, mode);
        for_each_kernel([&](bool scalar) {
          EXPECT_TRUE(bit_identical(posit_layer(w, *b, spec, mode, g).run(x), ref))
              << spec.to_string() << " mode " << static_cast<int>(mode) << " bias "
              << b->numel() << (scalar ? " scalar" : " avx2");
        });
      }
    }
  }
}

TEST(PositEngine, ThreadedRunsBitIdenticalToSerial) {
#ifdef _OPENMP
  Rng rng(53);
  const Tensor x = Tensor::randn({37, 41}, rng);
  const Tensor w = Tensor::randn({13, 41}, rng);
  const Tensor bias = Tensor::randn({13}, rng);
  const int restore = omp_get_max_threads();
  for (const PositSpec& spec : {PositSpec{8, 1}, PositSpec{16, 1}, PositSpec{32, 2}}) {
    for (const AccumMode mode : mode_grid()) {
      const Tensor ref = posit_linear_reference(x, w, bias, spec, mode);
      for_each_kernel([&](bool scalar) {
        // Compiled with one thread, so the quire arenas grow when the team
        // does.
        omp_set_num_threads(1);
        test_support::PositLayer layer = posit_layer(w, bias, spec, mode);
        const Tensor serial = layer.run(x);
        EXPECT_TRUE(bit_identical(serial, ref)) << spec.to_string() << " mode "
                                                << static_cast<int>(mode);
        for (const int threads : {2, 4}) {
          omp_set_num_threads(threads);
          EXPECT_TRUE(bit_identical(layer.run(x), serial))
              << spec.to_string() << " mode " << static_cast<int>(mode) << " threads " << threads
              << (scalar ? " scalar" : " avx2");
        }
      });
    }
  }
  omp_set_num_threads(restore);
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

TEST(PositEngine, ForwardMatchesPerLayerReference) {
  // A compiled session must agree bit-for-bit with hand-chaining the
  // reference kernels on a Linear/ReLU stack.
  Rng rng(59);
  auto net = nn::mlp(6, 10, 3, 1, rng);
  const Tensor x = Tensor::randn({4, 6}, rng);
  const QuantConfig cfg = QuantConfig::imagenet16();
  const PositSpec spec = cfg.linear.forward;
  for (const AccumMode mode : mode_grid()) {
    Tensor ref = x;
    for (std::size_t i = 0; i < net->size(); ++i) {
      if (auto* fc = dynamic_cast<nn::Linear*>(&net->child(i))) {
        ref = posit_linear_reference(ref, fc->weight().value, fc->bias().value, spec, mode);
      } else {
        ref.apply([](float v) { return v > 0.0f ? v : 0.0f; });
      }
    }
    const Tensor got = PositSession::compile(*net, SessionConfig::from_quant(cfg, mode)).run(x);
    EXPECT_TRUE(bit_identical(got, ref)) << "mode " << static_cast<int>(mode);
  }
}

TEST(PositEngine, ForwardAppliesConvBiasAndRectangularKernel) {
  Rng rng(61);
  nn::Sequential net("n");
  auto conv = std::make_unique<nn::Conv2d>("c", 2, 3, /*kernel=*/3, /*stride=*/1, /*pad=*/1, rng,
                                           /*with_bias=*/true, /*kernel_w=*/2);
  nn::Conv2d* conv_ptr = conv.get();
  net.add(std::move(conv));
  conv_ptr->bias().value = Tensor::randn({3}, rng, 0.5f);  // ctor zero-inits the bias
  conv_ptr->bias().mark_updated();
  const Tensor x = Tensor::randn({2, 2, 6, 7}, rng);
  const QuantConfig cfg = QuantConfig::imagenet16();
  const tensor::Conv2dGeom g{2, 6, 7, 3, 3, 1, 1, 2};
  const Tensor ref = posit_conv2d_reference(x, conv_ptr->weight().value, conv_ptr->bias().value, g,
                                            cfg.conv.forward, AccumMode::kQuire);
  PositSession session =
      PositSession::compile(net, SessionConfig::from_quant(cfg, AccumMode::kQuire));
  const Tensor got = session.run(x);
  EXPECT_TRUE(bit_identical(got, ref));
  // The bias must actually land: zeroing it changes the output.
  conv_ptr->bias().value.fill(0.0f);
  conv_ptr->bias().mark_updated();
  EXPECT_FALSE(bit_identical(session.run(x), got));
}

TEST(PositEngine, ZeroBatchYieldsWellFormedEmptyOutputs) {
  Rng rng(67);
  const Tensor w = Tensor::randn({4, 8}, rng);
  const Tensor bias = Tensor::randn({4}, rng);
  const Tensor none;
  for (const AccumMode mode : mode_grid()) {
    const Tensor y = posit_layer(w, bias, PositSpec{16, 1}, mode).run(Tensor({0, 8}));
    EXPECT_EQ(y.shape(), (tensor::Shape{0, 4}));
    EXPECT_EQ(y.numel(), 0u);

    const tensor::Conv2dGeom g{3, 6, 6, 4, 3, 1, 1};
    const Tensor wc = Tensor::randn({4, 3, 3, 3}, rng);
    const Tensor yc = posit_layer(wc, none, PositSpec{8, 1}, mode, g).run(Tensor({0, 3, 6, 6}));
    EXPECT_EQ(yc.shape(), (tensor::Shape{0, 4, 6, 6}));
  }
  // Whole-network: an empty batch flows through every layer kind.
  auto net = nn::plain_cnn(4, 3, rng);
  const Tensor warm = Tensor::randn({2, 3, 8, 8}, rng);
  net->forward(warm, true);
  const auto cfg = SessionConfig::from_quant(QuantConfig::imagenet16(), AccumMode::kQuire);
  const Tensor y = PositSession::compile(*net, cfg).run(Tensor({0, 3, 8, 8}));
  EXPECT_EQ(y.shape(), (tensor::Shape{0, 3}));
}

/// Sets PDNN_PLAN_PASSES for one scope (PlanOptions::defaults() reads it at
/// every compile) and restores the caller's value, so a test can compile
/// both lowerings whatever the suite runs under.
class ScopedPlanPasses {
 public:
  explicit ScopedPlanPasses(const char* value) {
    if (const char* old = std::getenv(kVar)) saved_ = old;
    setenv(kVar, value, 1);
  }
  ~ScopedPlanPasses() {
    if (saved_) {
      setenv(kVar, saved_->c_str(), 1);
    } else {
      unsetenv(kVar);
    }
  }
  ScopedPlanPasses(const ScopedPlanPasses&) = delete;
  ScopedPlanPasses& operator=(const ScopedPlanPasses&) = delete;

 private:
  static constexpr const char* kVar = "PDNN_PLAN_PASSES";
  std::optional<std::string> saved_;
};

TEST(PositEngine, OneByOneConvMatchesReference) {
  Rng rng(71);
  const tensor::Conv2dGeom g{3, 5, 7, 4, /*kernel=*/1, /*stride=*/1, /*pad=*/0};
  const Tensor x = Tensor::randn({2, 3, 5, 7}, rng);
  const Tensor w = Tensor::randn({4, 3, 1, 1}, rng, 0.4f);
  const Tensor bias = Tensor::randn({4}, rng, 0.2f);
  for (const PositSpec& spec : {PositSpec{8, 1}, PositSpec{16, 1}}) {
    for (const AccumMode mode : mode_grid()) {
      const Tensor ref = posit_conv2d_reference(x, w, bias, g, spec, mode);
      // Passes on: the input slice is the patch matrix (im2col elided).
      // Passes off: the generic im2col lowering.
      for (const bool elide : {true, false}) {
        const ScopedPlanPasses passes(elide ? "1" : "0");
        test_support::PositLayer layer = posit_layer(w, bias, spec, mode, g);
        ASSERT_EQ(layer.session.plan().steps.front().elide_im2col, elide);
        EXPECT_TRUE(bit_identical(layer.run(x), ref))
            << spec.to_string() << " mode " << static_cast<int>(mode) << " elide " << elide;
      }
    }
  }
}

/// Formats for the conv sweeps: LUT-backed (8,1), lane-kernel (16,1), and
/// (32,2), which stays on RoundedAccum and Quire.
const std::vector<PositSpec>& conv_grid() {
  static const std::vector<PositSpec> grid = {{8, 1}, {16, 1}, {32, 2}};
  return grid;
}

TEST(PositEngine, ConvGeometrySweepMatchesReference) {
  // The patch gather against the reference's float im2col: strides 1-3,
  // pads 0-2 (up to windows wholly in the padding: all-zero patches),
  // square and rectangular windows and a 1x1 window (at stride 2 the plan
  // keeps its im2col, the session gathers either way) on a non-square
  // input, batches of one and three.
  Rng rng(101);
  const std::size_t in_c = 2, in_h = 7, in_w = 5, out_c = 3;
  for (const std::size_t batch : {1, 3}) {
    const Tensor x = Tensor::randn({batch, in_c, in_h, in_w}, rng);
    for (const auto& window : {std::pair<std::size_t, std::size_t>{3, 3}, {2, 3}, {3, 1}, {1, 1}}) {
      const std::size_t kh = window.first, kw = window.second;
      const Tensor w = Tensor::randn({out_c, in_c, kh, kw}, rng, 0.4f);
      const Tensor bias = Tensor::randn({out_c}, rng, 0.2f);
      for (const std::size_t stride : {1, 2, 3}) {
        for (const std::size_t pad : {0, 1, 2}) {
          const tensor::Conv2dGeom g{in_c, in_h, in_w, out_c, kh, stride, pad, kw};
          for (const PositSpec& spec : conv_grid()) {
            for (const AccumMode mode : mode_grid()) {
              const Tensor ref = posit_conv2d_reference(x, w, bias, g, spec, mode);
              for_each_kernel([&](bool scalar) {
                EXPECT_TRUE(bit_identical(posit_layer(w, bias, spec, mode, g).run(x), ref))
                    << spec.to_string() << " mode " << static_cast<int>(mode) << " batch "
                    << batch << " window " << kh << "x" << kw << " stride " << stride << " pad "
                    << pad << (scalar ? " scalar" : " avx2");
              });
            }
          }
        }
      }
    }
  }
}

TEST(PositEngine, NarInputReachesExactlyTheWindowsThatCoverIt) {
  // One NaN input element encodes as NaR; every output whose window covers
  // it, and no other, comes out NaR (NaN) — in every mode and kernel, with
  // the padding and the other image untouched.
  Rng rng(103);
  const tensor::Conv2dGeom g{2, 7, 6, 3, 3, 2, 1, 3};
  Tensor x = Tensor::randn({2, 2, 7, 6}, rng);
  const std::size_t ny = 3, nx = 2;
  x[((1 * 2 + 1) * 7 + ny) * 6 + nx] = std::numeric_limits<float>::quiet_NaN();
  const Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.4f);
  const Tensor bias = Tensor::randn({3}, rng, 0.2f);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const auto covers = [&](std::size_t o, std::size_t n) {
    const long lo = static_cast<long>(o * g.stride) - static_cast<long>(g.pad);
    return static_cast<long>(n) >= lo && static_cast<long>(n) < lo + 3;
  };
  for (const PositSpec& spec : conv_grid()) {
    for (const AccumMode mode : mode_grid()) {
      const Tensor ref = posit_conv2d_reference(x, w, bias, g, spec, mode);
      for_each_kernel([&](bool scalar) {
        const Tensor y = posit_layer(w, bias, spec, mode, g).run(x);
        const std::string ctx = spec.to_string() + " mode " +
                                std::to_string(static_cast<int>(mode)) +
                                (scalar ? " scalar" : " avx2");
        EXPECT_TRUE(bit_identical(y, ref)) << ctx;
        for (std::size_t n = 0; n < 2; ++n) {
          for (std::size_t o = 0; o < 3; ++o) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
              for (std::size_t ox = 0; ox < ow; ++ox) {
                const bool want = n == 1 && covers(oy, ny) && covers(ox, nx);
                EXPECT_EQ(std::isnan(y[((n * 3 + o) * oh + oy) * ow + ox]), want)
                    << ctx << " image " << n << " out (" << o << "," << oy << "," << ox << ")";
              }
            }
          }
        }
      });
    }
  }
}

TEST(PositEngine, DegenerateGeometryThrowsInsteadOfUnderflowing) {
  Rng rng(73);
  const Tensor x = Tensor::randn({1, 1, 2, 2}, rng);
  const Tensor w = Tensor::randn({1, 1, 5, 5}, rng);
  const Tensor none;
  // 5x5 window on an unpadded 2x2 input: out_h would underflow size_t. The
  // session learns H/W at run(), where the plan's shape inference validates.
  const tensor::Conv2dGeom window{1, 2, 2, 1, 5, 1, 0};
  test_support::PositLayer layer =
      posit_layer(w, none, PositSpec{8, 1}, AccumMode::kQuire, window);
  EXPECT_THROW(layer.run(x), std::invalid_argument);
  EXPECT_THROW(posit_conv2d_reference(x, w, none, window, PositSpec{8, 1}, AccumMode::kQuire),
               std::invalid_argument);
  const tensor::Conv2dGeom stride0{1, 2, 2, 1, 1, 0, 0};
  EXPECT_THROW(stride0.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Rounded chains and the exact quire: the AVX2 lane kernels and their
// scalar fallbacks
// ---------------------------------------------------------------------------

/// Formats around the lane kernel's domain (n - 2 - es <= 26): LUT-backed
/// n = 8, lane formats up to its edge — (28,0) and (29,1) carry 26-bit
/// significands — and (32,2), which stays on RoundedAccum.
const std::vector<PositSpec>& chain_grid() {
  static const std::vector<PositSpec> grid = {
      {8, 1}, {12, 1}, {16, 0}, {16, 1}, {16, 2}, {24, 2}, {28, 0}, {29, 1}, {29, 3}, {32, 2},
  };
  return grid;
}

/// (spec, mode) pairs around both lane kernels' domains: chain_grid() in
/// every mode — for kQuire that spans the quire kernel's (8,1), (16,0) and
/// (16,1), (12,1)'s three limbs, and (16,2) (eight limbs) and the wider
/// formats, which stay on Quire — plus its other formats, (8,0) and (8,2).
std::vector<std::pair<PositSpec, AccumMode>> lane_cases() {
  std::vector<std::pair<PositSpec, AccumMode>> cases;
  for (const PositSpec& spec : chain_grid()) {
    for (const AccumMode mode : mode_grid()) cases.emplace_back(spec, mode);
  }
  for (const PositSpec spec : {PositSpec{8, 0}, PositSpec{8, 2}}) {
    cases.emplace_back(spec, AccumMode::kQuire);
  }
  return cases;
}

/// Every lane_cases() pair, on both kernels, against posit_linear_reference.
void expect_lanes_match_reference(const Tensor& x, const Tensor& w, const Tensor& bias,
                                  const char* what) {
  for (const auto& [spec, mode] : lane_cases()) {
    const Tensor ref = posit_linear_reference(x, w, bias, spec, mode);
    for_each_kernel([&](bool scalar) {
      EXPECT_TRUE(bit_identical(posit_layer(w, bias, spec, mode).run(x), ref))
          << what << " " << spec.to_string() << " mode " << static_cast<int>(mode)
          << (scalar ? " scalar" : " avx2");
    });
  }
}

TEST(PositEngine, LaneKernelsMatchReferenceOnRaggedLaneTiles) {
  // 1, 3 and 5 rows leave padded lanes in the last four-row tile, 17 rows a
  // lone row after two tile pairs; k = 1 is a chain of one term.
  Rng rng(79);
  for (const std::size_t rows : {1, 3, 5, 17}) {
    for (const std::size_t k : {1, 29}) {
      const Tensor x = Tensor::randn({rows, k}, rng);
      const Tensor w = Tensor::randn({6, k}, rng, 0.4f);
      const Tensor bias = Tensor::randn({6}, rng, 0.2f);
      const std::string what = "rows " + std::to_string(rows) + " k " + std::to_string(k);
      expect_lanes_match_reference(x, w, bias, what.c_str());
      expect_lanes_match_reference(x, w, Tensor(), (what + " no bias").c_str());
    }
  }
}

TEST(PositEngine, LaneKernelsMatchReferenceOnZeroHeavyReluPanels) {
  // ReLU'd activations with most of the rest zeroed too, an all-zero row,
  // and a weight row of zeros: long runs of zero terms, sums that stay
  // exactly zero, and zero outputs that must come out +0.0.
  Rng rng(83);
  Tensor x = Tensor::randn({11, 48}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (x[i] < 0.0f || i % 3 != 0) x[i] = 0.0f;
  }
  for (std::size_t i = 0; i < 48; ++i) x.at(6, i) = 0.0f;
  Tensor w = Tensor::randn({5, 48}, rng, 0.4f);
  for (std::size_t i = 0; i < 48; ++i) w.at(2, i) = 0.0f;
  const Tensor bias = Tensor::randn({5}, rng, 0.2f);
  expect_lanes_match_reference(x, w, bias, "zero-heavy");
  expect_lanes_match_reference(x, w, Tensor(), "zero-heavy no bias");
}

TEST(PositEngine, NarActivationReachesOnlyItsOwnRow) {
  Rng rng(89);
  Tensor x = Tensor::randn({9, 40}, rng);
  x.at(4, 17) = std::numeric_limits<float>::quiet_NaN();  // encodes as NaR
  const Tensor w = Tensor::randn({7, 40}, rng, 0.4f);
  const Tensor bias = Tensor::randn({7}, rng, 0.2f);
  for (const auto& [spec, mode] : lane_cases()) {
    const Tensor ref = posit_linear_reference(x, w, bias, spec, mode);
    for_each_kernel([&](bool scalar) {
      const Tensor y = posit_layer(w, bias, spec, mode).run(x);
      const std::string ctx = spec.to_string() + " mode " +
                              std::to_string(static_cast<int>(mode)) +
                              (scalar ? " scalar" : " avx2");
      EXPECT_TRUE(bit_identical(y, ref)) << ctx;
      for (std::size_t r = 0; r < 9; ++r) {
        for (std::size_t o = 0; o < 7; ++o) {
          EXPECT_EQ(std::isnan(y.at(r, o)), r == 4) << ctx << " row " << r << " col " << o;
        }
      }
    });
  }
}

TEST(PositEngine, LaneKernelsMatchReferenceOnMaxposHeavyPanels) {
  // Operands at and near maxpos (encodes saturate) mixed with ordinary
  // ones: products far beyond maxpos, sums that saturate and climb back,
  // and lanes in the saturation and truncated-exponent bands next to
  // lanes that are not.
  Rng rng(97);
  Tensor x = Tensor::randn({10, 33}, rng);
  Tensor w = Tensor::randn({6, 33}, rng, 0.5f);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float sign = x[i] < 0.0f ? -1.0f : 1.0f;
    if (i % 2 == 0) x[i] = sign * std::ldexp(1.0f, 20 + static_cast<int>(i % 90));
  }
  for (std::size_t i = 0; i < w.numel(); i += 3) {
    w[i] = (w[i] < 0.0f ? -1.0f : 1.0f) * std::ldexp(1.0f, 10 + static_cast<int>(i % 40));
  }
  const Tensor bias = Tensor::randn({6}, rng, 1e6f);
  expect_lanes_match_reference(x, w, bias, "maxpos-heavy");
}

}  // namespace
}  // namespace pdnn::quant
