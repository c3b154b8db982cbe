// micro_posit_ops — google-benchmark microbenchmarks of the software posit
// kernels used throughout training (supporting data, not a paper table).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "posit/accum.hpp"
#include "posit/arith.hpp"
#include "posit/quire.hpp"
#include "posit/simd.hpp"
#include "posit/unpacked.hpp"
#include "quant/engine_gemm.hpp"
#include "quant/posit_transform.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace pdnn;

std::vector<std::uint32_t> random_codes(const posit::PositSpec& spec, std::size_t count) {
  tensor::Rng rng(99);
  std::vector<std::uint32_t> codes(count);
  for (auto& c : codes) {
    do {
      c = static_cast<std::uint32_t>(rng.next_u64()) & spec.mask();
    } while (c == spec.nar_code());
  }
  return codes;
}

void BM_PositAdd(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  const auto codes = random_codes(spec, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(posit::add(codes[i & 1023], codes[(i + 1) & 1023], spec));
    ++i;
  }
}
BENCHMARK(BM_PositAdd)->Args({8, 1})->Args({16, 1})->Args({32, 3});

void BM_PositMul(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  const auto codes = random_codes(spec, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(posit::mul(codes[i & 1023], codes[(i + 1) & 1023], spec));
    ++i;
  }
}
BENCHMARK(BM_PositMul)->Args({8, 1})->Args({16, 1})->Args({32, 3});

void BM_QuireDotProduct(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  const auto codes = random_codes(spec, 1024);
  for (auto _ : state) {
    posit::Quire q(spec);
    for (std::size_t i = 0; i < 256; ++i) q.add_product(codes[i], codes[i + 256]);
    benchmark::DoNotOptimize(q.to_posit());
  }
}
BENCHMARK(BM_QuireDotProduct)->Args({8, 1})->Args({16, 1});

void BM_TransformAlgorithm1(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  tensor::Rng rng(3);
  tensor::Tensor t = tensor::Tensor::randn({4096}, rng, 0.05f);
  for (auto _ : state) {
    tensor::Tensor copy = t;
    quant::transform_span(copy.data(), copy.numel(), spec, 0, posit::RoundMode::kTowardZero,
                          nullptr);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TransformAlgorithm1)->Args({8, 1})->Args({8, 2})->Args({16, 1})->Args({16, 2});

void BM_TransformScaled(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  tensor::Rng rng(3);
  tensor::Tensor t = tensor::Tensor::randn({4096}, rng, 0.05f);
  for (auto _ : state) {
    tensor::Tensor copy = t;
    quant::transform_span(copy.data(), copy.numel(), spec, -4, posit::RoundMode::kTowardZero,
                          nullptr);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TransformScaled)->Args({8, 1})->Args({16, 2});

/// Span decode through the dispatcher: AVX2 batch-of-8 when available
/// (/simd=1), forced scalar otherwise (/simd=0) — same codes, same output,
/// the bit-identity pair bench_posit asserts on.
void BM_DecodeSpan(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  const bool want_simd = state.range(2) != 0;
  if (want_simd && !posit::simd::available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  posit::simd::force_disable(!want_simd);
  const auto codes = random_codes(spec, 4096);
  std::vector<posit::Unpacked> ops(codes.size());
  for (auto _ : state) {
    posit::decode_unpacked(codes.data(), codes.size(), spec, ops.data());
    benchmark::DoNotOptimize(ops.data());
  }
  posit::simd::force_disable(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size()));
}
BENCHMARK(BM_DecodeSpan)
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({16, 1, 0})
    ->Args({16, 1, 1})
    ->Args({32, 2, 0})
    ->Args({32, 2, 1});

/// Quire::accumulate_dot over pre-decoded lanes: the vectorized carry-save
/// limb deposit (/simd=1) vs the scalar chunk loop (/simd=0).
void BM_QuireAccumulateDot(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  const bool want_simd = state.range(2) != 0;
  if (want_simd && !posit::simd::available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  posit::simd::force_disable(!want_simd);
  const auto a_codes = random_codes(spec, 1024);
  const auto b_codes = random_codes(spec, 1024);
  std::vector<posit::Unpacked> a(1024), b(1024);
  posit::decode_unpacked(a_codes.data(), 1024, spec, a.data());
  posit::decode_unpacked(b_codes.data(), 1024, spec, b.data());
  posit::Quire q(spec);
  for (auto _ : state) {
    q.clear();
    q.accumulate_dot(a.data(), b.data(), 1024);
    benchmark::DoNotOptimize(q.to_posit());
  }
  posit::simd::force_disable(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_QuireAccumulateDot)
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({16, 1, 0})
    ->Args({16, 1, 1})
    ->Args({32, 2, 0})
    ->Args({32, 2, 1});

/// `tiles` x 4 outputs' exact quire dot products of length k — the
/// engine's kQuire inner loop. /window:1: ReLU'd Gaussian activations
/// against one Gaussian weight row, narrow spans that sum in the kernel's
/// 64-bit window; /window:0: operands of random sign spread log-uniformly
/// over the whole format, so (16,1) tiles (and (8,1) ones past k = 16) fail
/// the window rule and run on the limbs. /simd=0: Quire::accumulate_dot +
/// to_posit + to_double per output, forced onto the scalar deposit (the
/// fallback PDNN_NO_AVX2 runs). /simd=1: the AVX2 lane kernel, four outputs
/// per vector, rounded in registers to exact doubles, fed the tile spans
/// posit::simd::quire_span gives (what the engine's gather writes). Same
/// values out; items/s is MAC/s. k = 27, 72, 144 and 576 are ResNet-8 patch
/// lengths; k = 1 shows the per-output epilogue alone.
void BM_QuireLanes(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto tiles = static_cast<std::size_t>(state.range(3));
  const bool lanes = state.range(4) != 0;
  const bool narrow = state.range(5) != 0;
  if (lanes && !posit::simd::available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  posit::simd::force_disable(!lanes);
  constexpr std::size_t kLanes = posit::simd::kLanes;
  const std::size_t outs = tiles * kLanes;
  tensor::Rng rng(23);
  const auto wide = [&] {
    const double e = spec.min_scale() + rng.uniform() * (spec.max_scale() - spec.min_scale());
    return (rng.uniform() < 0.5 ? -1.0 : 1.0) * std::exp2(e);
  };
  std::vector<posit::Unpacked> a(outs * k), b(k);
  for (auto& u : a) {
    const double x = narrow ? std::max(rng.normal(), 0.0) : wide();
    u = posit::decode_unpacked(posit::from_double(x, spec), spec);
  }
  for (auto& u : b) {
    const double x = narrow ? 0.3 * rng.normal() : wide();
    u = posit::decode_unpacked(posit::from_double(x, spec), spec);
  }
  std::vector<std::int64_t> tile(outs * k), w(k);
  for (std::size_t r = 0; r < outs; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      tile[(r / kLanes * k + i) * kLanes + r % kLanes] =
          posit::simd::quire_lane_operand(a[r * k + i], spec);
    }
  }
  std::vector<posit::simd::QuireSpan> spans(tiles);
  for (std::size_t t = 0; t < tiles; ++t) {
    spans[t] = posit::simd::quire_span(tile.data() + t * k * kLanes, k * kLanes);
  }
  posit::simd::fill_quire_row(b.data(), k, spec, w.data());
  posit::Quire q(spec);
  std::vector<double> values(outs);
  for (auto _ : state) {
    if (lanes) {
      posit::simd::quire_lanes_avx2(tile.data(), tiles, spans.data(), w.data(), k, spec, nullptr,
                                    values.data());
    } else {
      for (std::size_t r = 0; r < outs; ++r) {
        q.clear();
        q.accumulate_dot(a.data() + r * k, b.data(), k);
        values[r] = posit::to_double(q.to_posit(), spec);
      }
    }
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  posit::simd::force_disable(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(outs * k));
}

void quire_lane_args(benchmark::internal::Benchmark* bm) {
  bm->ArgNames({"n", "es", "k", "tiles", "simd", "window"});
  for (const int k : {1, 27, 72, 144, 576}) {
    for (const int n : {8, 16}) {
      for (const int tiles : {1, 16}) {
        for (const int window : {1, 0}) {
          bm->Args({n, 1, k, tiles, 0, window});
          bm->Args({n, 1, k, tiles, 1, window});
        }
      }
    }
  }
}
BENCHMARK(BM_QuireLanes)->Apply(quire_lane_args);

/// `tiles` x 4 outputs' rounded dot products of length k over Gaussian
/// operands — activation rows against one weight row, the engine's n > 8
/// kFma / kSerial inner loop. /accum=0: the coded per-term chain (the sum
/// re-decoded from its code, added in 128 bits and re-packed every term).
/// /accum=1/simd=0: posit::RoundedAccum, one output at a time (the sum
/// stays unpacked, packed once). /accum=1/simd=1: the AVX2 lane kernel,
/// four outputs per vector as exact doubles, up to four tiles' chains
/// interleaved (tiles=16 shows the interleave). Same values out; items/s is
/// MAC/s. k = 27, 144 and 576 are ResNet-8 patch lengths.
template <bool kFmaChain>
void rounded_chain(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto tiles = static_cast<std::size_t>(state.range(3));
  const bool accum = state.range(4) != 0;
  const bool lanes = state.range(5) != 0;
  if (lanes && !posit::simd::available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  constexpr std::size_t kLanes = posit::simd::kLanes;
  const std::size_t outs = tiles * kLanes;
  tensor::Rng rng(17);
  std::vector<posit::Unpacked> a(outs * k), b(k);
  for (auto& u : a) u = posit::decode_unpacked(posit::from_double(rng.normal(), spec), spec);
  for (auto& u : b) u = posit::decode_unpacked(posit::from_double(0.3 * rng.normal(), spec), spec);
  std::vector<double> tile(outs * k), w(k), sums(outs);
  for (std::size_t r = 0; r < outs; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      tile[(r / kLanes * k + i) * kLanes + r % kLanes] = posit::simd::lane_value(a[r * k + i]);
    }
  }
  posit::simd::fill_lane_row(b.data(), k, w.data());
  posit::RoundedAccum racc(spec);
  for (auto _ : state) {
    if (lanes) {
      posit::simd::rounded_chains_avx2(tile.data(), tiles, w.data(), k, spec, kFmaChain, nullptr,
                                       sums.data());
      benchmark::DoNotOptimize(sums.data());
      benchmark::ClobberMemory();
      continue;
    }
    for (std::size_t r = 0; r < outs; ++r) {
      const posit::Unpacked* row = a.data() + r * k;
      std::uint32_t acc = 0;
      if (accum) {
        racc.clear();
        if (kFmaChain) {
          racc.fma_dot(row, b.data(), k);
        } else {
          racc.serial_dot(row, b.data(), k);
        }
        acc = racc.to_posit();
      } else {
        for (std::size_t i = 0; i < k; ++i) {
          acc = kFmaChain ? posit::fma(row[i], b[i], acc, spec)
                          : posit::add(acc, posit::mul(row[i], b[i], spec), spec);
        }
      }
      benchmark::DoNotOptimize(acc);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(outs * k));
}

void chain_args(benchmark::internal::Benchmark* bm) {
  bm->ArgNames({"n", "es", "k", "tiles", "accum", "simd"});
  for (const int k : {1, 27, 144, 576}) {
    for (const int tiles : {1, 16}) {
      bm->Args({16, 1, k, tiles, 0, 0});
      bm->Args({32, 2, k, tiles, 0, 0});
      bm->Args({16, 1, k, tiles, 1, 0});
      bm->Args({32, 2, k, tiles, 1, 0});
      bm->Args({16, 1, k, tiles, 1, 1});  // (32,2) has 28-bit significands: no lane kernel
    }
  }
}

void BM_FmaChain(benchmark::State& state) { rounded_chain<true>(state); }
BENCHMARK(BM_FmaChain)->Apply(chain_args);

void BM_SerialChain(benchmark::State& state) { rounded_chain<false>(state); }
BENCHMARK(BM_SerialChain)->Apply(chain_args);

void BM_FromDoubleNearest(benchmark::State& state) {
  const posit::PositSpec spec{16, 1};
  tensor::Rng rng(5);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.normal();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(posit::from_double(xs[i & 1023], spec));
    ++i;
  }
}
BENCHMARK(BM_FromDoubleNearest);

/// The engine's activation encode: posit::from_double over a ReLU'd float
/// span — half the values exactly zero, the rest N(0,1) magnitudes — one
/// code per element, as PositSession encodes each step's input image.
void BM_EncodeReluSpan(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  tensor::Rng rng(7);
  std::vector<float> xs(4096);
  for (auto& x : xs) x = std::max(0.0f, static_cast<float>(rng.normal()));
  std::vector<std::uint32_t> codes(xs.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < xs.size(); ++i) codes[i] = posit::from_double(xs[i], spec);
    benchmark::DoNotOptimize(codes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_EncodeReluSpan)->Args({8, 1})->Args({16, 1})->Args({32, 2});

/// PositSession's element-wise steps over 16,384 N(0,1) floats, the size of
/// perfbench's ResNet-8 bn1 step: /simd=0 the coded per-element step (the session's
/// fallback, which at n = 8 reads the fma / add tables instead), /simd=1 the
/// AVX2 lane kernel. Same floats out.
/// BatchNorm: y = float(fma(sub(from_double(x), mean), scale, shift)) with
/// one channel's constants; ResidualJoin: y = max(float(add(from_double(a),
/// from_double(b))), 0).
constexpr std::size_t kSpan = 16384;

template <bool kJoin>
void elementwise_span(benchmark::State& state) {
  const posit::PositSpec spec{static_cast<int>(state.range(0)), static_cast<int>(state.range(1))};
  const bool lanes = state.range(2) != 0;
  if (lanes && !posit::simd::available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  tensor::Rng rng(29);
  std::vector<float> a(kSpan), b(kSpan), y(kSpan);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  const std::uint32_t scale = posit::from_double(1.3, spec);
  const std::uint32_t mean = posit::from_double(0.2, spec);
  const std::uint32_t shift = posit::from_double(-0.1, spec);
  for (auto _ : state) {
    if (lanes && kJoin) {
      posit::simd::residual_join_lanes_avx2(a.data(), b.data(), kSpan, spec, y.data());
    } else if (lanes) {
      posit::simd::batchnorm_lanes_avx2(a.data(), kSpan, spec, posit::to_double(scale, spec),
                                        posit::to_double(mean, spec),
                                        posit::to_double(shift, spec), y.data());
    } else {
      for (std::size_t i = 0; i < kSpan; ++i) {
        const std::uint32_t x = posit::from_double(a[i], spec);
        const double v =
            kJoin ? posit::to_double(posit::add(x, posit::from_double(b[i], spec), spec), spec)
                  : posit::to_double(posit::fma(posit::sub(x, mean, spec), scale, shift, spec),
                                     spec);
        const auto f = static_cast<float>(v);
        y[i] = kJoin && !(f > 0.0f) ? 0.0f : f;
      }
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSpan));
}

void elementwise_args(benchmark::internal::Benchmark* bm) {
  bm->ArgNames({"n", "es", "simd"});
  for (const int n : {8, 16}) {
    bm->Args({n, 1, 0});
    bm->Args({n, 1, 1});
  }
}

void BM_BatchNormSpan(benchmark::State& state) { elementwise_span<false>(state); }
BENCHMARK(BM_BatchNormSpan)->Apply(elementwise_args);

void BM_ResidualJoinSpan(benchmark::State& state) { elementwise_span<true>(state); }
BENCHMARK(BM_ResidualJoinSpan)->Apply(elementwise_args);

/// An activation plane of perfbench's ResNet-8 (base 8, 16x16 images,
/// batch 8) as its conv step sees it: geometry, and ReLU'd N(0,1) floats.
struct Plane {
  tensor::Conv2dGeom geom;
  std::vector<float> x;
};

constexpr std::size_t kPlaneBatch = 8;

/// The distinct conv inputs of that ResNet-8, by gather shape: conv1,
/// stage1, stage2 (3x3 stride 2, 3x3, 1x1 stride-2 down), stage3 (same).
const tensor::Conv2dGeom kResNet8Convs[] = {
    {3, 16, 16, 8, 3, 1, 1},  {8, 16, 16, 8, 3, 1, 1},  {8, 16, 16, 16, 3, 2, 1},
    {16, 8, 8, 16, 3, 1, 1},  {8, 16, 16, 16, 1, 2, 0}, {16, 8, 8, 32, 3, 2, 1},
    {32, 4, 4, 32, 3, 1, 1},  {16, 8, 8, 32, 1, 2, 0},
};

Plane resnet8_plane(std::size_t shape) {
  Plane p{kResNet8Convs[shape], {}};
  tensor::Rng rng(31);
  p.x.resize(kPlaneBatch * p.geom.in_c * p.geom.in_h * p.geom.in_w);
  for (auto& v : p.x) v = std::max(0.0f, static_cast<float>(rng.normal()));
  return p;
}

/// The session's operand form for (mode, simd) at (16,1): kQuire reads
/// int64 quire lanes (simd:1) or Unpacked (simd:0), kFma lane doubles or
/// Unpacked; (8,1) kFma reads codes (its fma table) either way.
struct FormCase {
  posit::PositSpec spec;
  quant::AccumMode mode;
};

const FormCase kFormCases[] = {
    {{16, 1}, quant::AccumMode::kQuire},
    {{16, 1}, quant::AccumMode::kFma},
    {{8, 1}, quant::AccumMode::kFma},
};

/// quant::detail::encode_activation, one conv step's whole-batch input
/// plane per iteration on the calling thread: /simd:1 the AVX2 lane encode
/// (posit::simd::encode_lanes_avx2 / encode_quire_lanes_avx2), /simd:0 the
/// coded encode (from_double, then decode_unpacked). items/s counts input
/// elements.
void BM_EncodeActivation(benchmark::State& state) {
  const FormCase& fc = kFormCases[state.range(0)];
  const bool lanes = state.range(1) != 0;
  if (lanes && !posit::simd::available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const Plane p = resnet8_plane(static_cast<std::size_t>(state.range(2)));
  const quant::detail::EngineLuts luts = quant::detail::resolve_luts(fc.spec, fc.mode);
  quant::detail::OperandBuffers plane;
  posit::simd::force_disable(!lanes);
  for (auto _ : state) {
    const auto a = quant::detail::encode_activation(p.x.data(), kPlaneBatch, p.geom, fc.spec,
                                                    fc.mode, luts, plane);
    benchmark::DoNotOptimize(a.plane);
    benchmark::ClobberMemory();
  }
  posit::simd::force_disable(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.x.size()));
}
BENCHMARK(BM_EncodeActivation)
    ->ArgNames({"form", "simd", "shape"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {0, 1, 3, 6}});

/// quant::detail::gather_panel over a whole conv step's patch panel (every
/// row of the batch at once), per distinct ResNet-8 gather shape: /simd:1
/// the kQuireLanes tiles of (16,1) kQuire with each tile's span, /simd:0
/// its Unpacked rows; both move 8-byte operands. ns/term is per gathered
/// patch term.
void BM_GatherPanel(benchmark::State& state) {
  const bool lanes = state.range(0) != 0;
  if (lanes && !posit::simd::available()) {
    state.SkipWithError("AVX2 unavailable");
    return;
  }
  const FormCase& fc = kFormCases[0];
  const Plane p = resnet8_plane(static_cast<std::size_t>(state.range(1)));
  quant::detail::OperandBuffers plane, block;
  posit::simd::force_disable(!lanes);
  const auto a = quant::detail::encode_activation(p.x.data(), kPlaneBatch, p.geom, fc.spec,
                                                  fc.mode, {}, plane);
  posit::simd::force_disable(false);
  const std::size_t padded = (a.rows + posit::simd::kLanes - 1) / posit::simd::kLanes *
                             posit::simd::kLanes;
  block.ops.resize(padded * a.k);
  block.quire.resize(padded * a.k);
  block.spans.resize(padded / posit::simd::kLanes);
  for (auto _ : state) {
    quant::detail::gather_panel(a, 0, a.rows, block, nullptr);
    benchmark::DoNotOptimize(block.quire.data());
    benchmark::DoNotOptimize(block.ops.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns/term"] = benchmark::Counter(
      static_cast<double>(a.rows * a.k) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GatherPanel)
    ->ArgNames({"simd", "shape"})
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4, 5, 6, 7}});

}  // namespace

BENCHMARK_MAIN();
