// elementwise_test.cpp — the AVX2 element-wise lane kernels against the
// coded steps they replace, float bit for float bit.
//
// Oracle: PositSession's coded per-element steps,
//   BN    y = float(to_double(fma(sub(from_double(x), mean), scale, shift)))
//   join  y = max(float(to_double(add(from_double(a), from_double(b)))), 0)
// Each kernel (posit::simd::batchnorm_lanes_avx2, residual_join_lanes_avx2)
// is driven as the session drives it: the kernel, then the coded step on
// the group of four it stopped at, then the kernel again. Every spec with
// n in 3..32 and es in 0..3 that rounded_lanes_supported admits is covered,
// over inputs built to reach each case of the three roundings: NaN and
// +-Inf in each lane position, saturation to +-maxpos, rounding up to
// +-minpos, zero inputs and results (their +0.0 bits), exact ties of each
// rounding, ties the double sum only reaches by rounding (the TwoSum error
// decides them), and spans of 0..7 elements. Each case asserts that it was
// reached.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "posit/arith.hpp"
#include "posit/codec.hpp"
#include "posit/simd.hpp"

namespace pdnn::posit {
namespace {

using Floats = std::vector<float>;

std::vector<PositSpec> lane_specs() {
  std::vector<PositSpec> specs;
  for (int n = 3; n <= 32; ++n) {
    for (int es = 0; es <= 3; ++es) {
      if (simd::rounded_lanes_supported({n, es})) specs.push_back({n, es});
    }
  }
  return specs;
}

std::uint32_t bits_of(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

bool finite(float v) { return std::isfinite(v); }

/// One channel's BN constants as codes.
struct Bn {
  std::uint32_t scale, mean, shift;
};

float coded_bn(float x, const Bn& c, const PositSpec& s) {
  const std::uint32_t centered = sub(from_double(x, s), c.mean, s);
  return static_cast<float>(to_double(fma(centered, c.scale, c.shift, s), s));
}

float coded_join(float a, float b, const PositSpec& s) {
  const float v = static_cast<float>(to_double(add(from_double(a, s), from_double(b, s), s), s));
  return v > 0.0f ? v : 0.0f;
}

/// The cases each rounding step can meet. Steps: BN encode, sub, fma; join
/// encode (both operands), add.
enum Step { kEncode, kCombine, kFma, kSteps };

struct Reached {
  int nonfinite[simd::kLanes] = {};  ///< NaN/Inf met by the kernel, per lane
  int saturated[kSteps] = {};        ///< exact value beyond maxpos
  int to_minpos[kSteps] = {};        ///< exact non-zero value below minpos
  int tie[kSteps] = {};              ///< exact value halfway between two posits
  int tie_by_error[kSteps] = {};     ///< double sum halfway, exact value not
  int zero_in = 0;                   ///< +-0 inputs
  int zero_out = 0;                  ///< +0.0 results
  int clamped = 0;                   ///< negative joins clamped to +0
  int counts[8] = {};                ///< spans of 0..7 elements
};

/// The TwoSum pair of s + p: v = fl(s + p), v + e == s + p exactly.
std::pair<double, double> two_sum(double s, double p) {
  const double v = s + p;
  const double pv = v - s;
  return {v, (s - (v - pv)) + (p - pv)};
}

/// Tallies what rounding the exact value v + e to `s` meets.
void classify(double v, double e, const PositSpec& s, Step step, Reached& r) {
  const double av = std::fabs(v);
  if (av == 0.0) return;
  // e != 0 moves the exact value off v: outward when it has v's sign.
  const bool outward = e != 0.0 && std::signbit(e) == std::signbit(v);
  const bool inward = e != 0.0 && !outward;
  const double maxpos = to_double(s.maxpos_code(), s), minpos = to_double(s.minpos_code(), s);
  if (av > maxpos || (av == maxpos && outward)) {
    ++r.saturated[step];
  } else if (av < minpos || (av == minpos && inward)) {
    ++r.to_minpos[step];
  } else {
    const std::uint32_t lo_code = from_double(av, s, RoundMode::kTowardZero);
    const double lo = to_double(lo_code, s);
    if (lo == av || lo_code == s.maxpos_code()) return;
    const double hi = to_double(lo_code + 1u, s);
    // Value-nearest rounding (hi <= 2 lo: both differences are exact).
    if (hi <= 2.0 * lo && av - lo == hi - av) ++(e == 0.0 ? r.tie : r.tie_by_error)[step];
  }
}

void classify_bn(float x, const Bn& c, const PositSpec& s, Reached& r) {
  if (!finite(x)) return;
  if (x == 0.0f) ++r.zero_in;
  classify(x, 0.0, s, kEncode, r);
  const std::uint32_t xv = from_double(x, s);
  const auto [cv, ce] = two_sum(to_double(xv, s), -to_double(c.mean, s));
  classify(cv, ce, s, kCombine, r);
  const double product = to_double(sub(xv, c.mean, s), s) * to_double(c.scale, s);  // exact
  const auto [fv, fe] = two_sum(to_double(c.shift, s), product);
  classify(fv, fe, s, kFma, r);
}

void classify_join(float a, float b, const PositSpec& s, Reached& r) {
  if (!finite(a) || !finite(b)) return;
  if (a == 0.0f || b == 0.0f) ++r.zero_in;
  classify(a, 0.0, s, kEncode, r);
  classify(b, 0.0, s, kEncode, r);
  const auto [v, e] = two_sum(to_double(from_double(a, s), s), to_double(from_double(b, s), s));
  classify(v, e, s, kCombine, r);
  if (v < 0.0) ++r.clamped;
}

/// Whether the kernel's stop at `done` (from `from`) is the contract's: a
/// whole number of all-finite groups, ending at a group holding a
/// non-finite element or where fewer than kLanes elements remain.
::testing::AssertionResult stop_is_right(const std::vector<bool>& ok, std::size_t from,
                                         std::size_t done) {
  if (done % simd::kLanes != 0) return ::testing::AssertionFailure() << "ragged stop " << done;
  for (std::size_t i = from; i < from + done; ++i) {
    if (!ok[i]) return ::testing::AssertionFailure() << "ran non-finite element " << i;
  }
  const std::size_t at = from + done;
  if (at + simd::kLanes > ok.size()) return ::testing::AssertionSuccess();
  for (std::size_t i = at; i < at + simd::kLanes; ++i) {
    if (!ok[i]) return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "stopped early at " << at << " of " << ok.size();
}

/// The session's loop over `count` elements: kernel, then the coded step
/// on what it stopped at. `lanes(i, count)` runs the kernel from i, `coded(i)`
/// one element, ok[i] says whether element i is finite input.
template <typename Lanes, typename Coded>
void drive(std::size_t count, const std::vector<bool>& ok, Lanes lanes, Coded coded, Reached& r) {
  for (std::size_t i = 0; i < count;) {
    const std::size_t done = lanes(i, count - i);
    ASSERT_LE(done, count - i);
    EXPECT_TRUE(stop_is_right(ok, i, done));
    i += done;
    if (i + simd::kLanes <= count) {
      for (std::size_t l = 0; l < simd::kLanes; ++l) r.nonfinite[l] += ok[i + l] ? 0 : 1;
    }
    for (const std::size_t stop = std::min(count, i + simd::kLanes); i < stop; ++i) coded(i);
  }
}

/// BN over x through the lane kernel and its coded fallback, compared with
/// the coded step element by element.
void check_bn(const Floats& x, const Bn& c, const PositSpec& s, Reached& r, const char* what) {
  ASSERT_NE(c.scale, s.nar_code());
  ASSERT_NE(c.mean, s.nar_code());
  ASSERT_NE(c.shift, s.nar_code());
  if (x.size() < 8) ++r.counts[x.size()];
  std::vector<bool> ok(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ok[i] = finite(x[i]);
  Floats y(x.size(), -1.0f);
  drive(
      x.size(), ok,
      [&](std::size_t i, std::size_t n) {
        return simd::batchnorm_lanes_avx2(x.data() + i, n, s, to_double(c.scale, s),
                                          to_double(c.mean, s), to_double(c.shift, s),
                                          y.data() + i);
      },
      [&](std::size_t i) { y[i] = coded_bn(x[i], c, s); }, r);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float want = coded_bn(x[i], c, s);
    classify_bn(x[i], c, s, r);
    if (want == 0.0f && finite(x[i])) ++r.zero_out;
    if (bits_of(y[i]) != bits_of(want)) {
      ADD_FAILURE() << s.to_string() << " BN " << what << " element " << i << " of " << x.size()
                    << ": x " << x[i] << " scale " << to_double(c.scale, s) << " mean "
                    << to_double(c.mean, s) << " shift " << to_double(c.shift, s) << ": got "
                    << y[i] << " (0x" << std::hex << bits_of(y[i]) << ") want " << want << " (0x"
                    << bits_of(want) << std::dec << ")";
      return;
    }
  }
}

/// The join over (a, b), as check_bn; in place on a copy of a, as the
/// session may run it.
void check_join(const Floats& a, const Floats& b, const PositSpec& s, Reached& r,
                const char* what) {
  ASSERT_EQ(a.size(), b.size());
  if (a.size() < 8) ++r.counts[a.size()];
  std::vector<bool> ok(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) ok[i] = finite(a[i]) && finite(b[i]);
  Floats y = a;
  drive(
      a.size(), ok,
      [&](std::size_t i, std::size_t n) {
        return simd::residual_join_lanes_avx2(y.data() + i, b.data() + i, n, s, y.data() + i);
      },
      [&](std::size_t i) { y[i] = coded_join(a[i], b[i], s); }, r);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float want = coded_join(a[i], b[i], s);
    classify_join(a[i], b[i], s, r);
    if (want == 0.0f && ok[i]) ++r.zero_out;
    if (bits_of(y[i]) != bits_of(want)) {
      ADD_FAILURE() << s.to_string() << " join " << what << " element " << i << " of "
                    << a.size() << ": a " << a[i] << " b " << b[i] << ": got " << y[i] << " (0x"
                    << std::hex << bits_of(y[i]) << ") want " << want << " (0x" << bits_of(want)
                    << std::dec << ")";
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Uniform float bit patterns: every exponent, NaN, +-Inf and subnormals.
Floats random_bits(std::size_t count, std::mt19937_64& rng) {
  Floats x(count);
  for (auto& v : x) {
    const auto b = static_cast<std::uint32_t>(rng());
    std::memcpy(&v, &b, sizeof v);
  }
  return x;
}

Floats gaussian(std::size_t count, std::mt19937_64& rng, double sigma) {
  std::normal_distribution<double> dist(0.0, sigma);
  Floats x(count);
  for (auto& v : x) v = static_cast<float>(dist(rng));
  return x;
}

/// Up to `count` random pairs (lo, hi) of adjacent positive posits that
/// floats hold exactly, on the value-nearest grid (hi <= 2 lo).
std::vector<std::pair<double, double>> neighbours(const PositSpec& s, std::mt19937_64& rng,
                                                  std::size_t count) {
  std::vector<std::pair<double, double>> out;
  for (std::size_t t = 0; t < 64 * count && out.size() < count; ++t) {
    const std::uint32_t code = 1u + static_cast<std::uint32_t>(rng() % (s.maxpos_code() - 1u));
    const double lo = to_double(code, s), hi = to_double(code + 1u, s);
    if (hi <= 2.0 * lo && static_cast<double>(static_cast<float>(lo)) == lo &&
        static_cast<double>(static_cast<float>(hi)) == hi) {
      out.emplace_back(lo, hi);
    }
  }
  return out;
}

/// The code of v when v is a value of s, else NaR.
std::uint32_t exact_code(double v, const PositSpec& s) {
  const std::uint32_t c = from_double(v, s);
  return to_double(c, s) == v ? c : s.nar_code();
}

/// Four copies of v.
Floats quad(double v) { return Floats(simd::kLanes, static_cast<float>(v)); }

/// The extreme floats: zeros, the subnormal and normal ends, and the
/// spec's minpos and maxpos (and their neighbours outside) where a float
/// holds them.
Floats extremes(const PositSpec& s) {
  const double minpos = to_double(s.minpos_code(), s);
  const double maxpos = to_double(s.maxpos_code(), s);
  Floats x = {0.0f,
              -0.0f,
              std::numeric_limits<float>::denorm_min(),
              std::numeric_limits<float>::min(),
              std::numeric_limits<float>::max(),
              static_cast<float>(minpos),
              static_cast<float>(minpos / 2),
              static_cast<float>(minpos * 0.75),
              static_cast<float>(maxpos),
              static_cast<float>(maxpos * 2),
              static_cast<float>(maxpos * 1.5),
              1.0f,
              0.5f};
  const std::size_t half = x.size();
  for (std::size_t i = 0; i < half; ++i) x.push_back(-x[i]);
  Floats out;
  for (const float v : x) {
    if (finite(v)) out.push_back(v);
  }
  return out;
}

#define REQUIRE_LANES() \
  if (!simd::enabled()) GTEST_SKIP() << "no AVX2 lane kernel on this host"

TEST(ElementwiseLanes, DomainIsTheRoundedLaneDomain) {
  // Every es <= 3 format up to 26 significand bits: n <= 28 + es.
  const std::vector<PositSpec> specs = lane_specs();
  for (int es = 0; es <= 3; ++es) {
    EXPECT_TRUE(simd::rounded_lanes_supported({28 + es, es}));
    EXPECT_FALSE(simd::rounded_lanes_supported({29 + es, es}));
  }
  EXPECT_EQ(specs.size(), 26u + 27u + 28u + 29u);
  EXPECT_FALSE(simd::rounded_lanes_supported({32, 2}));
}

/// Per-spec BN cases; returns what they reached.
Reached run_bn(const PositSpec& s) {
  Reached r;
  std::mt19937_64 rng(0xB0 + static_cast<std::uint64_t>(s.n * 8 + s.es));
  const std::uint32_t one = from_double(1.0, s);
  const std::uint32_t maxpos = s.maxpos_code(), minpos = s.minpos_code();
  const auto negc = [&](std::uint32_t c) { return neg(c, s); };
  std::normal_distribution<double> unit(0.0, 1.0);
  const auto gauss_code = [&](double mu, double sigma) {
    return from_double(mu + sigma * unit(rng), s);
  };

  // Constants: identity, extremes, zeros, and Gaussian channels.
  std::vector<Bn> channels = {{one, 0, 0},
                              {negc(one), 0, 0},
                              {maxpos, 0, 0},
                              {minpos, 0, 0},
                              {one, negc(maxpos), 0},
                              {one, maxpos, 0},
                              {one, 0, maxpos},
                              {negc(maxpos), 0, negc(maxpos)},
                              {negc(minpos), minpos, 0}};
  for (int i = 0; i < 6; ++i) {
    channels.push_back({gauss_code(1.0, 0.5), gauss_code(0.0, 1.0), gauss_code(0.0, 1.0)});
  }
  const Floats ext = extremes(s);
  for (const Bn& c : channels) {
    check_bn(random_bits(203, rng), c, s, r, "random bits");
    check_bn(gaussian(97, rng, 1.0), c, s, r, "gaussian");
    check_bn(gaussian(64, rng, 1e-3), c, s, r, "small gaussian");
    check_bn(ext, c, s, r, "extremes");
    // x == mean, where a float holds the mean: c = +0.
    const double m = to_double(c.mean, s);
    if (static_cast<double>(static_cast<float>(m)) == m) check_bn(quad(m), c, s, r, "x == mean");
  }

  // NaN and +-Inf in each lane position of two groups and the tail.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    for (std::size_t pos = 0; pos < 11; ++pos) {
      Floats x = gaussian(11, rng, 1.0);
      x[pos] = bad;
      check_bn(x, channels.back(), s, r, "non-finite");
    }
  }
  // Spans of 0..7 elements.
  for (std::size_t count = 0; count < 8; ++count) {
    check_bn(gaussian(count, rng, 1.0), channels.back(), s, r, "short span");
    check_bn(random_bits(count, rng), channels[0], s, r, "short random span");
  }

  // Ties. Encode: x at the midpoint of two adjacent posits. Sub: x = lo and
  // mean = -(hi - lo) / 2. Fma: x = hi (mean 0, scale 1) and shift =
  // -(hi - lo) / 2. Both signs; the even code is lo or hi by parity.
  for (const auto& [lo, hi] : neighbours(s, rng, 48)) {
    const double mid = (lo + hi) / 2;
    const std::uint32_t half_gap = exact_code((hi - lo) / 2, s);
    if (static_cast<double>(static_cast<float>(mid)) == mid) {
      check_bn({static_cast<float>(mid), static_cast<float>(-mid), 1.0f, static_cast<float>(mid)},
               channels[0], s, r, "encode tie");
    }
    if (half_gap == s.nar_code()) continue;
    check_bn({static_cast<float>(lo), static_cast<float>(lo), 2.0f, static_cast<float>(lo)},
             {one, negc(half_gap), 0}, s, r, "sub tie");
    check_bn({static_cast<float>(-lo), static_cast<float>(-lo), 2.0f, static_cast<float>(-lo)},
             {one, half_gap, 0}, s, r, "sub tie, negative");
    check_bn({static_cast<float>(hi), static_cast<float>(hi), 2.0f, static_cast<float>(hi)},
             {one, 0, negc(half_gap)}, s, r, "fma tie");
    check_bn({static_cast<float>(-hi), static_cast<float>(-hi), 2.0f, static_cast<float>(-hi)},
             {one, 0, half_gap}, s, r, "fma tie, negative");
  }

  // Ties only the TwoSum error decides: the product (1 + 2^-f)(1 - 2^-f)
  // 2^q = (1 - 2^-2f) U / 2 added to an odd-coded shift A whose gap is U =
  // 2^(q+1). The double sum rounds to the midpoint A + U / 2 once 2^-2f U
  // falls below its half ulp; the exact sum lies below it, so the answer is
  // A, where ties-to-even would take A + U.
  for (int f = 1; f <= 23; ++f) {
    const double c = 1.0 + std::ldexp(1.0, -f);
    if (exact_code(c, s) == s.nar_code()) break;
    for (int q = -8; q <= 8; ++q) {
      const std::uint32_t scale = exact_code(std::ldexp(1.0 - std::ldexp(1.0, -f), q), s);
      if (scale == s.nar_code()) continue;
      for (int t = 0; t <= s.max_scale(); ++t) {
        const std::uint32_t base = exact_code(std::ldexp(1.0, t), s);
        if (base == s.nar_code() || (base & 1u) != 0 || base + 2u > s.maxpos_code()) continue;
        if (to_double(base + 1u, s) - std::ldexp(1.0, t) != std::ldexp(1.0, q + 1)) continue;
        const std::uint32_t shift = base + 1u;  // odd code: ties-to-even would round up
        check_bn(quad(c), {scale, 0, shift}, s, r, "tie by error");
        check_bn(quad(-c), {scale, 0, negc(shift)}, s, r, "tie by error, negative");
      }
    }
  }
  return r;
}

/// Per-spec join cases; returns what they reached.
Reached run_join(const PositSpec& s) {
  Reached r;
  std::mt19937_64 rng(0x70 + static_cast<std::uint64_t>(s.n * 8 + s.es));
  const Floats ext = extremes(s);
  for (int rep = 0; rep < 6; ++rep) {
    check_join(random_bits(203, rng), random_bits(203, rng), s, r, "random bits");
    check_join(random_bits(97, rng), gaussian(97, rng, 1.0), s, r, "random bits + gaussian");
    check_join(gaussian(97, rng, 1.0), gaussian(97, rng, 1.0), s, r, "gaussian");
  }
  // Every pair of extremes, both orders.
  Floats ea, eb;
  for (const float a : ext) {
    for (const float b : ext) {
      ea.push_back(a);
      eb.push_back(b);
    }
  }
  check_join(ea, eb, s, r, "extremes");
  // a == -b: the sum cancels to +0.
  const Floats g = gaussian(13, rng, 1.0);
  Floats ng(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) ng[i] = -g[i];
  check_join(g, ng, s, r, "a == -b");

  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    for (std::size_t pos = 0; pos < 11; ++pos) {
      Floats a = gaussian(11, rng, 1.0), b = gaussian(11, rng, 1.0);
      (pos % 2 == 0 ? a : b)[pos] = bad;
      check_join(a, b, s, r, "non-finite");
    }
  }
  for (std::size_t count = 0; count < 8; ++count) {
    check_join(gaussian(count, rng, 1.0), gaussian(count, rng, 1.0), s, r, "short span");
  }

  // Ties: encode (a at a midpoint, b = 0) and the add (a = lo, b = +-gap/2).
  for (const auto& [lo, hi] : neighbours(s, rng, 48)) {
    const double mid = (lo + hi) / 2;
    const float m = static_cast<float>(mid);
    if (static_cast<double>(m) == mid) {
      check_join({m, -m, 0.0f, m}, {0.0f, 0.0f, m, 1.0f}, s, r, "encode tie");
    }
    const double half_gap = (hi - lo) / 2;
    const auto hg = static_cast<float>(half_gap);
    if (exact_code(half_gap, s) == s.nar_code() || static_cast<double>(hg) != half_gap) continue;
    const auto l = static_cast<float>(lo), h = static_cast<float>(hi);
    check_join({l, hg, h, -l}, {hg, l, -hg, -hg}, s, r, "add tie");
  }
  return r;
}

std::string tally(const Reached& r) {
  std::string t;
  for (int st = 0; st < kSteps; ++st) {
    t += " step" + std::to_string(st) + "[sat " + std::to_string(r.saturated[st]) + " minpos " +
         std::to_string(r.to_minpos[st]) + " tie " + std::to_string(r.tie[st]) + " tie_err " +
         std::to_string(r.tie_by_error[st]) + "]";
  }
  return t;
}

TEST(ElementwiseLanes, BatchNormMatchesTheCodedSteps) {
  REQUIRE_LANES();
  int tie_by_error = 0;
  for (const PositSpec& s : lane_specs()) {
    const Reached r = run_bn(s);
    if (::testing::Test::HasFatalFailure()) return;
    const std::string ctx = s.to_string() + tally(r);
    for (std::size_t l = 0; l < simd::kLanes; ++l) EXPECT_GT(r.nonfinite[l], 0) << ctx;
    for (int count = 0; count < 8; ++count) EXPECT_GT(r.counts[count], 0) << ctx;
    EXPECT_GT(r.zero_in, 0) << ctx;
    EXPECT_GT(r.zero_out, 0) << ctx;
    EXPECT_GT(r.saturated[kCombine], 0) << ctx;
    EXPECT_GT(r.saturated[kFma], 0) << ctx;
    EXPECT_GT(r.to_minpos[kFma], 0) << ctx;
    // Value-nearest ties need adjacent posits at most a factor 2 apart: a
    // full exponent field somewhere, n >= 3 + es.
    if (s.n >= 3 + s.es) {
      EXPECT_GT(r.tie[kEncode], 0) << ctx;
      EXPECT_GT(r.tie[kCombine], 0) << ctx;
      EXPECT_GT(r.tie[kFma], 0) << ctx;
    }
    // A float reaches beyond maxpos (below minpos) where maxpos < FLT_MAX
    // (minpos > FLT_TRUE_MIN / 2).
    if (s.max_scale() < 128) {
      EXPECT_GT(r.saturated[kEncode], 0) << ctx;
    }
    if (s.min_scale() > -149) {
      EXPECT_GT(r.to_minpos[kEncode], 0) << ctx;
    }
    tie_by_error += r.tie_by_error[kFma];
  }
  EXPECT_GT(tie_by_error, 0) << "no fma tie decided by the TwoSum error";
}

TEST(ElementwiseLanes, ResidualJoinMatchesTheCodedSteps) {
  REQUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    const Reached r = run_join(s);
    if (::testing::Test::HasFatalFailure()) return;
    const std::string ctx = s.to_string() + tally(r);
    for (std::size_t l = 0; l < simd::kLanes; ++l) EXPECT_GT(r.nonfinite[l], 0) << ctx;
    for (int count = 0; count < 8; ++count) EXPECT_GT(r.counts[count], 0) << ctx;
    EXPECT_GT(r.zero_in, 0) << ctx;
    EXPECT_GT(r.zero_out, 0) << ctx;
    EXPECT_GT(r.clamped, 0) << ctx;
    if (s.n >= 3 + s.es) {
      EXPECT_GT(r.tie[kEncode], 0) << ctx;
      EXPECT_GT(r.tie[kCombine], 0) << ctx;
    }
    // Two floats sum beyond maxpos where maxpos < FLT_MAX.
    if (s.max_scale() < 128) {
      EXPECT_GT(r.saturated[kEncode], 0) << ctx;
    }
    if (s.max_scale() < 128) {
      EXPECT_GT(r.saturated[kCombine], 0) << ctx;
    }
    if (s.min_scale() > -149) {
      EXPECT_GT(r.to_minpos[kEncode], 0) << ctx;
    }
  }
}

// ---------------------------------------------------------------------------
// Activation encode: encode_lanes_avx2 / encode_quire_lanes_avx2 against
// lane_value / quire_lane_operand of decode_unpacked(from_double(x)).
// ---------------------------------------------------------------------------

std::vector<PositSpec> encode_specs() {
  return {{5, 1}, {8, 0}, {8, 1}, {8, 2}, {12, 1}, {16, 0}, {16, 1}};
}

/// Every posit value of s as a float; every rounding tie — the (n+1)-bit
/// code 2c + 1 lies exactly halfway between codes c and c + 1, and for
/// c = maxpos and -minpos beyond maxpos and below minpos — with its two
/// float neighbours; values far below minpos and around maxpos; +-0 and
/// float subnormals. Each is a float for these formats (scales within
/// +-60, at most 15 significant bits).
Floats encode_inputs(const PositSpec& s) {
  const float inf = std::numeric_limits<float>::infinity();
  const PositSpec wide{s.n + 1, s.es};
  Floats x;
  for (std::uint32_t c = 0; c <= s.mask(); ++c) {
    if (c == s.nar_code()) continue;
    x.push_back(static_cast<float>(to_double(c, s)));
    const std::uint32_t tie_code = (2 * c + 1) & wide.mask();
    const double tie = to_double(tie_code, wide);
    EXPECT_EQ(static_cast<double>(static_cast<float>(tie)), tie) << s.to_string();
    const float t = static_cast<float>(tie);
    x.insert(x.end(), {t, std::nextafter(t, inf), std::nextafter(t, -inf)});
  }
  const auto minpos = static_cast<float>(to_double(s.minpos_code(), s));
  const auto maxpos = static_cast<float>(to_double(s.maxpos_code(), s));
  const float fmax = std::numeric_limits<float>::max();
  const float sub = std::numeric_limits<float>::denorm_min();
  for (const float v : {minpos / 2, minpos / 3, minpos * 0.75f, minpos / 1024, 1e-30f, maxpos,
                        std::nextafter(maxpos, inf), maxpos * 1.5f, maxpos * 2, 1e30f, fmax, 0.0f,
                        sub, 2 * sub, 1000 * sub, std::numeric_limits<float>::min(),
                        std::nextafter(std::numeric_limits<float>::min(), 0.0f)}) {
    x.insert(x.end(), {v, -v});
  }
  return x;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The coded encode of x in the lane forms.
Unpacked coded_operand(float x, const PositSpec& s) {
  return decode_unpacked(from_double(x, s, RoundMode::kNearestEven), s);
}

/// Both kernels over x: as one row (its ragged tail zero-padded), and as
/// rows of 7 at an output stride of 10 whose gaps must keep their fill.
void check_encode(const Floats& x, const PositSpec& s) {
  const bool quire = simd::quire_lanes_supported(s, 1);
  const double fill = -3.25;
  constexpr std::size_t kWidth = 7, kStride = 10;
  const std::size_t rows = x.size() / kWidth;
  std::vector<double> one(x.size()), strided(rows * kStride, fill);
  std::vector<std::int64_t> q_one(x.size()), q_strided(rows * kStride, -1);
  ASSERT_TRUE(simd::encode_lanes_avx2(x.data(), 1, x.size(), s, one.data(), x.size()));
  ASSERT_TRUE(simd::encode_lanes_avx2(x.data(), rows, kWidth, s, strided.data(), kStride));
  if (quire) {
    ASSERT_TRUE(simd::encode_quire_lanes_avx2(x.data(), 1, x.size(), s, q_one.data(), x.size()));
    ASSERT_TRUE(
        simd::encode_quire_lanes_avx2(x.data(), rows, kWidth, s, q_strided.data(), kStride));
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Unpacked u = coded_operand(x[i], s);
    const double want = simd::lane_value(u);
    const std::size_t at = i / kWidth * kStride + i % kWidth;
    ASSERT_EQ(bits_of(one[i]), bits_of(want))
        << s.to_string() << " x " << x[i] << ": got " << one[i] << " want " << want;
    if (i < rows * kWidth) {
      ASSERT_EQ(bits_of(strided[at]), bits_of(want)) << s.to_string();
    }
    if (!quire) continue;
    const std::int64_t want_q = simd::quire_lane_operand(u, s);
    ASSERT_EQ(q_one[i], want_q) << s.to_string() << " x " << x[i] << std::hex << ": got 0x"
                                << q_one[i] << " want 0x" << want_q;
    if (i < rows * kWidth) {
      ASSERT_EQ(q_strided[at], want_q) << s.to_string();
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = kWidth; i < kStride; ++i) {
      ASSERT_EQ(strided[r * kStride + i], fill) << "gap written, row " << r;
      ASSERT_EQ(q_strided[r * kStride + i], -1) << "gap written, row " << r;
    }
  }
}

TEST(EncodeLanes, MatchesTheCodedEncodeOnEveryValueTieAndEdge) {
  REQUIRE_LANES();
  for (const PositSpec& s : encode_specs()) {
    ASSERT_TRUE(simd::rounded_lanes_supported(s)) << s.to_string();
    check_encode(encode_inputs(s), s);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The kernels cover every quire-lane format among these.
  EXPECT_TRUE(simd::quire_lanes_supported({16, 1}, 1));
  EXPECT_TRUE(simd::quire_lanes_supported({8, 2}, 1));
}

TEST(EncodeLanes, MatchesTheCodedEncodeOnRandomFloats) {
  REQUIRE_LANES();
  std::mt19937_64 rng(41);
  for (const PositSpec& s : encode_specs()) {
    Floats x = gaussian(4099, rng, 3.0);
    for (float& v : random_bits(4099, rng)) x.push_back(std::isfinite(v) ? v : 1.5f);
    check_encode(x, s);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EncodeLanes, StopAtNanOrInfInEveryLaneAndTheRaggedTail) {
  // 11 floats: two whole groups and a tail of three, one non-finite value
  // at each position in turn, in a single row and in the second of two.
  REQUIRE_LANES();
  const float inf = std::numeric_limits<float>::infinity();
  const PositSpec s{16, 1};
  std::vector<double> out(32);
  std::vector<std::int64_t> q_out(32);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
    for (std::size_t at = 0; at < 11; ++at) {
      Floats x(22, 0.5f);
      x[at] = bad;
      EXPECT_FALSE(simd::encode_lanes_avx2(x.data(), 1, 11, s, out.data(), 11)) << at;
      EXPECT_FALSE(simd::encode_quire_lanes_avx2(x.data(), 1, 11, s, q_out.data(), 11)) << at;
      std::swap(x[at], x[11 + at]);
      EXPECT_FALSE(simd::encode_lanes_avx2(x.data(), 2, 11, s, out.data(), 12)) << at;
      EXPECT_FALSE(simd::encode_quire_lanes_avx2(x.data(), 2, 11, s, q_out.data(), 12)) << at;
      EXPECT_TRUE(simd::encode_lanes_avx2(x.data(), 1, 11, s, out.data(), 11)) << at;
    }
  }
}

}  // namespace
}  // namespace pdnn::posit
