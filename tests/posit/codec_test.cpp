// codec_test.cpp — exhaustive and oracle-based validation of decode/encode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "oracle.hpp"
#include "posit/codec.hpp"

namespace pdnn::posit {
namespace {

using testing::CodeTable;
using testing::double_to_fixed;
using testing::i128;

// ---------------------------------------------------------------------------
// Format sweep fixture: every test in this suite runs over a grid of formats.
// ---------------------------------------------------------------------------
class CodecFormatTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  PositSpec spec() const { return PositSpec{GetParam().first, GetParam().second}; }

  /// Visit every code for n <= 16, otherwise a deterministic 100k sample.
  template <typename Fn>
  void for_each_code(const PositSpec& s, Fn&& fn) const {
    if (s.n <= 16) {
      for (std::uint64_t c = 0; c < s.code_count(); ++c) fn(static_cast<std::uint32_t>(c));
    } else {
      std::mt19937_64 rng(123);
      for (int i = 0; i < 100000; ++i) fn(static_cast<std::uint32_t>(rng()) & s.mask());
    }
  }
};

TEST_P(CodecFormatTest, SpecialCodesDecode) {
  const PositSpec s = spec();
  EXPECT_TRUE(decode(0u, s).is_zero);
  EXPECT_TRUE(decode(s.nar_code(), s).is_nar);
  EXPECT_DOUBLE_EQ(to_double(0u, s), 0.0);
  EXPECT_TRUE(std::isnan(to_double(s.nar_code(), s)));
}

TEST_P(CodecFormatTest, MaxposMinposValues) {
  const PositSpec s = spec();
  EXPECT_DOUBLE_EQ(to_double(s.maxpos_code(), s), maxpos_value(s));
  EXPECT_DOUBLE_EQ(to_double(s.minpos_code(), s), minpos_value(s));
  EXPECT_DOUBLE_EQ(maxpos_value(s), std::pow(s.useed(), s.n - 2));
  EXPECT_DOUBLE_EQ(minpos_value(s), std::pow(s.useed(), 2 - s.n));
}

TEST_P(CodecFormatTest, ExhaustiveRoundTrip) {
  const PositSpec s = spec();
  for_each_code(s, [&](std::uint32_t code) {
    if (code == s.nar_code()) return;
    const double v = to_double(code, s);
    EXPECT_EQ(from_double(v, s), code) << s.to_string() << " code " << code << " value " << v;
  });
}

TEST_P(CodecFormatTest, NegationIsTwosComplement) {
  const PositSpec s = spec();
  for_each_code(s, [&](std::uint32_t code) {
    if (code == s.nar_code() || code == 0) return;
    const std::uint32_t negated = (~code + 1u) & s.mask();
    EXPECT_DOUBLE_EQ(to_double(negated, s), -to_double(code, s));
  });
}

TEST_P(CodecFormatTest, CodesAreMonotoneInSignExtendedOrder) {
  const PositSpec s = spec();
  if (s.n > 12) GTEST_SKIP() << "oracle table too large";
  const CodeTable table(s);
  for (std::size_t i = 1; i < table.values.size(); ++i) {
    EXPECT_LT(table.values[i - 1], table.values[i])
        << s.to_string() << " codes " << table.codes[i - 1] << "," << table.codes[i];
  }
}

TEST_P(CodecFormatTest, DecodedFieldsReconstructValue) {
  const PositSpec s = spec();
  for_each_code(s, [&](std::uint32_t code) {
    if (code == s.nar_code() || code == 0) return;
    const Decoded d = decode(code, s);
    // Eq. (1): x = (-1)^s * useed^k * 2^e * (1 + f)
    const double f = d.frac_width > 0 ? std::ldexp(static_cast<double>(d.frac), -d.frac_width) : 0.0;
    const double v = (d.neg ? -1.0 : 1.0) * std::pow(s.useed(), d.k) * std::ldexp(1.0, d.e) * (1.0 + f);
    EXPECT_DOUBLE_EQ(v, to_double(code, s)) << s.to_string() << " code " << code;
  });
}

// Nearest-even encoding agrees with the brute-force oracle on a dense grid of
// inputs: every code value, every midpoint between adjacent codes, and points
// just above/below every midpoint.
TEST_P(CodecFormatTest, NearestEvenMatchesBruteForceOracle) {
  const PositSpec s = spec();
  if (s.n > 10) GTEST_SKIP() << "oracle table too large";
  const CodeTable table(s);
  for (std::size_t i = 1; i < table.codes.size(); ++i) {
    const double lo = to_double(table.codes[i - 1], s);
    const double hi = to_double(table.codes[i], s);
    const double mid = (lo + hi) / 2.0;  // exact: dyadic mean of dyadics
    for (const double x : {mid, std::nextafter(mid, lo), std::nextafter(mid, hi)}) {
      i128 fixed = 0;
      if (!double_to_fixed(x, table.frac_bits, &fixed)) continue;  // inexact probe: skip
      const std::uint32_t got = from_double(x, s, RoundMode::kNearestEven);
      const std::uint32_t want = table.nearest(fixed);
      EXPECT_EQ(got, want) << s.to_string() << " x=" << x << " between codes " << table.codes[i - 1]
                           << " and " << table.codes[i];
    }
  }
}

TEST_P(CodecFormatTest, NearestEvenMatchesOracleOnRandomInputs) {
  const PositSpec s = spec();
  if (s.n > 10) GTEST_SKIP() << "oracle table too large";
  const CodeTable table(s);
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> scale_dist(s.min_scale() - 2.0, s.max_scale() + 2.0);
  std::uniform_real_distribution<double> mant_dist(1.0, 2.0);
  for (int trial = 0; trial < 5000; ++trial) {
    // Log-uniform magnitude covering the whole dynamic range plus overflow.
    double x = mant_dist(rng) * std::exp2(scale_dist(rng));
    if (trial % 2) x = -x;
    // Snap to a value exactly representable in the oracle's fixed point.
    x = std::ldexp(std::round(std::ldexp(x, 40)), -40);
    i128 fixed = 0;
    if (!double_to_fixed(x, table.frac_bits, &fixed)) continue;
    EXPECT_EQ(from_double(x, s, RoundMode::kNearestEven), table.nearest(fixed))
        << s.to_string() << " x=" << x;
  }
}

TEST_P(CodecFormatTest, TowardZeroMatchesOracle) {
  const PositSpec s = spec();
  if (s.n > 10) GTEST_SKIP() << "oracle table too large";
  const CodeTable table(s);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> scale_dist(s.min_scale() - 2.0, s.max_scale() + 2.0);
  std::uniform_real_distribution<double> mant_dist(1.0, 2.0);
  for (int trial = 0; trial < 3000; ++trial) {
    double x = mant_dist(rng) * std::exp2(scale_dist(rng));
    if (trial % 2) x = -x;
    x = std::ldexp(std::round(std::ldexp(x, 40)), -40);
    if (x == 0.0) continue;
    i128 fixed = 0;
    if (!double_to_fixed(x, table.frac_bits, &fixed)) continue;
    EXPECT_EQ(from_double(x, s, RoundMode::kTowardZero), table.toward_zero(fixed))
        << s.to_string() << " x=" << x;
  }
}

TEST_P(CodecFormatTest, TowardZeroNeverIncreasesMagnitude) {
  const PositSpec s = spec();
  // n=2 has an empty in-range scale interval (minpos == maxpos == 1).
  if (s.max_scale() - 0.5 < s.min_scale() + 0.5) GTEST_SKIP() << "degenerate dynamic range";
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> scale_dist(s.min_scale() + 0.5, s.max_scale() - 0.5);
  std::uniform_real_distribution<double> mant_dist(1.0, 2.0);
  for (int trial = 0; trial < 2000; ++trial) {
    double x = mant_dist(rng) * std::exp2(scale_dist(rng));
    if (trial % 2) x = -x;
    const double q = to_double(from_double(x, s, RoundMode::kTowardZero), s);
    EXPECT_LE(std::fabs(q), std::fabs(x)) << s.to_string();
    EXPECT_EQ(std::signbit(q), std::signbit(x));
  }
}

TEST_P(CodecFormatTest, SaturationAtDynamicRangeEnds) {
  const PositSpec s = spec();
  const double big = maxpos_value(s) * 4.0;
  const double tiny = minpos_value(s) / 4.0;
  EXPECT_EQ(from_double(big, s), s.maxpos_code());
  EXPECT_EQ(from_double(-big, s), (~s.maxpos_code() + 1u) & s.mask());
  // The posit standard: no underflow to zero under nearest rounding.
  EXPECT_EQ(from_double(tiny, s), s.minpos_code());
  EXPECT_EQ(from_double(std::numeric_limits<double>::infinity(), s), s.nar_code());
  EXPECT_EQ(from_double(std::nan(""), s), s.nar_code());
}

/// Every oracle-checkable format — the full (n <= 10, es <= 2) grid — plus
/// wider spot formats used by the paper's tables (the oracle-backed tests
/// GTEST_SKIP themselves for n > 10; the structural tests still run there).
std::vector<std::pair<int, int>> sweep_formats() {
  std::vector<std::pair<int, int>> formats;
  for (int n = 2; n <= 10; ++n)
    for (int es = 0; es <= 2; ++es) formats.emplace_back(n, es);
  for (const auto& f : {std::pair{8, 3}, std::pair{12, 1}, std::pair{16, 1}, std::pair{16, 2},
                        std::pair{32, 3}})
    formats.push_back(f);
  return formats;
}

INSTANTIATE_TEST_SUITE_P(FormatSweep, CodecFormatTest, ::testing::ValuesIn(sweep_formats()),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "_" + std::to_string(info.param.second);
                         });

// ---------------------------------------------------------------------------
// Fixed-format spot checks.
// ---------------------------------------------------------------------------

// Table I of the paper: every positive (5,1) code.
TEST(CodecTableI, Posit5_1PositiveValues) {
  const PositSpec s{5, 1};
  const double expected[16] = {0.0,      1.0 / 64, 1.0 / 16, 1.0 / 8, 1.0 / 4, 3.0 / 8, 1.0 / 2, 3.0 / 4,
                               1.0,      3.0 / 2,  2.0,      3.0,     4.0,     8.0,     16.0,    64.0};
  for (std::uint32_t code = 0; code < 16; ++code) {
    EXPECT_DOUBLE_EQ(to_double(code, s), expected[code]) << "code " << code;
  }
}

TEST(CodecTableI, Posit5_1Fields) {
  const PositSpec s{5, 1};
  // Row 00101: regime -1, exponent 0, mantissa 1/2, value 3/8.
  Decoded d = decode(0b00101u, s);
  EXPECT_EQ(d.k, -1);
  EXPECT_EQ(d.e, 0);
  EXPECT_EQ(d.frac, 1u);
  EXPECT_EQ(d.frac_width, 1);
  // Row 01011: regime 0, exponent 1, mantissa 1/2, value 3.
  d = decode(0b01011u, s);
  EXPECT_EQ(d.k, 0);
  EXPECT_EQ(d.e, 1);
  EXPECT_EQ(d.frac, 1u);
  // Row 01111: regime 3, exponent 0, mantissa 0, value 64.
  d = decode(0b01111u, s);
  EXPECT_EQ(d.k, 3);
  EXPECT_EQ(d.e, 0);
  EXPECT_EQ(d.frac_width, 0);
  // Row 00001: regime -3.
  d = decode(0b00001u, s);
  EXPECT_EQ(d.k, -3);
}

// Known posit16,1 encodings cross-checked against softposit conventions.
TEST(CodecSpot, Posit16_1KnownValues) {
  const PositSpec s{16, 1};
  EXPECT_EQ(from_double(1.0, s), 0x4000u);
  EXPECT_DOUBLE_EQ(to_double(0x4000u, s), 1.0);
  EXPECT_EQ(from_double(-1.0, s), 0xC000u);
  EXPECT_DOUBLE_EQ(to_double(0x5000u, s), 2.0);
  EXPECT_DOUBLE_EQ(to_double(0x3000u, s), 0.5);
  EXPECT_DOUBLE_EQ(to_double(0x4800u, s), 1.5);
  EXPECT_DOUBLE_EQ(maxpos_value(s), std::ldexp(1.0, 28));   // useed^14 = 2^28
  EXPECT_DOUBLE_EQ(minpos_value(s), std::ldexp(1.0, -28));
}

TEST(CodecSpot, Posit8_0KnownValues) {
  const PositSpec s{8, 0};
  EXPECT_EQ(from_double(1.0, s), 0x40u);
  EXPECT_DOUBLE_EQ(to_double(0x60u, s), 2.0);
  EXPECT_DOUBLE_EQ(to_double(0x20u, s), 0.5);
  EXPECT_DOUBLE_EQ(maxpos_value(s), 64.0);  // useed^6 = 2^6
}

TEST(CodecSpot, StochasticRoundingIsUnbiased) {
  const PositSpec s{8, 1};
  // Pick a value 1/4 of the way between two adjacent posits.
  const double lo = to_double(from_double(1.3, s, RoundMode::kTowardZero), s);
  std::uint32_t lo_code = from_double(lo, s);
  const std::uint32_t hi_code = lo_code + 1;  // next code up (positive range)
  const double hi = to_double(hi_code, s);
  const double x = lo + 0.25 * (hi - lo);

  RoundingRng rng(1234);
  int ups = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const std::uint32_t c = from_double(x, s, RoundMode::kStochastic, &rng);
    ASSERT_TRUE(c == lo_code || c == hi_code);
    if (c == hi_code) ++ups;
  }
  const double p = static_cast<double>(ups) / kTrials;
  EXPECT_NEAR(p, 0.25, 0.02);  // ~6.5 sigma tolerance at n=20000
}

TEST(CodecSpot, SignExtendOrdersNarSmallest) {
  const PositSpec s{8, 1};
  EXPECT_LT(sign_extend(s.nar_code(), s), sign_extend(from_double(-1e30, s), s));
}

// ---------------------------------------------------------------------------
// from_double and to_double against the general routines they shortcut:
// from_double rounds most normal doubles inline, to_double builds most
// doubles without decode() + ldexp; both must agree with the long way bit
// for bit.
// ---------------------------------------------------------------------------

/// The formats the engine and the paper run, plus (5,1) and the widest es.
const std::vector<PositSpec>& encode_formats() {
  static const std::vector<PositSpec> formats = {{5, 1},  {8, 0},  {8, 1},  {8, 2}, {16, 0},
                                                 {16, 1}, {16, 2}, {32, 2}, {32, 3}};
  return formats;
}

/// The encode oracle: x's fields found with frexp, rounded by round_pack.
std::uint32_t round_pack_of(double x, const PositSpec& s) {
  if (std::isnan(x) || std::isinf(x)) return s.nar_code();
  if (x == 0.0) return 0u;
  int exp = 0;
  const double m = std::frexp(std::fabs(x), &exp);  // m in [0.5, 1)
  const auto sig = static_cast<std::uint64_t>(std::ldexp(m, 63));  // hidden bit at 62
  return round_pack(s, x < 0.0, exp - 1, sig, 62, false, RoundMode::kNearestEven, nullptr);
}

float float_of_bits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

TEST(CodecEncode, EveryFloatExponentWithEdgeMantissasMatchesRoundPack) {
  // For every float exponent (subnormals, 0 and Inf/NaN included) and every
  // cut point c of the 23 mantissa bits: kept bits {none, lowest, all} x
  // guard bit {0, 1} x sticky bits below it {none, lowest, all} — exact
  // codes, ties to odd and even codes, values just off a tie, and all-ones
  // fractions whose rounding carries into the exponent and the regime.
  // Scales beyond the format saturate at maxpos/minpos.
  for (const PositSpec& s : encode_formats()) {
    for (std::uint32_t biased = 0; biased <= 255; ++biased) {
      for (int c = 0; c < 23; ++c) {
        const std::uint32_t guard = 1u << (22 - c);
        const std::uint32_t kept_all = ((1u << 23) - 1) & ~((guard << 1) - 1);
        for (const std::uint32_t kept : {0u, guard << 1, kept_all}) {
          for (const std::uint32_t g : {0u, guard}) {
            for (const std::uint32_t sticky : {0u, 1u, guard - 1}) {
              for (const std::uint32_t sign : {0u, 1u << 31}) {
                const float x = float_of_bits(sign | (biased << 23) | kept | g | sticky);
                ASSERT_EQ(from_double(x, s), round_pack_of(x, s))
                    << s.to_string() << " float bits " << std::hex
                    << (sign | (biased << 23) | kept | g | sticky);
              }
            }
          }
        }
      }
    }
  }
}

TEST(CodecEncode, SpecialValuesAndSaturation) {
  for (const PositSpec& s : encode_formats()) {
    EXPECT_EQ(from_double(0.0, s), 0u);
    EXPECT_EQ(from_double(-0.0, s), 0u);
    EXPECT_EQ(from_double(std::numeric_limits<double>::infinity(), s), s.nar_code());
    EXPECT_EQ(from_double(-std::numeric_limits<double>::infinity(), s), s.nar_code());
    EXPECT_EQ(from_double(std::numeric_limits<double>::quiet_NaN(), s), s.nar_code());
    const std::uint32_t neg_maxpos = (~s.maxpos_code() + 1u) & s.mask();
    const std::uint32_t neg_minpos = (~s.minpos_code() + 1u) & s.mask();
    for (const double big : {maxpos_value(s), maxpos_value(s) * 1.5, maxpos_value(s) * 64.0,
                             std::numeric_limits<double>::max()}) {
      EXPECT_EQ(from_double(big, s), s.maxpos_code()) << s.to_string() << " " << big;
      EXPECT_EQ(from_double(-big, s), neg_maxpos) << s.to_string() << " " << -big;
    }
    for (const double tiny : {minpos_value(s), minpos_value(s) / 3.0,
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::min()}) {
      EXPECT_EQ(from_double(tiny, s), s.minpos_code()) << s.to_string() << " " << tiny;
      EXPECT_EQ(from_double(-tiny, s), neg_minpos) << s.to_string() << " " << -tiny;
    }
  }
}

TEST(CodecEncode, RandomFloatsAndDoublesMatchRoundPack) {
  // Random float bit patterns (NaNs included), and random doubles whose
  // low mantissa bits exercise the sticky bits a float never sets.
  std::mt19937_64 rng(2024);
  for (const PositSpec& s : encode_formats()) {
    for (int t = 0; t < 200000; ++t) {
      const float x = float_of_bits(static_cast<std::uint32_t>(rng()));
      ASSERT_EQ(from_double(x, s), round_pack_of(x, s)) << s.to_string() << " " << x;
      const std::uint64_t bits =
          (rng() & ~(0x7FFULL << 52)) | ((1023ULL - 70 + rng() % 140) << 52);
      double d;
      std::memcpy(&d, &bits, sizeof d);
      ASSERT_EQ(from_double(d, s), round_pack_of(d, s)) << s.to_string() << " " << d;
    }
  }
}

TEST(CodecEncode, ToDoubleMatchesDecodeOnEveryCode) {
  // Every code of every n <= 16 format, all es, and a random sample of the
  // wider ones, whose largest es leave the normal double range and take
  // the ldexp fallback; to_double's value against decode() + ldexp, bit
  // for bit (NaR: a NaN).
  std::mt19937_64 rng(77);
  for (int n = 2; n <= 32; ++n) {
    for (int es = 0; es <= 6; ++es) {
      const PositSpec s{n, es};
      const std::uint64_t count = n <= 16 ? s.code_count() : 20000;
      for (std::uint64_t t = 0; t < count; ++t) {
        const auto code = n <= 16 ? static_cast<std::uint32_t>(t)
                                  : static_cast<std::uint32_t>(rng()) & s.mask();
        const Decoded d = decode(code, s);
        const double got = to_double(code, s);
        if (d.is_nar) {
          ASSERT_TRUE(std::isnan(got)) << s.to_string() << " code " << code;
          continue;
        }
        const double mag = d.is_zero ? 0.0 : std::ldexp(static_cast<double>(d.sig), d.scale - 62);
        const double want = d.neg ? -mag : mag;
        std::uint64_t got_bits, want_bits;
        std::memcpy(&got_bits, &got, sizeof got);
        std::memcpy(&want_bits, &want, sizeof want);
        ASSERT_EQ(got_bits, want_bits) << s.to_string() << " code " << code;
      }
    }
  }
}

}  // namespace
}  // namespace pdnn::posit
