// quire_test.cpp — exact accumulation invariants of the quire, and the
// AVX2 lane kernel (posit::simd::quire_lanes_avx2, four exact dots per
// vector in int64 limbs, rounded in vector registers to exact doubles)
// against to_double(Quire::accumulate_dot + to_posit), bit for bit, with and
// without a bias, output by output, at every spec the kernel covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "posit/quire.hpp"
#include "posit/simd.hpp"

namespace pdnn::posit {
namespace {

class QuireFormatTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  PositSpec spec() const { return PositSpec{GetParam().first, GetParam().second}; }
};

TEST_P(QuireFormatTest, EmptyQuireIsZero) {
  Quire q(spec());
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(q.to_posit(), 0u);
  EXPECT_DOUBLE_EQ(q.to_double(), 0.0);
}

TEST_P(QuireFormatTest, SingleProductRoundsLikeMul) {
  const PositSpec s = spec();
  std::mt19937_64 rng(11);
  for (int t = 0; t < 20000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code() || b == s.nar_code()) continue;
    Quire q(s);
    q.add_product(a, b);
    ASSERT_EQ(q.to_posit(), mul(a, b, s))
        << s.to_string() << " " << to_double(a, s) << "*" << to_double(b, s);
  }
}

TEST_P(QuireFormatTest, SinglePositRoundTripsExactly) {
  const PositSpec s = spec();
  std::mt19937_64 rng(13);
  for (int t = 0; t < 20000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code()) continue;
    Quire q(s);
    q.add_posit(a);
    ASSERT_EQ(q.to_posit(), a);
    ASSERT_DOUBLE_EQ(q.to_double(), to_double(a, s));
  }
}

TEST_P(QuireFormatTest, TwoPositSumRoundsLikeAdd) {
  // The quire sum of two posits, rounded once, is the rounded add — why the
  // session's residual join needs no quire: every pair for n = 8, a random
  // sample (NaR included) otherwise.
  const PositSpec s = spec();
  std::mt19937_64 rng(17);
  const bool every_pair = s.n <= 8;
  const std::uint64_t pairs = every_pair ? s.code_count() * s.code_count() : 200000;
  Quire q(s);
  for (std::uint64_t t = 0; t < pairs; ++t) {
    const auto a = static_cast<std::uint32_t>(every_pair ? t >> s.n : rng()) & s.mask();
    const auto b = static_cast<std::uint32_t>(every_pair ? t : rng()) & s.mask();
    q.clear();
    q.add_posit(a);
    q.add_posit(b);
    ASSERT_EQ(q.to_posit(), add(a, b, s)) << s.to_string() << " codes " << a << " + " << b;
  }
}

TEST_P(QuireFormatTest, ProductMinusProductCancelsExactly) {
  const PositSpec s = spec();
  std::mt19937_64 rng(19);
  for (int t = 0; t < 5000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code() || b == s.nar_code()) continue;
    Quire q(s);
    q.add_product(a, b);
    q.sub_product(a, b);
    ASSERT_TRUE(q.is_zero()) << to_double(a, s) << " * " << to_double(b, s);
  }
}

TEST_P(QuireFormatTest, ExtremeScaleSumIsExact) {
  // maxpos^2 + minpos^2 - maxpos^2 == minpos^2 exactly: impossible with any
  // rounding accumulator, trivial for the quire.
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(s.maxpos_code(), s.maxpos_code());
  q.add_product(s.minpos_code(), s.minpos_code());
  q.sub_product(s.maxpos_code(), s.maxpos_code());
  const std::uint32_t expected = mul(s.minpos_code(), s.minpos_code(), s);
  EXPECT_EQ(q.to_posit(), expected);
}

TEST_P(QuireFormatTest, DotProductMatchesDoubleReference) {
  const PositSpec s = spec();
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  for (int trial = 0; trial < 200; ++trial) {
    Quire q(s);
    double reference = 0.0;  // exact: products/sums of small posits fit double
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t a = from_double(dist(rng), s);
      const std::uint32_t b = from_double(dist(rng), s);
      q.add_product(a, b);
      reference += to_double(a, s) * to_double(b, s);
    }
    ASSERT_EQ(q.to_posit(), from_double(reference, s)) << s.to_string() << " trial " << trial;
  }
}

TEST_P(QuireFormatTest, LongAccumulationDoesNotOverflow) {
  const PositSpec s = spec();
  Quire q(s);
  const std::uint32_t one = from_double(1.0, s);
  const int kCount = 100000;
  for (int i = 0; i < kCount; ++i) q.add_product(one, one);
  EXPECT_DOUBLE_EQ(q.to_double(), static_cast<double>(kCount));
  // Rounded posit result saturates at maxpos if the count exceeds it.
  const double expected = std::min(static_cast<double>(kCount), maxpos_value(s));
  EXPECT_DOUBLE_EQ(to_double(q.to_posit(), s), to_double(from_double(expected, s), s));
}

TEST_P(QuireFormatTest, NarPoisonsTheQuire) {
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(from_double(1.0, s), s.nar_code());
  EXPECT_TRUE(q.is_nar());
  EXPECT_EQ(q.to_posit(), s.nar_code());
  q.clear();
  EXPECT_FALSE(q.is_nar());
  EXPECT_TRUE(q.is_zero());
}

TEST_P(QuireFormatTest, QuireBeatsSerialRoundingOnCancellation) {
  // sum_i (x - x) interleaved as +x, +x, ..., -x, -x: serial posit
  // accumulation of large then small terms loses the small ones; the quire
  // recovers the exact answer.
  const PositSpec s = spec();
  const std::uint32_t big = from_double(maxpos_value(s) / 2, s);
  const std::uint32_t small = s.minpos_code();
  Quire q(s);
  q.add_posit(big);
  q.add_posit(small);
  q.add_posit(neg(big, s));
  EXPECT_EQ(q.to_posit(), small) << "quire preserves the small term";

  std::uint32_t serial = add(big, small, s);
  serial = add(serial, neg(big, s), s);
  EXPECT_NE(serial, small) << "serial rounding drops the small term (sanity)";
}

TEST_P(QuireFormatTest, UnpackedAddProductMatchesCodedAccumulation) {
  // Decode-once accumulation must land in exactly the same register state as
  // the coded path: same rounded posit after any mixed-sign sequence.
  const PositSpec s = spec();
  std::mt19937_64 rng(37);
  for (int trial = 0; trial < 500; ++trial) {
    Quire coded(s), unpacked(s);
    for (int i = 0; i < 48; ++i) {
      std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
      std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
      if (a == s.nar_code()) a = 0;
      if (b == s.nar_code()) b = 0;
      coded.add_product(a, b);
      unpacked.add_product(decode_unpacked(a, s), decode_unpacked(b, s));
    }
    ASSERT_EQ(unpacked.to_posit(), coded.to_posit()) << s.to_string() << " trial " << trial;
    ASSERT_DOUBLE_EQ(unpacked.to_double(), coded.to_double());
  }
}

TEST_P(QuireFormatTest, AccumulateDotMatchesSequentialAddProduct) {
  // The batched carry-save dot must leave the register in exactly the state
  // `count` sequential deposits would — including zeros, extreme scales, and
  // heavy cancellation.
  const PositSpec s = spec();
  std::mt19937_64 rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Unpacked> a, b;
    Quire sequential(s);
    for (int i = 0; i < 96; ++i) {
      std::uint32_t ca = static_cast<std::uint32_t>(rng()) & s.mask();
      std::uint32_t cb = static_cast<std::uint32_t>(rng()) & s.mask();
      if (ca == s.nar_code()) ca = 0;
      if (cb == s.nar_code()) cb = 0;
      a.push_back(decode_unpacked(ca, s));
      b.push_back(decode_unpacked(cb, s));
      sequential.add_product(ca, cb);
    }
    Quire batched(s);
    batched.accumulate_dot(a.data(), b.data(), a.size());
    ASSERT_EQ(batched.to_posit(), sequential.to_posit()) << s.to_string() << " trial " << trial;
    ASSERT_DOUBLE_EQ(batched.to_double(), sequential.to_double());
  }
  // NaR operands poison the batched path too.
  const Unpacked nar = decode_unpacked(s.nar_code(), s);
  const Unpacked one = decode_unpacked(from_double(1.0, s), s);
  Quire q(s);
  q.accumulate_dot(&nar, &one, 1);
  EXPECT_TRUE(q.is_nar());
}

TEST_P(QuireFormatTest, UnpackedNarPoisonsLikeCoded) {
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(decode_unpacked(from_double(1.0, s), s), decode_unpacked(s.nar_code(), s));
  EXPECT_TRUE(q.is_nar());
  EXPECT_EQ(q.to_posit(), s.nar_code());
  // NaR * zero is still NaR (matches the coded ordering of the checks).
  q.clear();
  q.add_product(decode_unpacked(s.nar_code(), s), decode_unpacked(0u, s));
  EXPECT_TRUE(q.is_nar());
}

INSTANTIATE_TEST_SUITE_P(FormatSweep, QuireFormatTest,
                         ::testing::Values(std::pair{8, 0}, std::pair{8, 1}, std::pair{8, 2}, std::pair{16, 1},
                                           std::pair{16, 2}, std::pair{32, 3}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "_" + std::to_string(info.param.second);
                         });

// ---------------------------------------------------------------------------
// The exact-quire lane kernel
// ---------------------------------------------------------------------------

/// Every spec the lane kernel covers: the engine's (8,0), (8,1), (8,2),
/// (16,0) and (16,1), plus (5,1) (one limb) and (12,1) (three limbs, run as
/// four).
const std::vector<PositSpec>& lane_specs() {
  static const std::vector<PositSpec> specs = {{5, 1}, {8, 0}, {8, 1}, {8, 2},
                                               {12, 1}, {16, 0}, {16, 1}};
  return specs;
}

using Codes = std::vector<std::uint32_t>;

/// One dot product: activation row `a` against weight row `w`.
struct Stream {
  std::string name;
  Codes a, w;
};

std::vector<Unpacked> unpack(const Codes& codes, const PositSpec& s) {
  std::vector<Unpacked> out(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) out[i] = decode_unpacked(codes[i], s);
  return out;
}

/// The oracle: the quire's rounded dot of a and w.
std::uint32_t quire_code(const Codes& a, const Codes& w, const PositSpec& s) {
  const std::vector<Unpacked> ua = unpack(a, s), uw = unpack(w, s);
  Quire q(s);
  q.accumulate_dot(ua.data(), uw.data(), ua.size());
  return q.to_posit();
}

Codes gaussian_row(std::size_t k, const PositSpec& s, std::mt19937_64& rng, double sigma,
                   bool relu) {
  std::normal_distribution<double> dist(0.0, sigma);
  Codes row(k);
  for (auto& c : row) {
    const double x = dist(rng);
    c = from_double(relu && x < 0.0 ? 0.0 : x, s);
  }
  return row;
}

bool holds_nar(const Codes& row, const PositSpec& s) {
  return std::find(row.begin(), row.end(), s.nar_code()) != row.end();
}

/// One k-major row tile of the quire lane kernel (tile[i * kLanes + l] =
/// term i of row l) from `nrows` <= kLanes contiguous operand rows of length
/// k, the missing lanes zero rows; bit l of the result set when row l holds
/// a NaR.
unsigned quire_tile(const Unpacked* rows, std::size_t nrows, std::size_t k, const PositSpec& s,
                    std::int64_t* tile) {
  unsigned nar = 0;
  for (std::size_t l = 0; l < simd::kLanes; ++l) {
    for (std::size_t i = 0; i < k; ++i) {
      const bool real = l < nrows;
      tile[i * simd::kLanes + l] = real ? simd::quire_lane_operand(rows[l * k + i], s) : 0;
      if (real && rows[l * k + i].is_nar()) nar |= 1u << l;
    }
  }
  return nar;
}

/// The spans of `count` consecutive row tiles of k terms: each tile's
/// quire_span, or, when `whole`, the whole offset range [0, 2 max_scale],
/// which holds every operand and sends each tile the window rule rejects
/// for that range to the limbs.
std::vector<simd::QuireSpan> tile_spans(const std::int64_t* tiles, std::size_t count,
                                        std::size_t k, const PositSpec& s, bool whole) {
  std::vector<simd::QuireSpan> spans(count);
  for (std::size_t t = 0; t < count; ++t) {
    spans[t] = whole ? simd::QuireSpan{0, 2 * s.max_scale()}
                     : simd::quire_span(tiles + t * simd::kLanes * k, simd::kLanes * k);
  }
  return spans;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}


/// The lane kernel over `st` at each of the eight lane positions of two row
/// tiles, without a bias and with a Gaussian one, each tile once on its own
/// span (the 64-bit window where the window rule admits it) and once on the
/// whole offset range (the limbs where the rule rejects that). Every other
/// lane holds a different row against the same weight row — the stream's
/// row negated, reversed, Gaussian or all zero, NaR-free — so each stream
/// meets different neighbours in every position. Each tile's NaR mask must
/// flag exactly the rows holding a NaR, and every other lane must carry the
/// exact double of the quire's code for its own row (or of add(code,
/// bias)), bit for bit.
void check_lanes(const Stream& st, const PositSpec& s) {
  constexpr std::size_t kRows = 2 * simd::kLanes;
  const std::size_t k = st.a.size();
  ASSERT_EQ(st.w.size(), k);
  std::mt19937_64 rng((static_cast<std::uint64_t>(s.n) << 8) ^ static_cast<std::uint64_t>(s.es) ^
                      (k << 16));
  Codes clean = st.a;
  std::replace(clean.begin(), clean.end(), s.nar_code(), 0u);
  Codes negated(k);
  for (std::size_t i = 0; i < k; ++i) negated[i] = neg(clean[i], s);
  const Codes reversed(clean.rbegin(), clean.rend());
  const Codes gauss = gaussian_row(k, s, rng, 1.0, false);
  const Codes zeros(k, 0u);
  const std::uint32_t bias = gaussian_row(1, s, rng, 1.0, false)[0];
  const double bvalue = to_double(bias, s);
  const std::vector<const Codes*> fillers = {&negated, &reversed, &gauss, &zeros};
  std::map<const Codes*, std::uint32_t> want;
  want[&st.a] = quire_code(st.a, st.w, s);
  for (const Codes* row : fillers) want[row] = quire_code(*row, st.w, s);

  const std::vector<Unpacked> uw = unpack(st.w, s);
  std::vector<std::int64_t> w(k);
  EXPECT_EQ(simd::fill_quire_row(uw.data(), k, s, w.data()), holds_nar(st.w, s));
  std::vector<Unpacked> ops(kRows * k);
  std::vector<std::int64_t> tiles(kRows * k);
  for (std::size_t pos = 0; pos < kRows; ++pos) {
    const Codes* rows[kRows];
    for (std::size_t r = 0; r < kRows; ++r) {
      rows[r] = r == pos ? &st.a : fillers[(r + pos) % fillers.size()];
      for (std::size_t i = 0; i < k; ++i) ops[r * k + i] = decode_unpacked((*rows[r])[i], s);
    }
    const std::size_t tile = simd::kLanes * k;
    const unsigned nar =
        quire_tile(ops.data(), simd::kLanes, k, s, tiles.data()) |
        quire_tile(ops.data() + tile, simd::kLanes, k, s, tiles.data() + tile) << simd::kLanes;
    for (const bool whole : {false, true}) {
      const std::vector<simd::QuireSpan> spans = tile_spans(tiles.data(), 2, k, s, whole);
      for (const bool biased : {false, true}) {
        double got[kRows];
        simd::quire_lanes_avx2(tiles.data(), 2, spans.data(), w.data(), k, s,
                               biased ? &bvalue : nullptr, got);
        for (std::size_t r = 0; r < kRows; ++r) {
          const bool row_nar = holds_nar(*rows[r], s);
          EXPECT_EQ(((nar >> r) & 1u) != 0, row_nar)
              << s.to_string() << " " << st.name << " row " << r;
          if (row_nar) continue;
          const std::uint32_t code = want[rows[r]];
          const double expect = to_double(biased ? add(code, bias, s) : code, s);
          if (bits_of(got[r]) != bits_of(expect)) {
            ADD_FAILURE() << s.to_string() << " " << st.name << " k " << k << " lane pos " << pos
                          << " row " << r << (biased ? " with bias" : "")
                          << (whole ? " on the whole span" : " on the tile's span") << ": got "
                          << got[r] << " want " << expect << " (code " << code << ")";
            return;
          }
        }
      }
    }
  }
}

#define REQUIRE_QUIRE_LANES() \
  if (!simd::enabled()) GTEST_SKIP() << "no AVX2 quire lane kernel on this host"

TEST(QuireLanes, DomainCoversTheEngineFormatsUpToTheTermBound) {
  for (const PositSpec& s : lane_specs()) {
    EXPECT_TRUE(simd::quire_lanes_supported(s, 1)) << s.to_string();
    EXPECT_TRUE(simd::quire_lanes_supported(s, simd::kQuireLanesMaxTerms)) << s.to_string();
    // Past the bound the engine falls back to Quire.
    EXPECT_FALSE(simd::quire_lanes_supported(s, simd::kQuireLanesMaxTerms + 1)) << s.to_string();
    EXPECT_LE(simd::quire_lane_limbs(s), 4);
  }
  EXPECT_EQ(simd::quire_lane_limbs({8, 0}), 1);
  EXPECT_EQ(simd::quire_lane_limbs({8, 1}), 2);
  EXPECT_EQ(simd::quire_lane_limbs({12, 1}), 3);
  EXPECT_EQ(simd::quire_lane_limbs({16, 1}), 4);
  EXPECT_EQ(simd::quire_lanes_flush({16, 1}), 32u);
  EXPECT_EQ(simd::kQuireLanesMaxTerms, std::size_t{1} << 30);  // Quire's default guard
  for (const PositSpec s : {PositSpec{16, 2}, PositSpec{20, 1}, PositSpec{32, 2}}) {
    EXPECT_FALSE(simd::quire_lanes_supported(s, 1)) << s.to_string();
  }
}

TEST(QuireLanes, OperandFillsMatchTheScalarForm) {
  // fill_quire_row converts four operands per AVX2 vector (then a scalar
  // tail): every operand must equal quire_lane_operand, and the NaR flag
  // the row's NaRs, on both paths.
  for (const PositSpec& s : lane_specs()) {
    std::mt19937_64 rng(53 + s.n * 8 + s.es);
    const std::size_t k = 39;
    Codes codes(simd::kLanes * k);
    for (auto& c : codes) {
      c = static_cast<std::uint32_t>(rng()) & s.mask();
      if (c == s.nar_code()) c = s.maxpos_code();
    }
    codes[5] = 0;
    codes[2 * k + 17] = s.nar_code();  // row 2, inside the vectorized head
    codes[3 * k + 37] = s.nar_code();  // row 3, in the scalar tail
    const std::vector<Unpacked> ops = unpack(codes, s);
    for (const bool scalar : {false, true}) {
      simd::force_disable(scalar);
      std::vector<std::int64_t> row(k);
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        EXPECT_EQ(simd::fill_quire_row(ops.data() + l * k, k, s, row.data()), l >= 2);
        for (std::size_t i = 0; i < k; ++i) {
          const std::int64_t want = simd::quire_lane_operand(ops[l * k + i], s);
          ASSERT_EQ(row[i], want) << s.to_string() << " row " << l << " term " << i;
        }
      }
    }
    simd::force_disable(false);
  }
}

TEST(QuireLanes, GaussianAndReluStreamsMatchTheQuire) {
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    std::mt19937_64 rng(101 + s.n * 8 + s.es);
    for (const std::size_t k : {1, 27, 144, 576}) {
      check_lanes({"gaussian", gaussian_row(k, s, rng, 1.0, false),
                   gaussian_row(k, s, rng, 0.3, false)},
                  s);
      check_lanes({"relu", gaussian_row(k, s, rng, 1.0, true), gaussian_row(k, s, rng, 0.3, false)},
                  s);
    }
  }
}

TEST(QuireLanes, MaxposAndMinposRunsMatchTheQuire) {
  // Runs at both ends of the register: maxpos^2 terms land in the top limb
  // (the sums saturate), minpos^2 terms at bit 0 of the bottom one. Signs
  // flip between runs, so sums climb, cancel and cross zero.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    const std::uint32_t big = s.maxpos_code(), tiny = s.minpos_code();
    for (const std::size_t k : {1, 7, 64, 200}) {
      Stream maxpos{"maxpos runs", Codes(k), Codes(k, big)};
      Stream minpos{"minpos runs", Codes(k, tiny), Codes(k)};
      for (std::size_t i = 0; i < k; ++i) {
        const bool flip = (i / 5) % 3 == 2;
        maxpos.a[i] = flip ? neg(big, s) : big;
        minpos.w[i] = flip ? neg(tiny, s) : tiny;
      }
      check_lanes(maxpos, s);
      check_lanes(minpos, s);
      check_lanes({"maxpos run", Codes(k, big), Codes(k, big)}, s);
      EXPECT_EQ(quire_code(Codes(k, big), Codes(k, big), s), big);
      check_lanes({"minpos run", Codes(k, tiny), Codes(k, neg(tiny, s))}, s);
    }
  }
}

TEST(QuireLanes, TopLimbSaturationThresholdMatchesTheQuire) {
  // With four limbs the kernel rounds a top limb outside 32 bits straight
  // to +-maxpos: the 128-bit fold would overflow there. maxpos^2 adds
  // 2^(4 max_scale - 96) to that limb, so (16,1) leaves 32 bits at 2^15
  // maxpos^2 terms (-2^31, at that count negated, still fits); every count
  // around it, either sign, must round as the quire does (to +-maxpos).
  REQUIRE_QUIRE_LANES();
  const PositSpec s{16, 1};
  const std::size_t threshold = std::size_t{1} << (31 - (4 * s.max_scale() - 96));
  ASSERT_EQ(threshold, 32768u);
  const std::uint32_t big = s.maxpos_code();
  for (const std::size_t k : {threshold - 1, threshold, threshold + 1}) {
    check_lanes({"maxpos^2 past the top limb", Codes(k, big), Codes(k, big)}, s);
    check_lanes({"-maxpos^2 past the top limb", Codes(k, neg(big, s)), Codes(k, big)}, s);
    EXPECT_EQ(quire_code(Codes(k, neg(big, s)), Codes(k, big), s), neg(big, s));
  }
}

TEST(QuireLanes, MixedSignCancellationToExactZero) {
  // Every product appears twice, once negated (through either operand), in
  // shuffled order: the exact sum is zero, whatever the magnitudes.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    std::mt19937_64 rng(211 + s.n * 8 + s.es);
    for (const std::size_t half : {1, 16, 100}) {
      Stream st{"cancellation", {}, {}};
      for (std::size_t i = 0; i < half; ++i) {
        std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
        std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
        if (a == s.nar_code()) a = s.maxpos_code();
        if (b == s.nar_code()) b = s.minpos_code();
        st.a.push_back(a);
        st.w.push_back(b);
        st.a.push_back(i % 2 == 0 ? neg(a, s) : a);
        st.w.push_back(i % 2 == 0 ? b : neg(b, s));
      }
      std::vector<std::size_t> order(st.a.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      Stream shuffled{st.name, {}, {}};
      for (const std::size_t i : order) {
        shuffled.a.push_back(st.a[i]);
        shuffled.w.push_back(st.w[i]);
      }
      ASSERT_EQ(quire_code(shuffled.a, shuffled.w, s), 0u) << s.to_string();
      check_lanes(shuffled, s);
    }
  }
}

TEST(QuireLanes, ExactTiesRoundToTheEvenCode) {
  // c * 1 + (ulp(c) / 2) * 1 sits exactly halfway between codes c and c + 1
  // (c with fraction bits, so its grid is the fraction's); cancelling pairs
  // around it lengthen the dot without moving the sum. Both parities of c:
  // the sum must round to the even code, as the quire does. A minpos^2 term
  // more or less breaks the tie: up to c + 1, down to c. Where c sits 8+
  // binades above 1 in (16,1) that term lies more than 64 bits below the
  // sum's MSB, so only the sticky bit of the rounding carries it.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    std::mt19937_64 rng(307 + s.n * 8 + s.es);
    const std::uint32_t one = from_double(1.0, s);
    const std::uint32_t tiny = s.minpos_code();
    int ties[2] = {0, 0};  // by the parity of c
    int sticky = 0;        // near-ties that need the sticky bit
    for (int trial = 0; trial < 20000 && ties[0] + ties[1] < 48; ++trial) {
      // Every code of the small formats in turn, random ones above n = 8.
      const std::uint32_t c = s.n <= 8 ? static_cast<std::uint32_t>(trial + 1)
                                       : 1u + static_cast<std::uint32_t>(rng() % (s.maxpos_code() - 1));
      if (c >= s.maxpos_code()) break;
      const Decoded d = decode(c, s);
      if (d.frac_width < 1) continue;
      const double half_ulp = std::ldexp(1.0, d.scale - d.frac_width - 1);
      const std::uint32_t h = from_double(half_ulp, s);
      if (to_double(h, s) != half_ulp) continue;  // below minpos: not a posit
      Stream st{"tie", {c, h}, {one, one}};
      for (int pad = 0; pad < 6; ++pad) {
        std::uint32_t x = static_cast<std::uint32_t>(rng()) & s.mask();
        if (x == s.nar_code()) x = 0;
        st.a.insert(st.a.begin() + pad, {x, x});
        st.w.insert(st.w.begin() + pad, {one, neg(one, s)});
      }
      const std::uint32_t even = (c & 1u) == 0 ? c : c + 1;
      ASSERT_EQ(quire_code(st.a, st.w, s), even) << s.to_string() << " code " << c;
      check_lanes(st, s);
      for (const bool up : {true, false}) {
        Stream near{up ? "tie + minpos^2" : "tie - minpos^2", st.a, st.w};
        near.a.push_back(tiny);
        near.w.push_back(up ? tiny : neg(tiny, s));
        ASSERT_EQ(quire_code(near.a, near.w, s), up ? c + 1 : c) << s.to_string() << " code " << c;
        check_lanes(near, s);
      }
      if (d.scale - 2 * s.min_scale() >= 64) ++sticky;
      ++ties[c & 1u];
    }
    EXPECT_GE(ties[0], 1) << s.to_string();
    EXPECT_GE(ties[1], 1) << s.to_string();
    if (s == PositSpec{16, 1}) {
      EXPECT_GE(sticky, 1) << "no near-tie reached the sticky bit";
    }
  }
}

// ---------------------------------------------------------------------------
// The kernel's rounding epilogue: sign and magnitude across the limbs, the
// two highest chunks plus a sticky bit, the tie rule, the saturation bands
// ---------------------------------------------------------------------------

/// Codes x, y of two powers of two with x * y == 2^e exactly, or false when
/// no split of 2^e into two posit powers of two exists.
bool pow2_product(int e, const PositSpec& s, std::uint32_t* x, std::uint32_t* y) {
  const auto exact = [&](int p, std::uint32_t* code) {
    if (p < s.min_scale() || p > s.max_scale()) return false;
    *code = from_double(std::ldexp(1.0, p), s);
    return to_double(*code, s) == std::ldexp(1.0, p);
  };
  for (int p = s.min_scale(); p <= s.max_scale(); ++p) {
    if (exact(p, x) && exact(e - p, y)) return true;
  }
  return false;
}

TEST(QuireLanes, TiesBrokenAtEveryBitBelowTheRoundingBit) {
  // c + ulp(c) / 2 is an exact tie; a term of 2^(2 min_scale + b) more or
  // less breaks it, up to c + 1 or down to c, for every bit b below the
  // rounding bit. Where b falls into the low chunk the kernel keeps, its
  // bits decide; further down only the sticky bit carries the term. Codes c
  // spread over the scales put the sum's top chunk in every limb.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    const std::uint32_t one = from_double(1.0, s);
    const int unit = 2 * s.min_scale();
    int by_low_chunk = 0, by_sticky = 0;
    const std::uint32_t step = std::max<std::uint32_t>(1, s.maxpos_code() / 40);
    for (std::uint32_t c = 1; c < s.maxpos_code(); c += step) {
      const Decoded d = decode(c, s);
      if (d.frac_width < 1) continue;
      const int half_bit = d.scale - d.frac_width - 1 - unit;  // ulp(c) / 2, in units
      std::uint32_t hx, hy;
      if (!pow2_product(half_bit + unit, s, &hx, &hy)) continue;
      const Stream tie{"tie", {c, hx}, {one, hy}};
      const std::uint32_t even = (c & 1u) == 0 ? c : c + 1;
      ASSERT_EQ(quire_code(tie.a, tie.w, s), even) << s.to_string() << " code " << c;
      check_lanes(tie, s);
      const int top_chunk = (d.scale - unit) / 32;
      for (int b = 0; b < half_bit; ++b) {
        std::uint32_t bx, by;
        if (!pow2_product(b + unit, s, &bx, &by)) continue;
        for (const bool up : {true, false}) {
          const Stream near{up ? "tie + 2^b" : "tie - 2^b", {c, hx, bx},
                            {one, hy, up ? by : neg(by, s)}};
          ASSERT_EQ(quire_code(near.a, near.w, s), up ? c + 1 : c)
              << s.to_string() << " code " << c << " b " << b;
          check_lanes(near, s);
        }
        ++(b / 32 + 1 >= top_chunk ? by_low_chunk : by_sticky);
      }
    }
    EXPECT_GE(by_low_chunk, 1) << s.to_string();
    // Only (16,1) has codes with fraction bits whose top bit reaches chunk
    // 2, above a whole chunk of sticky bits.
    if (s == PositSpec{16, 1}) {
      EXPECT_GE(by_sticky, 1) << s.to_string() << ": no tie reached the sticky bit";
    }
  }
}

TEST(QuireLanes, SumsAroundMaxposSaturate) {
  // Around maxpos the posit grid thins out (truncated exponent bits) and
  // past it every sum saturates: the halfway point of the last two codes,
  // a minpos^2 either side of it, maxpos plus a little and twice maxpos,
  // both signs, must round as the quire does.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    const std::uint32_t one = from_double(1.0, s), half = from_double(0.5, s);
    const std::uint32_t big = s.maxpos_code(), prev = big - 1, tiny = s.minpos_code();
    ASSERT_EQ(to_double(half, s), 0.5);
    for (const std::uint32_t sign : {one, neg(one, s)}) {
      const std::uint32_t hs = sign == one ? half : neg(half, s);
      check_lanes({"halfway below maxpos", {big, prev}, {hs, hs}}, s);
      check_lanes({"halfway + minpos^2", {big, prev, tiny}, {hs, hs, sign == one ? tiny : neg(tiny, s)}},
                  s);
      check_lanes({"halfway - minpos^2", {big, prev, tiny}, {hs, hs, sign == one ? neg(tiny, s) : tiny}},
                  s);
      check_lanes({"maxpos + minpos^2", {big, tiny}, {sign, sign == one ? tiny : neg(tiny, s)}}, s);
      check_lanes({"maxpos + prev", {big, prev}, {sign, sign}}, s);
      check_lanes({"twice maxpos", {big, big}, {sign, sign}}, s);
      const std::uint32_t twice = quire_code({big, big}, {sign, sign}, s);
      EXPECT_EQ(twice, sign == one ? big : neg(big, s)) << s.to_string();
    }
  }
}

TEST(QuireLanes, SumsBelowMinposRoundToMinposNotZero) {
  // A non-zero sum never rounds to zero: minpos^2, a few of them, and
  // minpos / 2 (halfway to zero) round to +-minpos, the sign kept.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    const std::uint32_t tiny = s.minpos_code(), half = from_double(0.5, s);
    for (const bool negative : {false, true}) {
      const std::uint32_t t = negative ? neg(tiny, s) : tiny;
      const std::uint32_t want = negative ? neg(tiny, s) : tiny;
      const std::vector<Stream> streams = {
          {"minpos^2", {tiny}, {t}},
          {"5 minpos^2", Codes(5, tiny), Codes(5, t)},
          {"minpos / 2", {half}, {t}},
          {"minpos / 2 + minpos^2", {half, tiny}, {t, t}},
      };
      for (const Stream& st : streams) {
        EXPECT_EQ(quire_code(st.a, st.w, s), want) << s.to_string() << " " << st.name;
        check_lanes(st, s);
      }
    }
  }
}

TEST(QuireLanes, NegativeSumsBorrowAcrossEveryLimb) {
  // -2^(32 j) + 1 and -1 in units of minpos^2: a negative sum whose
  // magnitude is all ones over every chunk below 32 j, so negating it
  // borrows across every limb; -2^(32 j) - 1 and -2^(32 j) beside them,
  // and the positive mirror images, at every chunk boundary a product
  // reaches.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    const int unit = 2 * s.min_scale();
    const std::uint32_t tiny = s.minpos_code();
    int boundaries = 0;
    check_lanes({"-1 unit", {tiny}, {neg(tiny, s)}}, s);
    for (int j = 1; 32 * j <= 2 * (s.max_scale() - s.min_scale()); ++j) {
      std::uint32_t x, y;
      if (!pow2_product(32 * j + unit, s, &x, &y)) continue;
      ++boundaries;
      for (const bool negative : {true, false}) {
        const std::uint32_t ny = negative ? neg(y, s) : y;
        const std::uint32_t t = negative ? tiny : neg(tiny, s);
        check_lanes({"-+2^(32 j) +- 1", {x, tiny}, {ny, t}}, s);
        check_lanes({"-+2^(32 j) -+ 1", {x, tiny}, {ny, neg(t, s)}}, s);
        check_lanes({"-+2^(32 j)", {x}, {ny}}, s);
        const std::uint32_t code = quire_code({x, tiny}, {ny, t}, s);
        EXPECT_EQ((code & s.sign_bit()) != 0, negative) << s.to_string() << " j " << j;
      }
    }
    // One limb ((5,1), (8,0)) has no boundary between limbs to borrow across.
    EXPECT_EQ(boundaries >= 1, simd::quire_lane_limbs(s) >= 2) << s.to_string();
  }
}

TEST(QuireLanes, CarryPassBoundariesMatchTheQuire) {
  // k = F - 1, F, F + 1 (F = terms between carry passes), 2F + 1 and
  // 4F + 1, with
  // the largest chunk a term can add: full-width significands as high in
  // their limb as the format puts them, all one sign — the stream that drives a limb closest to
  // 2^63 before its pass. The 8-bit and (5,1) formats pass every 2^19+
  // terms: no dot here reaches one, so they run k = 1 and Gaussian rows.
  REQUIRE_QUIRE_LANES();
  int covered = 0;
  for (const PositSpec& s : lane_specs()) {
    const std::size_t f = simd::quire_lanes_flush(s);
    std::mt19937_64 rng(401 + s.n * 8 + s.es);
    if (f > 8192) {
      check_lanes({"k = 1", gaussian_row(1, s, rng, 1.0, false), gaussian_row(1, s, rng, 1.0, false)},
                  s);
      continue;
    }
    // The pair of full-width operands whose product sits highest in its
    // limb (bit 31 where the format reaches it), the largest such product.
    const int width = s.n - 2 - s.es;
    std::vector<Unpacked> full;
    std::vector<std::uint32_t> full_codes;
    for (std::uint32_t c = 1; c < s.maxpos_code(); ++c) {
      const Unpacked u = decode_unpacked(c, s);
      if (32 - __builtin_clz(u.sig) == width) {
        full.push_back(u);
        full_codes.push_back(c);
      }
    }
    std::uint32_t x = 0, y = 0;
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < full.size(); ++i) {
      for (std::size_t j = 0; j < full.size(); ++j) {
        const int bit = (full[i].lsb_weight + full[j].lsb_weight - 2 * s.min_scale()) % 32;
        const std::uint64_t chunk = (std::uint64_t{full[i].sig} * full[j].sig) << bit;
        if (chunk > best) {
          best = chunk;
          x = full_codes[i];
          y = full_codes[j];
        }
      }
    }
    ASSERT_NE(best, 0u) << s.to_string();
    for (const std::size_t k : {std::size_t{1}, f - 1, f, f + 1, 2 * f + 1, 4 * f + 1}) {
      check_lanes({"largest chunks", Codes(k, x), Codes(k, y)}, s);
      check_lanes({"largest chunks, negative", Codes(k, neg(x, s)), Codes(k, y)}, s);
      check_lanes({"gaussian", gaussian_row(k, s, rng, 1.0, false),
                   gaussian_row(k, s, rng, 1.0, false)},
                  s);
    }
    ++covered;
  }
  EXPECT_EQ(covered, 3);  // (12,1), (16,0), (16,1)
}

TEST(QuireLanes, NarInOneLaneOnly) {
  // A NaR operand flags its own row in the tile mask and leaves its lane's
  // neighbours exact; the weight row's NaR is fill_quire_row's to report.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    std::mt19937_64 rng(503 + s.n * 8 + s.es);
    for (const std::size_t k : {1, 9, 72}) {
      Stream st{"NaR", gaussian_row(k, s, rng, 1.0, false), gaussian_row(k, s, rng, 0.3, false)};
      st.a[k / 2] = s.nar_code();
      check_lanes(st, s);
    }
    Codes w = gaussian_row(5, s, rng, 1.0, false);
    w[2] = s.nar_code();
    const std::vector<Unpacked> uw = unpack(w, s);
    std::vector<std::int64_t> lanes(5);
    EXPECT_TRUE(simd::fill_quire_row(uw.data(), 5, s, lanes.data()));
    EXPECT_EQ(lanes[2], 0);
  }
}

TEST(QuireLanes, RaggedLastTileHasZeroLanes) {
  // 1-3 rows in the last tile: the missing lanes are zero rows (code 0)
  // and the real ones exact, in one- and two-tile calls.
  REQUIRE_QUIRE_LANES();
  for (const PositSpec& s : lane_specs()) {
    std::mt19937_64 rng(601 + s.n * 8 + s.es);
    const std::size_t k = 37;
    const Codes w = gaussian_row(k, s, rng, 0.3, false);
    const std::vector<Unpacked> uw = unpack(w, s);
    std::vector<std::int64_t> wl(k);
    simd::fill_quire_row(uw.data(), k, s, wl.data());
    for (std::size_t rows = 5; rows <= 7; ++rows) {
      std::vector<Codes> a;
      std::vector<Unpacked> ops;
      for (std::size_t r = 0; r < rows; ++r) {
        a.push_back(gaussian_row(k, s, rng, 1.0, r % 2 == 0));
        const std::vector<Unpacked> u = unpack(a.back(), s);
        ops.insert(ops.end(), u.begin(), u.end());
      }
      std::vector<std::int64_t> tiles(2 * simd::kLanes * k, -1);
      EXPECT_EQ(quire_tile(ops.data(), simd::kLanes, k, s, tiles.data()), 0u);
      EXPECT_EQ(quire_tile(ops.data() + simd::kLanes * k, rows - simd::kLanes, k, s,
                           tiles.data() + simd::kLanes * k),
                0u);
      double two[2 * simd::kLanes], one[simd::kLanes];
      const std::vector<simd::QuireSpan> spans = tile_spans(tiles.data(), 2, k, s, false);
      simd::quire_lanes_avx2(tiles.data(), 2, spans.data(), wl.data(), k, s, nullptr, two);
      simd::quire_lanes_avx2(tiles.data() + simd::kLanes * k, 1, spans.data() + 1, wl.data(), k, s,
                             nullptr, one);
      for (std::size_t r = 0; r < 2 * simd::kLanes; ++r) {
        const double want = to_double(r < rows ? quire_code(a[r], w, s) : 0u, s);
        EXPECT_EQ(bits_of(two[r]), bits_of(want)) << s.to_string() << " rows " << rows << " row " << r;
        if (r >= simd::kLanes) {
          EXPECT_EQ(bits_of(one[r - simd::kLanes]), bits_of(want))
              << s.to_string() << " one tile, row " << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The 64-bit window: a tile the window rule admits sums in one int64 per
// lane relative to its base, every other one on the limbs
// ---------------------------------------------------------------------------

/// Per operand offset o in [0, 2 max_scale]: the positive code of the
/// widest significand whose operand offset (lsb_weight - min_scale) is o,
/// or 0 when no posit has that offset.
std::vector<std::uint32_t> widest_by_offset(const PositSpec& s) {
  std::vector<std::uint32_t> code(2 * s.max_scale() + 1, 0u);
  std::vector<std::uint32_t> sig(code.size(), 0u);
  for (std::uint32_t c = 1; c <= s.maxpos_code(); ++c) {
    const Unpacked u = decode_unpacked(c, s);
    const auto o = static_cast<std::size_t>(u.lsb_weight - s.min_scale());
    if (u.sig > sig[o]) {
      sig[o] = u.sig;
      code[o] = c;
    }
  }
  return code;
}

/// A tile exactly at the window bound, D + 2s + ceil(log2 k) == 62, and
/// the same tile one bit wider. The tile's widest operand `hi` sits at
/// offset t_hi and its narrowest `lo` at t_lo (`lower` at t_lo - 1 for the
/// wider tile); the weight row holds `w_hi` at every term but term 1,
/// which holds `w_lo`. Among the splits of D, the one whose two top
/// operands have the widest significands: the sums reach as near 2^62
/// window units as the format lets them.
struct BoundCase {
  std::uint32_t hi = 0, lo = 0, lower = 0, w_hi = 0, w_lo = 0;
  int D = 0;
};

BoundCase bound_case(const PositSpec& s, std::size_t k) {
  const std::vector<std::uint32_t> at = widest_by_offset(s);
  const int top = 2 * s.max_scale();
  BoundCase best;
  best.D = 62 - 2 * (s.n - 2 - s.es) - simd::ceil_log2(k);
  std::uint64_t score = 0;
  for (int dt = 1; dt <= best.D; ++dt) {
    const int dw = best.D - dt;
    for (int th = dt + 1; th <= top; ++th) {
      for (int wh = dw; wh <= top; ++wh) {
        const std::uint32_t c[5] = {at[th], at[th - dt], at[th - dt - 1], at[wh], at[wh - dw]};
        if (std::find(std::begin(c), std::end(c), 0u) != std::end(c)) continue;
        const std::uint64_t sc =
            std::uint64_t{decode_unpacked(c[0], s).sig} * decode_unpacked(c[3], s).sig;
        if (sc > score) {
          score = sc;
          best = {c[0], c[1], c[2], c[3], c[4], best.D};
        }
      }
    }
  }
  return best;
}

/// One row tile of four code rows against w, run through the kernel with
/// the spans given, beside the oracle: each row's quire dot with its NaRs
/// read as zeros, without and with a bias.
void check_tile_rows(const std::vector<Codes>& rows, const Codes& w, const PositSpec& s,
                     const std::string& name) {
  const std::size_t tiles = rows.size() / simd::kLanes, k = w.size();
  std::vector<Unpacked> ops;
  for (const Codes& r : rows) {
    const std::vector<Unpacked> u = unpack(r, s);
    ops.insert(ops.end(), u.begin(), u.end());
  }
  std::vector<std::int64_t> tile(rows.size() * k);
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t at = t * simd::kLanes * k;
    quire_tile(ops.data() + at, simd::kLanes, k, s, tile.data() + at);
  }
  const std::vector<Unpacked> uw = unpack(w, s);
  std::vector<std::int64_t> wl(k);
  simd::fill_quire_row(uw.data(), k, s, wl.data());
  const std::vector<simd::QuireSpan> spans = tile_spans(tile.data(), tiles, k, s, false);
  const std::uint32_t bias = from_double(-0.75, s);
  const double bvalue = to_double(bias, s);
  for (const bool biased : {false, true}) {
    std::vector<double> got(rows.size());
    simd::quire_lanes_avx2(tile.data(), tiles, spans.data(), wl.data(), k, s,
                           biased ? &bvalue : nullptr, got.data());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      Codes clean = rows[r];
      std::replace(clean.begin(), clean.end(), s.nar_code(), 0u);
      const std::uint32_t code = quire_code(clean, w, s);
      const double want = to_double(biased ? add(code, bias, s) : code, s);
      EXPECT_EQ(bits_of(got[r]), bits_of(want))
          << s.to_string() << " " << name << " k " << k << " row " << r
          << (biased ? " with bias" : "") << ": got " << got[r] << " want " << want;
    }
  }
}

/// The window rule's specs: the engine's (8,1), (16,0) and (16,1), with a
/// dot length each that puts the bound inside the offsets the format has.
const std::vector<std::pair<PositSpec, std::size_t>>& window_cases() {
  static const std::vector<std::pair<PositSpec, std::size_t>> cases = {
      {{8, 1}, 128}, {{16, 0}, 16}, {{16, 1}, 1024}};
  return cases;
}

TEST(QuireWindow, TheRuleIsTheProvenBoundAndEmptySpansSumAtBaseZero) {
  const PositSpec s{16, 1};  // s = 13 significand bits per operand
  EXPECT_EQ(simd::ceil_log2(1), 0);
  EXPECT_EQ(simd::ceil_log2(2), 1);
  EXPECT_EQ(simd::ceil_log2(3), 2);
  EXPECT_EQ(simd::ceil_log2(1024), 10);
  EXPECT_EQ(simd::ceil_log2(1025), 11);
  // D + 26 + ceil(log2 k) <= 62.
  EXPECT_TRUE(simd::quire_window_fits(s, {4, 17}, {8, 17}, 1024));   // D = 22
  EXPECT_TRUE(simd::quire_window_fits(s, {4, 17}, {4, 17}, 1024));   // D = 26
  EXPECT_FALSE(simd::quire_window_fits(s, {3, 17}, {4, 17}, 1024));  // D = 27
  EXPECT_FALSE(simd::quire_window_fits(s, {4, 17}, {4, 17}, 1025));  // one more term bit
  EXPECT_TRUE(simd::quire_window_fits(s, {0, 36}, {0, 0}, 1));
  EXPECT_FALSE(simd::quire_window_fits(s, {0, 37}, {0, 0}, 1));
  EXPECT_EQ(simd::quire_window_base({4, 17}, {8, 17}), 12);
  // An all-zero tile or weight row: the sum is 0, at base 0, whatever the
  // other span.
  const simd::QuireSpan empty;
  EXPECT_TRUE(empty.empty());
  for (const simd::QuireSpan other :
       {simd::QuireSpan{}, simd::QuireSpan{0, 56}, simd::QuireSpan{40, 50}}) {
    EXPECT_TRUE(simd::quire_window_fits(s, empty, other, 1024));
    EXPECT_TRUE(simd::quire_window_fits(s, other, empty, 1024));
    EXPECT_EQ(simd::quire_window_base(empty, other), 0);
    EXPECT_EQ(simd::quire_window_base(other, empty), 0);
  }
  // quire_span leaves zero operands (and NaR, which reads as zero) out.
  const std::int64_t ops[] = {0, (std::int64_t{9} << 32) | 5, 0,
                              (std::int64_t{3} << 32) | 0xFFFFFFFF, 0};
  const simd::QuireSpan sp = simd::quire_span(ops, 5);
  EXPECT_EQ(sp.lo, 3);
  EXPECT_EQ(sp.hi, 9);
  EXPECT_TRUE(simd::quire_span(ops, 1).empty());
  EXPECT_TRUE(simd::quire_span(ops, 0).empty());
}

TEST(QuireWindow, TilesAtTheBoundSumInTheWindowAndOneBitWiderOnTheLimbs) {
  // Per spec a tile exactly at the bound (D + 2s + ceil(log2 k) == 62) and
  // the same tile one bit wider. Lane 0 sums hi * w_hi over every term but
  // one — at (16,1) within 2^-9 of 2^62 window units — lane 2 the same
  // negated; lane 1 mixes zeros, a NaR (read as zero) and the tile's lo,
  // lane 3 hi, zeros and -lo in turn. In one call of eight tiles: the bound
  // tile in two lane orders, the wider tile, all-zero tiles — so window
  // tiles run four, two and one at a time beside the limb tile.
  REQUIRE_QUIRE_LANES();
  for (const auto& [s, k] : window_cases()) {
    const BoundCase b = bound_case(s, k);
    ASSERT_NE(b.hi, 0u) << s.to_string();
    const std::uint32_t nar = s.nar_code();
    Codes w(k, b.w_hi);
    w[1] = b.w_lo;
    const auto rows_with = [&](std::uint32_t lo) {
      std::vector<Codes> rows(simd::kLanes, Codes(k, 0u));
      for (std::size_t i = 0; i < k; ++i) {
        rows[0][i] = b.hi;
        rows[2][i] = neg(b.hi, s);
        rows[3][i] = i % 3 == 0 ? b.hi : i % 3 == 1 ? 0u : neg(lo, s);
      }
      rows[1][0] = lo;
      rows[1][2] = nar;
      rows[1][3] = b.hi;
      return rows;
    };
    const std::vector<Codes> bound = rows_with(b.lo), wider = rows_with(b.lower);

    // The spans the kernel reads, and the rule's verdict on each tile.
    const auto span_of = [&](const std::vector<Codes>& rows) {
      std::vector<Unpacked> ops;
      for (const Codes& r : rows) {
        const std::vector<Unpacked> u = unpack(r, s);
        ops.insert(ops.end(), u.begin(), u.end());
      }
      std::vector<std::int64_t> tile(simd::kLanes * k);
      quire_tile(ops.data(), simd::kLanes, k, s, tile.data());
      return simd::quire_span(tile.data(), tile.size());
    };
    const std::vector<Unpacked> uw = unpack(w, s);
    std::vector<std::int64_t> wl(k);
    simd::fill_quire_row(uw.data(), k, s, wl.data());
    const simd::QuireSpan ws = simd::quire_span(wl.data(), k), ts = span_of(bound);
    const int width = s.n - 2 - s.es;
    EXPECT_EQ((ts.hi + ws.hi) - (ts.lo + ws.lo) + 2 * width + simd::ceil_log2(k), 62)
        << s.to_string();
    EXPECT_TRUE(simd::quire_window_fits(s, ts, ws, k)) << s.to_string() << ": the bound tile";
    EXPECT_FALSE(simd::quire_window_fits(s, span_of(wider), ws, k))
        << s.to_string() << ": one bit wider";
    EXPECT_EQ(span_of(wider).lo, ts.lo - 1);

    // Lane 0's exact window value: (k - 1) hi * w_hi terms and one hi * w_lo.
    const Unpacked h = decode_unpacked(b.hi, s), wh = decode_unpacked(b.w_hi, s),
                   wlo = decode_unpacked(b.w_lo, s);
    const int base = ts.lo + ws.lo;
    const auto term = [&](const Unpacked& x, const Unpacked& y) {
      return static_cast<__int128>(x.sig) * y.sig
             << (x.lsb_weight + y.lsb_weight - 2 * s.min_scale() - base);
    };
    const __int128 lane0 = static_cast<__int128>(k - 1) * term(h, wh) + term(h, wlo);
    EXPECT_LT(lane0, static_cast<__int128>(1) << 62) << s.to_string();
    if (s == PositSpec{16, 1}) {
      EXPECT_GT(lane0, (static_cast<__int128>(1) << 62) - (static_cast<__int128>(1) << 53))
          << "the bound tile's sum stays far below 2^62";
    }

    const Codes zeros(k, 0u);
    std::vector<Codes> rotated(bound.rbegin(), bound.rend());
    std::vector<Codes> rows;
    const std::vector<Codes>* const order[] = {&bound, &wider,   nullptr, &rotated,
                                               &bound, &rotated, nullptr, &bound};
    for (const std::vector<Codes>* tile : order) {
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        rows.push_back(tile != nullptr ? (*tile)[l] : zeros);
      }
    }
    check_tile_rows(bound, w, s, "bound tile");
    check_tile_rows(wider, w, s, "one bit wider");
    check_tile_rows(rows, w, s, "eight tiles");
    // An all-zero weight row: every tile sums 0 at base 0.
    check_tile_rows(rows, zeros, s, "all-zero weight row");
  }
}

}  // namespace
}  // namespace pdnn::posit
