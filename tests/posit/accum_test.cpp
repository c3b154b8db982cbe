// accum_test.cpp — RoundedAccum against the coded chains, bit for bit.
//
// Oracle: the coded per-term chains the accumulator replaces,
//   fma     acc = posit::fma(a, b, acc)
//   serial  acc = posit::add(acc, posit::mul(a, b))
// run on the raw codes. Every prefix of every chain is compared, at every
// (n, es) with n in 9..32 and es in 0..3 (plus the small formats, whose
// fast band is narrow or empty), over streams built to reach each branch of
// the accumulator: NaR mid-chain, zero operands, cancellation to exact zero,
// saturation at +-maxpos, sums near minpos, magnitudes far enough apart to
// take the sticky alignment, and the truncated-exponent band. Each stream
// also asserts that it actually reached the case it was built for.
//
// Every stream also runs through the AVX2 lane kernel
// (posit::simd::rounded_chains_avx2, four chains per vector) at every spec
// it supports: in each of the eight lane positions of two row tiles, the
// other lanes fed different operand streams, in both modes and with a bias
// add — each lane must reproduce RoundedAccum on its own row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "posit/accum.hpp"
#include "posit/arith.hpp"
#include "posit/simd.hpp"

namespace pdnn::posit {
namespace {

using Terms = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// What the coded chains reached over one stream.
struct Reached {
  int nar = 0;         ///< steps whose sum is NaR
  int zero_after = 0;  ///< steps that cancelled a non-zero sum to exactly zero
  int maxpos = 0;      ///< sums at +-maxpos
  int minpos = 0;      ///< sums at +-minpos
  int truncated = 0;   ///< sums whose regime + es bits overflow the word
  int far = 0;         ///< fma terms whose smaller operand falls below the 61-bit window
};

/// True when round(a*b + acc) aligns the smaller of the exact product and
/// the sum with a sticky bit: its LSB lies below the larger one's MSB - 61.
bool sticky_alignment(std::uint32_t acc, std::uint32_t a, std::uint32_t b, const PositSpec& spec) {
  const Unpacked ua = decode_unpacked(a, spec), ub = decode_unpacked(b, spec);
  const Unpacked uc = decode_unpacked(acc, spec);
  if (ua.flags != 0 || ub.flags != 0 || uc.flags != 0) return false;
  const std::uint64_t p = std::uint64_t{ua.sig} * ub.sig;
  const int p_lsb = ua.lsb_weight + ub.lsb_weight;
  const int p_top = p_lsb + 63 - __builtin_clzll(p);
  const int c_top = uc.lsb_weight + 31 - __builtin_clz(uc.sig);
  return p_top >= c_top ? uc.lsb_weight < p_top - 61 : p_lsb < c_top - 61;
}

bool truncated_band(std::uint32_t code, const PositSpec& spec) {
  const Decoded d = decode(code, spec);
  if (d.is_zero || d.is_nar) return false;
  const int rb = d.k >= 0 ? d.k + 2 : 1 - d.k;
  return rb + spec.es > spec.n - 1 && code != spec.maxpos_code() &&
         code != neg(spec.maxpos_code(), spec);
}

void tally(std::uint32_t prev, std::uint32_t acc, const PositSpec& spec, Reached& r) {
  if (acc == spec.nar_code()) ++r.nar;
  if (acc == 0 && prev != 0) ++r.zero_after;
  if (abs(acc, spec) == spec.maxpos_code()) ++r.maxpos;
  if (abs(acc, spec) == spec.minpos_code()) ++r.minpos;
  if (truncated_band(acc, spec)) ++r.truncated;
}

/// A lane result as the code it denotes (lane results are exact posit
/// values, so the encode is exact); NaR rows as the NaR code.
std::uint32_t lane_code(double v, bool nar, const PositSpec& spec) {
  return nar ? spec.nar_code() : from_double(v, spec);
}

/// Bits of a double: a lane's zero must be +0.0, as to_double(0) is.
std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// One k-major row tile of the lane kernel (tile[i * kLanes + l] = term i of
/// row l) from kLanes contiguous operand rows of length k; bit l of the
/// result set when row l holds a NaR.
unsigned lane_tile(const Unpacked* rows, std::size_t k, double* tile) {
  unsigned nar = 0;
  for (std::size_t l = 0; l < simd::kLanes; ++l) {
    for (std::size_t i = 0; i < k; ++i) {
      const Unpacked& u = rows[l * k + i];
      tile[i * simd::kLanes + l] = simd::lane_value(u);
      if (u.is_nar()) nar |= 1u << l;
    }
  }
  return nar;
}

/// RoundedAccum's codes for every prefix length in `cuts` (ascending) of
/// the chain row[i] * b[i], in one pass.
std::vector<std::uint32_t> prefix_codes(const PositSpec& spec, const std::vector<Unpacked>& row,
                                        const std::vector<Unpacked>& b,
                                        const std::vector<std::size_t>& cuts, bool fused) {
  RoundedAccum acc(spec);
  std::vector<std::uint32_t> codes;
  std::size_t done = 0;
  for (const std::size_t m : cuts) {
    if (fused) {
      acc.fma_dot(row.data() + done, b.data() + done, m - done);
    } else {
      acc.serial_dot(row.data() + done, b.data() + done, m - done);
    }
    done = m;
    codes.push_back(acc.to_posit());
  }
  return codes;
}

/// The lane kernel over `terms` at every lane position of two row tiles.
/// All rows share the stream's b operands as the broadcast weight row; the
/// stream's a operands sit in row `pos`, and the other rows hold its a
/// rotated (row 1 of each tile) or Gaussian codes. Each row is checked
/// against RoundedAccum on its own operands, at a few prefix lengths, in
/// both modes, through the two-tile loop and (for `pos`'s tile) the
/// one-tile loop, plus a bias add on the whole chain.
void check_lanes(const PositSpec& spec, const Terms& terms, const char* stream) {
  if (!simd::enabled() || !simd::rounded_lanes_supported(spec)) return;
  constexpr std::size_t kRows = 2 * simd::kLanes;
  const std::size_t len = terms.size();
  std::mt19937_64 rng((static_cast<std::uint64_t>(spec.n) << 8) ^ spec.es ^ len);
  std::vector<Unpacked> b(len);
  for (std::size_t i = 0; i < len; ++i) b[i] = decode_unpacked(terms[i].second, spec);
  // rows[j]: row j's operands, j < kRows; rows[kRows]: the stream's own.
  std::vector<std::vector<Unpacked>> rows(kRows + 1, std::vector<Unpacked>(len));
  for (std::size_t j = 0; j <= kRows; ++j) {
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint32_t code =
          j == kRows ? terms[i].first
          : j % simd::kLanes == 1
              ? terms[(i + j * len / kRows) % len].first
              : from_double(std::normal_distribution<double>(0.0, 1.0)(rng), spec);
      rows[j][i] = decode_unpacked(code, spec);
    }
  }
  const std::uint32_t bias_code = terms[len / 2].first;
  const Unpacked bias = decode_unpacked(bias_code, spec);
  const double bias_value = simd::lane_value(bias);

  std::vector<std::size_t> cuts = {1, 3, len / 2, len};
  const auto outside = [&](std::size_t m) { return m == 0 || m > len; };
  cuts.erase(std::remove_if(cuts.begin(), cuts.end(), outside), cuts.end());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  // want[fused][j][c]: RoundedAccum on rows[j] at prefix cuts[c].
  std::vector<std::vector<std::uint32_t>> want[2];
  for (const bool fused : {false, true}) {
    for (const auto& row : rows) want[fused].push_back(prefix_codes(spec, row, b, cuts, fused));
  }

  std::vector<Unpacked> block;
  std::vector<double> tiles, w;
  for (std::size_t pos = 0; pos < kRows; ++pos) {
    // Row r of the two tiles: the stream at `pos`, rows[r] elsewhere.
    const auto source = [&](std::size_t r) { return r == pos ? kRows : r; };
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      const std::size_t m = cuts[c];
      block.resize(kRows * m);
      for (std::size_t r = 0; r < kRows; ++r) {
        std::copy_n(rows[source(r)].begin(), m, block.begin() + static_cast<std::ptrdiff_t>(r * m));
      }
      tiles.assign(kRows * m, 0.0);
      w.assign(m, 0.0);
      const unsigned nar =
          lane_tile(block.data(), m, tiles.data()) |
          lane_tile(block.data() + simd::kLanes * m, m, tiles.data() + simd::kLanes * m)
              << simd::kLanes;
      const bool w_nar = simd::fill_lane_row(b.data(), m, w.data());
      for (const bool fused : {true, false}) {
        for (const bool with_bias : {false, true}) {
          if (with_bias && m != len) continue;
          const double* bp = with_bias ? &bias_value : nullptr;
          double two[kRows], one[kRows];
          simd::rounded_chains_avx2(tiles.data(), 2, w.data(), m, spec, fused, bp, two);
          const std::size_t own = pos / simd::kLanes * simd::kLanes;  // pos's tile
          std::copy_n(two, kRows, one);
          simd::rounded_chains_avx2(tiles.data() + own * m, 1, w.data(), m, spec, fused, bp,
                                    one + own);
          for (std::size_t r = 0; r < kRows; ++r) {
            std::uint32_t expect = want[fused][source(r)][c];
            if (with_bias) expect = add(expect, bias_code, spec);
            const bool row_nar = ((nar >> r) & 1) != 0 || w_nar || (with_bias && bias.is_nar());
            EXPECT_EQ(row_nar, expect == spec.nar_code())
                << spec.to_string() << " " << stream << " NaR flag, row " << r;
            const std::uint32_t got = lane_code(two[r], row_nar, spec);
            if (got != expect || bits_of(two[r]) != bits_of(one[r]) ||
                (!row_nar && bits_of(two[r]) != bits_of(to_double(expect, spec)))) {
              ADD_FAILURE() << spec.to_string() << " " << stream << (fused ? " fma" : " serial")
                            << (with_bias ? "+bias" : "") << " lane pos " << pos << " row " << r
                            << " prefix " << m << ": got " << got << " (one tile "
                            << lane_code(one[r], row_nar, spec) << ") want " << expect;
              return;
            }
          }
        }
      }
    }
  }
}

/// Runs both chains over `terms` step by step against the coded oracle and
/// the dot-loop entry points against the final oracle code. Returns what the
/// oracle chains reached.
Reached check_chains(const PositSpec& spec, const Terms& terms, const char* stream) {
  std::vector<Unpacked> a(terms.size()), b(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    a[i] = decode_unpacked(terms[i].first, spec);
    b[i] = decode_unpacked(terms[i].second, spec);
  }
  Reached reached;
  RoundedAccum fma_acc(spec), serial_acc(spec);
  std::uint32_t fma_code = 0, serial_code = 0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const auto [ca, cb] = terms[i];
    if (sticky_alignment(fma_code, ca, cb, spec)) ++reached.far;
    const std::uint32_t fma_prev = fma_code, serial_prev = serial_code;
    fma_code = fma(ca, cb, fma_code, spec);
    serial_code = add(serial_code, mul(ca, cb, spec), spec);
    tally(fma_prev, fma_code, spec, reached);
    tally(serial_prev, serial_code, spec, reached);
    fma_acc.fma(a[i], b[i]);
    serial_acc.add_product(a[i], b[i]);
    if (fma_acc.to_posit() != fma_code || serial_acc.to_posit() != serial_code) {
      ADD_FAILURE() << spec.to_string() << " " << stream << " term " << i << " (a=" << ca
                    << ", b=" << cb << "): fma got " << fma_acc.to_posit() << " want " << fma_code
                    << " (prev " << fma_prev << "); serial got " << serial_acc.to_posit()
                    << " want " << serial_code << " (prev " << serial_prev << ")";
      return reached;
    }
  }
  RoundedAccum dot(spec);
  dot.fma_dot(a.data(), b.data(), a.size());
  EXPECT_EQ(dot.to_posit(), fma_code) << spec.to_string() << " " << stream << " fma_dot";
  dot.clear();
  dot.serial_dot(a.data(), b.data(), a.size());
  EXPECT_EQ(dot.to_posit(), serial_code) << spec.to_string() << " " << stream << " serial_dot";
  check_lanes(spec, terms, stream);
  return reached;
}

/// Stream builders. All draw from one seeded engine per (spec, stream).
class Streams {
 public:
  Streams(const PositSpec& spec, std::uint64_t seed) : spec_(spec), rng_(seed) {}

  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }
  double normal() { return std::normal_distribution<double>(0.0, 1.0)(rng_); }
  int uniform_int(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  bool coin() { return (rng_() & 1) != 0; }

  /// A random value at binary scale `scale`: +-(1 + f) * 2^scale.
  std::uint32_t at_scale(int scale) {
    const double v = std::ldexp(1.0 + uniform(), scale);
    return from_double(coin() ? -v : v, spec_);
  }
  std::uint32_t gaussian(double sigma) { return from_double(normal() * sigma, spec_); }
  /// Any code but NaR (zero included).
  std::uint32_t any_code() {
    std::uint32_t c;
    do {
      c = static_cast<std::uint32_t>(rng_()) & spec_.mask();
    } while (c == spec_.nar_code());
    return c;
  }

  Terms gaussian_terms(std::size_t count) {
    Terms t(count);
    for (auto& [a, b] : t) {
      a = gaussian(1.0);
      b = gaussian(0.3);
    }
    return t;
  }

 private:
  PositSpec spec_;
  std::mt19937_64 rng_;
};

std::vector<PositSpec> chain_specs() {
  std::vector<PositSpec> specs;
  for (int n = 3; n <= 32; ++n) {
    for (int es = 0; es <= 3; ++es) specs.push_back({n, es});
  }
  return specs;
}

std::uint64_t seed_of(const PositSpec& spec, int stream) {
  return (static_cast<std::uint64_t>(spec.n) << 16) ^ (static_cast<std::uint64_t>(spec.es) << 8) ^
         static_cast<std::uint64_t>(stream);
}

TEST(RoundedAccum, GaussianChainsOf2048MatchCodedChains) {
  for (const PositSpec& spec : chain_specs()) {
    Streams s(spec, seed_of(spec, 1));
    check_chains(spec, s.gaussian_terms(2048), "gaussian");
  }
}

TEST(RoundedAccum, RandomCodeChainsMatchCodedChains) {
  for (const PositSpec& spec : chain_specs()) {
    Streams s(spec, seed_of(spec, 2));
    Terms t(2048);
    for (auto& [a, b] : t) {
      a = s.any_code();
      b = s.any_code();
    }
    check_chains(spec, t, "random codes");
  }
}

TEST(RoundedAccum, EveryScaleChainsMatchCodedChains) {
  for (const PositSpec& spec : chain_specs()) {
    Streams s(spec, seed_of(spec, 3));
    Terms t(2048);
    for (auto& [a, b] : t) {
      a = s.at_scale(s.uniform_int(spec.min_scale(), spec.max_scale()));
      b = s.at_scale(s.uniform_int(spec.min_scale(), spec.max_scale()));
    }
    check_chains(spec, t, "every scale");
  }
}

TEST(RoundedAccum, NarMidChainAbsorbs) {
  for (const PositSpec& spec : chain_specs()) {
    for (int which = 0; which < 2; ++which) {
      Streams s(spec, seed_of(spec, 4 + which));
      Terms t = s.gaussian_terms(300);
      (which == 0 ? t[150].first : t[150].second) = spec.nar_code();
      const Reached r = check_chains(spec, t, "nar mid-chain");
      EXPECT_EQ(r.nar, 2 * 150) << spec.to_string();  // both chains, terms 150..299
    }
  }
}

TEST(RoundedAccum, ZeroOperandsLeaveTheSum) {
  for (const PositSpec& spec : chain_specs()) {
    Streams s(spec, seed_of(spec, 6));
    Terms t = s.gaussian_terms(1024);
    for (auto& [a, b] : t) {
      const int r = s.uniform_int(0, 5);
      if (r == 0) a = 0;
      if (r == 1) b = 0;
      if (r == 2) a = b = 0;
    }
    t[0].first = 0;  // the chain starts on a zero term
    check_chains(spec, t, "zero operands");
  }
}

TEST(RoundedAccum, CancellationToExactZero) {
  for (const PositSpec& spec : chain_specs()) {
    Streams s(spec, seed_of(spec, 7));
    const std::uint32_t one = from_double(1.0, spec);
    Terms t;
    for (int i = 0; i < 256; ++i) {
      // x*1 is exact, so x then -x returns both chains to exactly zero.
      const std::uint32_t x = s.gaussian(4.0);
      t.push_back({x, one});
      t.push_back({neg(x, spec), one});
      // x*y then -x*y: the fma chain cancels to the rounding residue (a
      // massive, exact cancellation), the serial chain to zero.
      const std::uint32_t y = s.gaussian(1.0);
      t.push_back({x, y});
      t.push_back({neg(x, spec), y});
    }
    const Reached r = check_chains(spec, t, "cancellation");
    EXPECT_GT(r.zero_after, 0) << spec.to_string();
  }
}

TEST(RoundedAccum, SumsSaturateAtMaxpos) {
  for (const PositSpec& spec : chain_specs()) {
    Streams s(spec, seed_of(spec, 8));
    const int half = spec.max_scale() / 2;
    Terms t;
    for (int i = 0; i < 512; ++i) {
      // Each product sits a few binades below maxpos, so a run of same-sign
      // terms climbs into saturation; the sign flips every 128 terms.
      const std::uint32_t a = abs(s.at_scale(half - s.uniform_int(0, 3)), spec);
      const std::uint32_t b = abs(s.at_scale(half - s.uniform_int(0, 3)), spec);
      t.push_back({(i / 128) % 2 == 0 ? a : neg(a, spec), b});
    }
    const Reached r = check_chains(spec, t, "saturation");
    EXPECT_GT(r.maxpos, 0) << spec.to_string();
  }
}

TEST(RoundedAccum, SumsNearMinpos) {
  for (const PositSpec& spec : chain_specs()) {
    Streams s(spec, seed_of(spec, 9));
    const int below = (spec.min_scale() - 1) / 2;  // operand scale whose square is < minpos
    Terms t;
    for (int i = 0; i < 512; ++i) {
      // Products below minpos (the sums clamp at +-minpos, never to zero);
      // in the second half every fourth one is a few binades above it.
      const int lift = i >= 256 && i % 4 == 0 ? 2 : 0;
      const std::uint32_t a = s.at_scale(below - s.uniform_int(0, 2) + lift);
      t.push_back({a, s.at_scale(below - s.uniform_int(0, 2) + lift)});
    }
    const Reached r = check_chains(spec, t, "near minpos");
    EXPECT_GT(r.minpos, 0) << spec.to_string();
  }
}

TEST(RoundedAccum, FarApartMagnitudesTakeTheStickyAlignment) {
  for (const PositSpec& spec : chain_specs()) {
    Streams s(spec, seed_of(spec, 10));
    const std::uint32_t one = from_double(1.0, spec);
    Terms t;
    const auto tiny = [&] {
      return std::make_pair(s.at_scale(spec.min_scale() + s.uniform_int(0, 2)),
                            s.at_scale(spec.min_scale() + s.uniform_int(0, 2)));
    };
    for (int block = 0; block < 64; ++block) {
      // A tiny sum hit by a near-maxpos term X (exact: X*1), tiny terms
      // against the large sum, then -X back to (near) zero.
      const std::uint32_t x = s.at_scale(spec.max_scale() - 1 - s.uniform_int(0, 2));
      for (int i = 0; i < 4; ++i) t.push_back(tiny());
      t.push_back({x, one});
      for (int i = 0; i < 3; ++i) t.push_back(tiny());
      t.push_back({neg(x, spec), one});
    }
    const Reached r = check_chains(spec, t, "far apart");
    // The gap spans maxpos down to a product near minpos^2: about three
    // max_scales, which must exceed the 61-bit window (plus slack).
    if (3 * spec.max_scale() >= 70) {
      EXPECT_GT(r.far, 0) << spec.to_string();
    }
  }
}

TEST(RoundedAccum, TruncatedExponentBand) {
  for (const PositSpec& spec : chain_specs()) {
    if (spec.es == 0) continue;  // every regime leaves room for the (empty) exponent
    Streams s(spec, seed_of(spec, 11));
    // Scales whose regime leaves fewer than es bits for the exponent: the
    // top (and bottom) regimes below saturation.
    const int hi_lo = (spec.n - 2 - spec.es) * (1 << spec.es);
    const int lo_hi = (spec.es + 2 - spec.n) * (1 << spec.es) - 1;
    Terms t;
    for (int i = 0; i < 512; ++i) {
      const bool top = (i / 64) % 2 == 0;
      const int scale = top ? s.uniform_int(hi_lo, spec.max_scale() - 1)
                            : s.uniform_int(spec.min_scale(), lo_hi);
      // Product = operand * (1 + small fraction), so the sums wander within
      // (and across the edges of) the band.
      t.push_back({s.at_scale(scale), from_double(1.0 + s.uniform() / 64.0, spec)});
    }
    const Reached r = check_chains(spec, t, "truncated exponent");
    EXPECT_GT(r.truncated, 0) << spec.to_string();
  }
}

TEST(RoundedAccum, TiesOfTheDoubleSumGoTheWayTheTwoSumErrorPoints) {
  // The lane kernel rounds v = fl(s + p) and lets the TwoSum error e break
  // v's exact ties. That needs an exact sum wider than a double: at
  // posit(29,1) s in [2, 4) keeps 25 fraction bits (its guard is 2^-25),
  // and p = 81 * 1657009 * 2^-52 = (2^27 + 1) * 2^-52 = 2^-25 + 2^-52 puts a
  // bit 27 places below the guard. v = s + 2^-25 is a tie with e = +2^-52:
  // the sum must round up from an even s. With p = 511 * 262657 * 2^-52 =
  // 2^-25 - 2^-52, v is again a tie, now with e = -2^-52: it must round
  // down from an odd s.
  const PositSpec spec{29, 1};
  const auto code = [&](double v) {
    const std::uint32_t c = from_double(v, spec);
    EXPECT_EQ(to_double(c, spec), v) << "not a posit(29,1) value: " << v;
    return c;
  };
  const std::uint32_t one = code(1.0);
  const double s_even = 2.0, s_odd = 2.0 + std::ldexp(1.0, -24);
  const Terms up = {{code(s_even), one},
                    {code(std::ldexp(81.0, -26)), code(std::ldexp(1657009.0, -26))}};
  const Terms down = {{code(s_odd), one},
                      {code(std::ldexp(511.0, -26)), code(std::ldexp(262657.0, -26))}};
  check_chains(spec, up, "double-sum tie, e up");
  check_chains(spec, down, "double-sum tie, e down");
  EXPECT_EQ(fma(up[1].first, up[1].second, code(s_even), spec), code(2.0 + std::ldexp(1.0, -24)));
  EXPECT_EQ(fma(down[1].first, down[1].second, code(s_odd), spec), code(s_odd));
}

TEST(RoundedAccum, TruncatedBandMidpointWithATinyTail) {
  // Just above the inline band one exponent bit is cut off: codes there are
  // 2^T/2 and 2^(T+1), and 2^T = 2^(fast_hi + 2) is their bit-string
  // midpoint. minpos, then a product of exactly 2^T: the exact sum 2^T +
  // minpos rounds up, yet when the two lie more than a double apart v =
  // 2^T is a tie and only e = minpos says which way.
  for (const PositSpec& spec : chain_specs()) {
    if (spec.es == 0) continue;
    const int t = (spec.n - 2 - spec.es) * (1 << spec.es) + 1;
    if (t >= spec.max_scale()) continue;
    const std::uint32_t lo = from_double(std::ldexp(1.0, t / 2), spec);
    const std::uint32_t hi = from_double(std::ldexp(1.0, t - t / 2), spec);
    if (to_double(lo, spec) * to_double(hi, spec) != std::ldexp(1.0, t)) continue;
    const std::uint32_t one = from_double(1.0, spec);
    for (const bool negative : {false, true}) {
      const std::uint32_t minpos = negative ? neg(spec.minpos_code(), spec) : spec.minpos_code();
      check_chains(spec, {{minpos, one}, {lo, hi}}, "truncated midpoint");
      check_chains(spec, {{minpos, one}, {neg(lo, spec), hi}}, "truncated midpoint, negated");
    }
  }
}

TEST(RoundedAccum, ClearResetsTheSum) {
  const PositSpec spec{16, 1};
  RoundedAccum acc(spec);
  const Unpacked two = decode_unpacked(from_double(2.0, spec), spec);
  acc.fma(two, two);
  EXPECT_EQ(acc.to_posit(), from_double(4.0, spec));
  acc.clear();
  EXPECT_EQ(acc.to_posit(), 0u);
  Unpacked nar;
  nar.flags = Unpacked::kNarFlag;
  acc.add_product(nar, two);
  EXPECT_EQ(acc.to_posit(), spec.nar_code());
  acc.fma(two, two);  // NaR absorbs
  EXPECT_EQ(acc.to_posit(), spec.nar_code());
  acc.clear();
  EXPECT_EQ(acc.to_posit(), 0u);
}

}  // namespace
}  // namespace pdnn::posit
