// accum.hpp — rounded posit accumulator for the fma and serial dot chains.
//
// The engine's rounded accumulation modes round after every term:
//   fma     acc = round(a*b + acc)          (posit::fma, the paper's Fig. 4 MAC)
//   serial  acc = round(acc + round(a*b))   (posit::add(acc, posit::mul(a, b)))
// On codes each term re-decodes the accumulator, adds in 128 bits and packs
// the sum back into a code. RoundedAccum keeps the running sum as a value
// instead — (neg, sig, lsb_weight) like an Unpacked plus a NaR flag, never a
// code — and rounds each sum to n bits on its (scale, significand) directly:
//
//  * Exact sum: the larger-magnitude operand is placed with its MSB at bit
//    61 and the other aligned to it in 64-bit integers. An operand that
//    would fall off the bottom is shifted right with its lost bits folded
//    into a sticky bit 0, as add_decoded does in 128 bits: that only happens
//    when the magnitudes sit >= 2 binades apart, so at most one leading bit
//    cancels and the rounding point stays ~30 bits above the sticky.
//  * Rounding: the regime length, and with it the fraction width, follows
//    from the scale in a few integer ops (no per-spec table); the sum is cut
//    to that width, ties going to the even code (the code LSB is the last
//    fraction bit, or the exponent/regime bit when no fraction bit is
//    stored), exactly as round_pack breaks them. The saturation band and the
//    truncated-exponent band (regime + es bits overflow the word) are left
//    to round_pack itself.
//  * Output: the code is packed once, by to_posit(), at the end of a chain.
//
// Every step is bit-identical to the coded chains (tests/posit/accum_test.cpp
// checks each prefix of long adversarial chains at n = 3..32, es = 0..3).
//
// Which kernel runs: on an AVX2 host (posit::simd::enabled(), so neither
// PDNN_NO_AVX2=1 nor force_disable) the engine runs a spec with
// posit::simd::rounded_lanes_supported() — n - 2 - es <= 26 and scales within
// +-480, e.g. (12..16, any es <= 3), (24,2), (28,0), (29,1) — on
// simd::rounded_chains_avx2, four outputs per vector carried as exact
// doubles and rounded by this class's rule (tests/posit/accum_test.cpp drives
// every stream through it against this class). Wider significands such as
// (32,·), and every spec on a host without AVX2, run here: RoundedAccum is
// the scalar fallback and the kernel's oracle.
#pragma once

#include <cstddef>
#include <cstdint>

#include "posit/unpacked.hpp"

namespace pdnn::posit {

/// One running dot product under a rounded accumulation mode. Cheap to
/// build — no tables, no heap — so the engine makes one per thread per GEMM.
class RoundedAccum {
 public:
  explicit RoundedAccum(const PositSpec& spec)
      : fmt_{spec.n, spec.es, (spec.es + 2 - spec.n) * (1 << spec.es),
             (spec.n - 2 - spec.es) * (1 << spec.es) - 1} {}

  void clear() {
    sum_ = Sum{};
    nar_ = false;
  }

  /// acc = round(a*b + acc), the product kept exact: posit::fma on the codes.
  void fma(const Unpacked& a, const Unpacked& b) { chain<true>(&a, &b, 1); }
  /// acc = round(acc + round(a*b)): posit::add(acc, posit::mul(a, b)).
  void add_product(const Unpacked& a, const Unpacked& b) { chain<false>(&a, &b, 1); }

  /// `count` fma() / add_product() terms in ascending order: the engine's
  /// hot loops, with the sum in registers throughout.
  void fma_dot(const Unpacked* a, const Unpacked* b, std::size_t count) {
    chain<true>(a, b, count);
  }
  void serial_dot(const Unpacked* a, const Unpacked* b, std::size_t count) {
    chain<false>(a, b, count);
  }

  /// The running sum as a code (exact: it is already a posit value).
  std::uint32_t to_posit() const;

 private:
  /// value = (neg ? -1 : 1) * sig * 2^weight; sig == 0 is zero. Native-width
  /// fields: the chain keeps them in registers.
  struct Sum {
    std::uint64_t sig = 0;
    int weight = 0;
    bool neg = false;
  };
  /// What rounding needs of the spec; a chain copies it into registers.
  struct Format {
    int n, es;
    int fast_lo, fast_hi;  ///< scales whose regime + es bits leave >= 0 fraction bits
  };

  // A NaR anywhere makes NaR, for good; a zero operand leaves the sum.
  template <bool kFused>
  void chain(const Unpacked* a, const Unpacked* b, std::size_t count) {
    if (nar_) return;
    const Format f = fmt_;
    Sum s = sum_;
    for (std::size_t i = 0; i < count; ++i) {
      const unsigned flags = a[i].flags | b[i].flags;
      if (flags != 0) {
        if ((flags & Unpacked::kNarFlag) != 0) {
          nar_ = true;
          return;
        }
        continue;
      }
      const bool neg = a[i].neg != b[i].neg;
      const std::uint64_t mag = std::uint64_t{a[i].sig} * b[i].sig;  // exact, <= 60 bits
      const int weight = a[i].lsb_weight + b[i].lsb_weight;
      if (kFused) {
        s = s.sig == 0 ? round(f, neg, mag, weight) : add(f, s, neg, mag, weight);
      } else {
        const Sum p = round(f, neg, mag, weight);
        s = s.sig == 0 ? p : add(f, s, p.neg, p.sig, p.weight);
      }
    }
    sum_ = s;
  }

  /// v * 2^s in the 62-bit window: a left shift, or a right shift folding
  /// the lost bits into a sticky bit 0 (all of v, past 63).
  static std::uint64_t align(std::uint64_t v, int s) {
    if (s >= 0) return v << s;
    if (s > -64) return (v >> -s) | ((v & ((std::uint64_t{1} << -s) - 1)) != 0 ? 1u : 0u);
    return 1;
  }

  /// round(acc + x) for a non-zero sum `acc` and exact non-zero
  /// x = (neg ? -1 : 1) * mag * 2^weight, mag < 2^61.
  static Sum add(const Format& f, const Sum& acc, bool neg, std::uint64_t mag, int weight) {
    const int m_acc = 63 - __builtin_clzll(acc.sig);
    const int m_x = 63 - __builtin_clzll(mag);
    // The larger top goes to bit 61; the smaller top is then <= bit 61.
    std::uint64_t big, y;
    int base;
    bool big_neg;
    if (weight + m_x >= acc.weight + m_acc) {
      base = weight + m_x - 61;
      big = mag << (61 - m_x);
      y = align(acc.sig, acc.weight - base);
      big_neg = neg;
    } else {
      base = acc.weight + m_acc - 61;
      big = acc.sig << (61 - m_acc);
      y = align(mag, weight - base);
      big_neg = acc.neg;
    }
    // big, y < 2^62: the signed sum cannot overflow. It comes out negative
    // (flipping the larger operand's sign) only when the tops tie, y > big.
    // The signs are coin flips on real data: selects, not branches.
    const auto sy = static_cast<std::int64_t>(y);
    const std::int64_t sum = static_cast<std::int64_t>(big) + (neg != acc.neg ? -sy : sy);
    if (sum == 0) return Sum{};  // exact cancellation
    const std::int64_t flip = sum >> 63;
    return round(f, big_neg != (flip != 0), static_cast<std::uint64_t>((sum ^ flip) - flip), base);
  }

  /// Round the exact value (neg ? -1 : 1) * mag * 2^weight (0 < mag < 2^63;
  /// bit 0 may be a sticky bit) to the nearest posit, ties to the even code.
  static Sum round(const Format& f, bool neg, std::uint64_t mag, int weight) {
    const int msb = 63 - __builtin_clzll(mag);
    const int scale = weight + msb;
    if (scale < f.fast_lo || scale > f.fast_hi) return round_slow(f, neg, mag, msb, scale);
    const int k = scale >> f.es;  // floor: the regime
    const int fw = f.n - 1 - f.es - (k >= 0 ? k + 2 : 1 - k);  // stored fraction bits, >= 0
    const int shift = msb - fw;
    if (shift <= 0) return Sum{mag, weight, neg};  // fits the fraction field: exact
    // The code LSB: the last fraction bit, else the exponent LSB, else (es
    // == 0) the regime terminator, which is 1 exactly when k < 0.
    const bool odd = fw > 0 ? ((mag >> shift) & 1) != 0 : (f.es > 0 ? (scale & 1) != 0 : k < 0);
    // Nearest, ties to even, as one add: the carry out of the discarded
    // bits is the round-up. A carry out of the fraction (2^(fw+1)) is the
    // next code's value.
    const std::uint64_t half = std::uint64_t{1} << (shift - 1);
    return Sum{(mag + (half - 1) + (odd ? 1u : 0u)) >> shift, weight + shift, neg};
  }

  /// The saturation and truncated-exponent bands: round_pack, then unpack.
  static Sum round_slow(Format f, bool neg, std::uint64_t mag, int msb, int scale);

  Format fmt_;
  Sum sum_;
  bool nar_ = false;
};

}  // namespace pdnn::posit
