// quire.hpp — exact dot-product accumulator for posits.
//
// The quire is a wide fixed-point two's-complement register that can
// accumulate any number (up to ~2^63) of exact posit products without
// rounding; a single rounding happens when the value is read back as a posit.
// Deep Positron's EMAC (exact multiply-and-accumulate), referenced by the
// paper, is this structure; the paper's own MAC instead converts to FP and
// uses a conventional FP accumulator (see src/hw/posit_mac.*). Having both
// lets the benches compare accumulation strategies.
//
// Quire is the oracle of the inference engine's kQuire mode and its
// fallback. On an AVX2 host the engine runs (8,0), (8,1), (8,2), (16,0) and
// (16,1) four outputs per vector on posit::simd::quire_lanes_avx2 (int64
// limbs, one rounding per output, bit-identical to accumulate_dot +
// to_posit); wider formats ((16,2), n = 32), a lone activation row, hosts
// without AVX2 and PDNN_NO_AVX2=1 accumulate here.
#pragma once

#include <cstdint>
#include <vector>

#include "posit/arith.hpp"
#include "posit/unpacked.hpp"

namespace pdnn::posit {

/// Not thread-safe, including the const readers: to_posit()/to_double() use
/// an internal magnitude scratch buffer (they run once per dot product on
/// the engine's hot path, where a heap allocation per call dominated). Use
/// one Quire per thread, as the engine's OpenMP regions do.
class Quire {
 public:
  /// Builds a quire sized for `spec`: enough integer bits for
  /// sum of 2^guard_bits maxpos^2 terms and enough fraction bits to hold
  /// minpos^2 exactly.
  explicit Quire(const PositSpec& spec, int guard_bits = 30);

  /// Resets the accumulator to zero (and clears the NaR flag).
  void clear();

  /// Accumulates the exact product a*b (posit codes in this quire's spec).
  void add_product(std::uint32_t a, std::uint32_t b);
  /// Decode-once overload: operands already unpacked (unpacked.hpp). Deposits
  /// exactly the value the coded overload would, so the quire state — and
  /// every later rounding — is bit-identical. Reduced significands keep the
  /// product in 64 bits, touching at most two register words per term.
  void add_product(const Unpacked& a, const Unpacked& b);

  /// Accumulates sum_i a[i]*b[i] exactly — the engine's dot-product hot
  /// path. Equivalent to `count` add_product(a[i], b[i]) calls (the final
  /// register state is bit-identical: both compute the same exact value mod
  /// 2^width), but batched: products are scattered branch-free into 32-bit
  /// carry-save limbs (positive and negative streams separate, so no borrow
  /// chains) and folded into the canonical two's-complement register once at
  /// the end.
  void accumulate_dot(const Unpacked* a, const Unpacked* b, std::size_t count);
  /// Accumulates -a*b exactly.
  void sub_product(std::uint32_t a, std::uint32_t b);
  /// Accumulates the posit value a exactly.
  void add_posit(std::uint32_t a);

  /// Rounds the accumulated value to a posit code (nearest-even by default).
  std::uint32_t to_posit(RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr) const;

  /// Exact conversion to double (may round if the value needs > 53 bits).
  double to_double() const;

  bool is_nar() const { return nar_; }
  bool is_zero() const;
  const PositSpec& spec() const { return spec_; }
  /// Total width in bits of the fixed-point register.
  int width_bits() const { return static_cast<int>(words_.size()) * 64; }

 private:
  void add_shifted(unsigned __int128 sig, long lsb_weight, bool negative);
  /// Fast two-word deposit for significands that fit 64 bits (the unpacked
  /// hot path); same exact addition as add_shifted.
  void add_shifted64(std::uint64_t sig, long lsb_weight, bool negative);
  /// Carry-propagates `limbs` (32-bit payloads at 32-bit stride) and adds or
  /// subtracts the resulting value into the register (mod 2^width).
  void fold_limbs(std::uint64_t* limbs, bool negative);

  PositSpec spec_;
  long frac_bits_;                   ///< weight of bit 0 is 2^(-frac_bits_)
  std::vector<std::uint64_t> words_; ///< little-endian two's-complement
  std::vector<std::uint64_t> limbs_; ///< accumulate_dot scratch: [pos | neg]
  mutable std::vector<std::uint64_t> mag_scratch_;  ///< to_posit/to_double magnitude buffer
  bool nar_ = false;
};

}  // namespace pdnn::posit
