// simd.hpp — runtime-dispatched AVX2 kernels for the posit engine hot path.
//
// Six kernels live behind the dispatcher, each bit-identical to its scalar
// reference by construction (and pinned by the oracle tests in
// tests/posit/pack_codec_test.cpp, tests/posit/accum_test.cpp,
// tests/posit/quire_test.cpp and tests/posit/elementwise_test.cpp):
//
//   * decode_unpacked8_avx2 — batch-of-8 posit decode: eight n-bit codes in,
//     eight Unpacked lanes out. The regime parse is branch-free: the leading
//     run becomes a vector clz (highest-set-bit isolation + the exact
//     float-exponent trick; AVX2 has no lzcnt), regime/exponent/fraction
//     splits use per-lane variable shifts, and the trailing-zero reduction
//     reuses the same trick on the isolated lowest bit. This is the group
//     decoder behind decode_unpacked() spans — the engine's weight-row
//     decode and every activation-plane decode run through it.
//   * accumulate_limbs_avx2 — the vectorized carry-save deposit inside
//     Quire::accumulate_dot: per group of eight products it computes the
//     64-bit significand products, splits each into three 32-bit carry-save
//     chunks at its bit position (variable 64-bit shifts), spills the chunk
//     vectors to the stack, and deposits each term with three 64-bit limb
//     adds — even terms into bank 0, odd terms into bank 1 of each sign
//     stream. Product positions cluster inside a dot product, so wide RMW
//     vectors at shifting offsets would defeat store-to-load forwarding;
//     narrow same-address adds across twice the banks keep the forwarding
//     chains short instead. The folded register state matches the scalar
//     loop exactly (every deposit is an exact add mod 2^width, so neither
//     grouping nor bank splitting can change a bit).
//   * rounded_chains_avx2 — the fma and serial chains (posit/accum.hpp) for
//     four outputs per __m256d, one output per lane, each lane in its own
//     ascending-k term order; up to four row tiles' chains interleave, so
//     one chain's rounding latency hides behind the others' work. Where rounded_lanes_supported(spec) holds
//     (n - 2 - es <= 26, scales within +-480) a significand has at most 26
//     bits, so every product is exact in a double and no value overflows or
//     goes subnormal: a lane carries its running sum as the exact double
//     value of the posit. Per term the exact sum s + p is the pair (v, e) of a TwoSum, and
//     v's bit pattern is cut to the posit's fraction width at v's scale
//     (exponent -> regime length -> fraction width) with round-to-nearest,
//     ties to the even code, e deciding the ties of v — RoundedAccum::round's
//     rule as lane masks. Lanes whose scale leaves the band RoundedAccum
//     rounds inline (saturation and truncated-exponent regimes) are rebuilt
//     from (v, e) and sent through round_pack one at a time.
//   * batchnorm_lanes_avx2 / residual_join_lanes_avx2 — the session's
//     element-wise steps on the same exact-double rounding, four floats per
//     __m256d. BN is round(round(round(x) - mean) * scale + shift): the
//     encode is round(0 + x), the product of two posit values is exact, and
//     each step rounds once as above. The join is round(round(a) + round(b))
//     clamped at +0. A group of four holding a NaN or +-Inf, and the ragged
//     tail, stop the kernel; the caller runs the coded step on them.
//   * encode_lanes_avx2 / encode_quire_lanes_avx2 — the engine's activation
//     encode straight into the lane kernels' operand forms: round(0 + x),
//     BN's encode, gives the exact posit double (lane_value of
//     from_double's code) four floats per __m256d; for the exact quire the
//     double's significand, its trailing zeros shifted out, and its last
//     bit's weight become quire_lane_operand's int64. No code or Unpacked
//     is produced. A group holding a NaN or +-Inf (the only source of NaR)
//     stops the kernel; the caller re-runs the coded encode.
//   * quire_lanes_avx2 — the exact quire (Deep Positron's EMAC) for four
//     outputs per __m256i, one output per lane, in 64-bit integer limbs.
//     Where quire_lanes_supported(spec, k) holds ((8,0), (8,1), (8,2),
//     (16,0), (16,1)) an operand is one int64 — signed significand low,
//     lsb_weight - min_scale high — so _mm256_mul_epi32 gives the exact
//     product and its position counts from minpos^2. Per term the product
//     shifts to its bit inside a 32-bit-strided limb and adds into the limb
//     its position selects (compare/and/add over at most four limbs); a
//     carry pass every quire_lanes_flush(spec) terms keeps the limbs in 64
//     bits. Each lane then folds its limbs to sign and magnitude in vector
//     registers (the borrow of a negative sum carried across the limbs),
//     keeps its two highest non-zero 32-bit chunks with a sticky bit for the
//     rest, and rounds their exact sum as two doubles with the chains'
//     add_round — the rule of Quire::to_posit, so every output is the exact
//     double of Quire::accumulate_dot + to_posit, and a bias adds as in
//     rounded_chains_avx2.
//
// Dispatch mirrors tensor/gemm_kernel.cpp: __builtin_cpu_supports("avx2")
// resolved once, with two overrides — the PDNN_NO_AVX2=1 environment
// variable (read at first use; how CI covers the scalar fallback on AVX2
// hosts) and force_disable() (an in-process toggle the oracle tests and
// micro benches use to compare both paths in one run).
#pragma once

#include <cstddef>
#include <cstdint>

#include "posit/spec.hpp"
#include "posit/unpacked.hpp"

namespace pdnn::posit::simd {

/// CPU has AVX2 and PDNN_NO_AVX2 was unset (or "0") at first use. Immutable.
bool available();

/// available() minus the force_disable() toggle — what dispatch consults.
bool enabled();

/// Testing/bench hook: pin every dispatch to the scalar fallback (true) or
/// restore available()-based dispatch (false). Not thread-safe against
/// concurrent kernel calls; flip it only around single-threaded sections.
void force_disable(bool disable);

/// Decode codes[0..8) into out[0..8), bit-identical to eight scalar
/// decode_unpacked() calls. Caller must check enabled().
void decode_unpacked8_avx2(const std::uint32_t* codes, const PositSpec& spec, Unpacked* out);

/// Deposit the first (count & ~7) exact products a[i]*b[i] into the
/// sign-split carry-save banks (32-bit payload limbs at 32-bit stride;
/// same-sign stream to pos_limbs, mixed-sign to neg_limbs). Even-indexed
/// terms land in the bank at each stream's base, odd-indexed terms at
/// base + bank1_offset limbs — the caller zeroes and folds all four banks.
/// `base` is the quire's frac_bits_. Returns the OR of all consumed operand
/// flag bytes (caller checks Unpacked::kNarFlag) and the number of terms
/// consumed. Caller must check enabled() and handle the ragged tail with the
/// scalar loop.
std::size_t accumulate_limbs_avx2(const Unpacked* a, const Unpacked* b, std::size_t count,
                                  long base, std::uint64_t* pos_limbs, std::uint64_t* neg_limbs,
                                  std::size_t bank1_offset, std::uint32_t* flags_or);

/// The lane kernel's domain: significands (hidden bit included) of at most
/// 26 bits, so a product of two operands is exact in a double, and scales
/// within +-480, so products (and TwoSum errors, down to 2^-1010) stay
/// normal doubles. Holds for every es <= 3 format the engine runs but
/// (32,3) and wider significands.
constexpr bool rounded_lanes_supported(const PositSpec& spec) {
  return spec.n - 2 - spec.es <= 26 && spec.max_scale() <= 480;
}

/// Row tiles of the lane kernel: four operand rows, stored k-major
/// (tile[i * 4 + lane] is term i of row `lane`).
inline constexpr std::size_t kLanes = 4;

/// The exact value of an operand as a double; 0.0 for zero and NaR (the
/// caller tracks NaR, which absorbs a whole chain, on its own). Exact under
/// rounded_lanes_supported(): sig has at most 26 bits and |lsb_weight| stays
/// below 510.
inline double lane_value(const Unpacked& u) {
  if (u.flags != 0) return 0.0;
  const auto pow2 = static_cast<std::uint64_t>(1023 + u.lsb_weight) << 52;
  double scale;
  __builtin_memcpy(&scale, &pow2, sizeof scale);
  const double mag = static_cast<double>(u.sig) * scale;
  return u.neg != 0 ? -mag : mag;
}

/// out[i] = lane_value(row[i]) for i < k; returns true when the row holds a
/// NaR.
bool fill_lane_row(const Unpacked* row, std::size_t k, double* out);

/// Run `tiles` row tiles (tile t at a + t * k * kLanes) against one operand
/// row w[0..k): out[t * kLanes + l] is the rounded chain of tile t's row l
/// — fused: s = round(a*w + s) (RoundedAccum::fma_dot), else s = round(s +
/// round(a*w)) (serial_dot) — as the exact double of its posit, then, when
/// `bias` is non-null, round(s + *bias) (posit::add). Every a, w and *bias
/// must be an exact posit value (lane_value) of `spec`, and
/// rounded_lanes_supported(spec) must hold. Bit-identical to RoundedAccum
/// lane by lane; NaR is the caller's (see fill_lane_row). Caller must check
/// enabled().
void rounded_chains_avx2(const double* a, std::size_t tiles, const double* w, std::size_t k,
                         const PositSpec& spec, bool fused, const double* bias, double* out);

/// Eval-mode posit BatchNorm over x[0..count), four elements per vector:
/// y[i] = float(fma(sub(from_double(x[i]), mean), scale, shift)), every step
/// rounded to nearest-even in `spec` — bit-identical to the coded steps.
/// scale, mean and shift are the exact doubles (to_double) of non-NaR codes;
/// rounded_lanes_supported(spec) must hold. Runs the longest prefix of whole
/// groups of kLanes elements that are all finite and returns its length: the
/// caller runs the coded step on the next min(kLanes, count - done) elements
/// (the group holding a NaN or +-Inf, or the ragged tail) and calls again.
/// y may alias x. Caller must check enabled().
std::size_t batchnorm_lanes_avx2(const float* x, std::size_t count, const PositSpec& spec,
                                 double scale, double mean, double shift, float* y);

/// The residual join with its ReLU, as batchnorm_lanes_avx2 runs BN:
/// y[i] = max(float(add(from_double(a[i]), from_double(b[i]))), +0), the
/// same stop at a group where a or b holds a NaN or +-Inf and at the tail.
/// y may alias a or b. Caller must check enabled().
std::size_t residual_join_lanes_avx2(const float* a, const float* b, std::size_t count,
                                     const PositSpec& spec, float* y);

/// The activation encode of the fma/serial lane kernels: for r < rows and
/// i < width, out[r * out_stride + i] = lane_value(decode_unpacked(
/// from_double(x[r * width + i]))) under nearest-even, bit for bit.
/// rounded_lanes_supported(spec) must hold. A row's ragged tail runs as one
/// zero-padded group. Returns false at the first group of four holding a
/// NaN or +-Inf (rows before it encoded, the rest unspecified): the caller
/// re-runs the coded encode, which yields the NaR codes. Caller must check
/// enabled().
bool encode_lanes_avx2(const float* x, std::size_t rows, std::size_t width, const PositSpec& spec,
                       double* out, std::size_t out_stride);

/// encode_lanes_avx2 for the exact-quire lane kernel: out[...] =
/// quire_lane_operand(decode_unpacked(from_double(x[...]))), derived from
/// the exact double without a code. quire_lanes_supported(spec, .) must
/// hold; the same stop at a NaN or +-Inf. Caller must check enabled().
bool encode_quire_lanes_avx2(const float* x, std::size_t rows, std::size_t width,
                             const PositSpec& spec, std::int64_t* out, std::size_t out_stride);

/// Limbs of the exact-quire lane kernel: product positions, counted from
/// minpos^2, run 0..4 * max_scale, one 32-bit limb per 32 of them.
constexpr int quire_lane_limbs(const PositSpec& spec) { return ((4 * spec.max_scale()) >> 5) + 1; }

/// Terms between the lane kernel's carry passes, F: a term adds less than
/// 2^(2s + 31) to a limb (s = n - 2 - es significand bits per operand) and
/// a normalized limb holds less than 2^32, so F = 2^(31 - 2s) terms keep
/// every limb below 2^62 + 2^32 < 2^63. (16,1): F = 32; (16,0): F = 8.
/// Defined for the specs quire_lanes_supported admits.
constexpr std::size_t quire_lanes_flush(const PositSpec& spec) {
  return std::size_t{1} << (31 - 2 * (spec.n - 2 - spec.es));
}

/// The longest dot the lane kernel keeps exact: Quire's own default guard
/// (2^30 maxpos^2 terms), under which no limb between carry passes nor the
/// folded top limb overflows 64 bits.
inline constexpr std::size_t kQuireLanesMaxTerms = std::size_t{1} << 30;

/// The exact-quire lane kernel's domain: products of at most 28 bits (a
/// product shifted into its limb stays below 2^59, so a carry pass every
/// F >= 8 terms), at most four limbs, and dots of at most
/// kQuireLanesMaxTerms terms. (8,0), (8,1), (8,2), (16,0) and (16,1)
/// qualify; (16,2) needs eight limbs, (32, *) wider products.
constexpr bool quire_lanes_supported(const PositSpec& spec, std::size_t k) {
  return 2 * (spec.n - 2 - spec.es) <= 28 && quire_lane_limbs(spec) <= 4 &&
         k <= kQuireLanesMaxTerms;
}

/// An operand as the lane kernel reads it: the signed significand in the
/// low 32 bits, lsb_weight - min_scale (>= 0) in the high 32 bits; 0 for
/// zero and NaR (the caller tracks NaR, see fill_quire_row).
inline std::int64_t quire_lane_operand(const Unpacked& u, const PositSpec& spec) {
  if (u.flags != 0) return 0;
  const auto sig = static_cast<std::uint32_t>(u.neg != 0 ? -static_cast<std::int64_t>(u.sig)
                                                         : static_cast<std::int64_t>(u.sig));
  const auto offset = static_cast<std::uint64_t>(u.lsb_weight - spec.min_scale());
  return static_cast<std::int64_t>((offset << 32) | sig);
}

/// out[i] = quire_lane_operand(row[i]) for i < k; true when the row holds a
/// NaR.
bool fill_quire_row(const Unpacked* row, std::size_t k, const PositSpec& spec, std::int64_t* out);

/// The exact quire dot of `tiles` row tiles (tile t at a + t * k * kLanes)
/// against one operand row w[0..k): out[t * kLanes + l] is
/// sum_i a[row l][i] * w[i], rounded once to nearest-even, as the exact
/// double of its posit — to_double(Quire::accumulate_dot + to_posit), bit
/// for bit — then, when `bias` is non-null, round(out + *bias) (posit::add),
/// the output contract of rounded_chains_avx2. Operands are
/// quire_lane_operand values of `spec`, *bias a lane_value of `spec`;
/// quire_lanes_supported(spec, k) must hold; NaR is the caller's. Caller
/// must check enabled().
void quire_lanes_avx2(const std::int64_t* a, std::size_t tiles, const std::int64_t* w,
                      std::size_t k, const PositSpec& spec, const double* bias, double* out);

}  // namespace pdnn::posit::simd
