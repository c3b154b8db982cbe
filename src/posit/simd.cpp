#include "posit/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PDNN_POSIT_X86 1
#endif

namespace pdnn::posit::simd {

namespace {

std::atomic<bool> g_force_disabled{false};

bool detect() {
#ifdef PDNN_POSIT_X86
  const char* env = std::getenv("PDNN_NO_AVX2");
  if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) return false;
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool available() {
  // Function-local static: resolved on first use, after libgcc's CPU-model
  // constructor has definitely run (same pattern as tensor/gemm_kernel.cpp).
  static const bool avail = detect();
  return avail;
}

bool enabled() { return available() && !g_force_disabled.load(std::memory_order_relaxed); }

void force_disable(bool disable) { g_force_disabled.store(disable, std::memory_order_relaxed); }

bool fill_lane_row(const Unpacked* row, std::size_t k, double* out) {
  bool nar = false;
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = lane_value(row[i]);
    nar = nar || row[i].is_nar();
  }
  return nar;
}

#ifdef PDNN_POSIT_X86

namespace {

// clz/ctz of a 32-bit lane via the float-exponent trick: for a power of two
// 2^p with p <= 30, _mm256_cvtepi32_ps is exact and the biased exponent field
// is 127 + p, so p = (bits >> 23) - 127. The callers below only feed isolated
// single-bit values (or 0, whose lanes are blended away afterwards).
__attribute__((target("avx2"))) inline __m256i bit_position(__m256i isolated) {
  const __m256i bits = _mm256_castps_si256(_mm256_cvtepi32_ps(isolated));
  return _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(127));
}

}  // namespace

__attribute__((target("avx2"), aligned(64))) void decode_unpacked8_avx2(
    const std::uint32_t* codes, const PositSpec& spec, Unpacked* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i maskv = _mm256_set1_epi32(static_cast<int>(spec.mask()));
  const __m256i signv = _mm256_set1_epi32(static_cast<int>(spec.sign_bit()));
  const int body_bits = spec.n - 1;

  const __m256i code =
      _mm256_and_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes)), maskv);
  const __m256i zeromask = _mm256_cmpeq_epi32(code, zero);
  const __m256i narmask = _mm256_cmpeq_epi32(code, signv);  // nar_code() == sign_bit()

  // Magnitude: two's-complement negate the negative codes.
  const __m256i negmask = _mm256_cmpeq_epi32(_mm256_and_si256(code, signv), signv);
  const __m256i mag = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(code),
      _mm256_castsi256_ps(_mm256_and_si256(_mm256_sub_epi32(zero, code), maskv)),
      _mm256_castsi256_ps(negmask)));
  const __m256i body = _mm256_and_si256(mag, _mm256_sub_epi32(signv, one));

  // Regime run length as a leading-zero count of the top-aligned body (the
  // all-ones case is inverted first), exactly as the scalar parse: the word
  // to count is nonzero with bit 31 clear for every finite non-zero code, so
  // isolating its highest set bit and reading the float exponent is exact.
  // Special lanes (code 0 / NaR) run through with garbage run values — every
  // downstream shift stays defined (AVX2 variable shifts yield 0 for counts
  // >= width) and the lanes are overwritten by the final blend.
  const __m256i x = _mm256_slli_epi32(body, 32 - body_bits);
  const __m256i firstmask = _mm256_srai_epi32(x, 31);  // regime of ones?
  __m256i w = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(x), _mm256_castsi256_ps(_mm256_xor_si256(x, _mm256_set1_epi32(-1))),
      _mm256_castsi256_ps(firstmask)));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 1));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 2));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 4));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 8));
  w = _mm256_or_si256(w, _mm256_srli_epi32(w, 16));
  const __m256i highbit = _mm256_sub_epi32(w, _mm256_srli_epi32(w, 1));
  const __m256i run = _mm256_sub_epi32(_mm256_set1_epi32(31), bit_position(highbit));
  const __m256i k = _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(_mm256_sub_epi32(zero, run)),
      _mm256_castsi256_ps(_mm256_sub_epi32(run, one)), _mm256_castsi256_ps(firstmask)));

  // Exponent / fraction split below the regime terminator.
  const __m256i remaining =
      _mm256_max_epi32(_mm256_sub_epi32(_mm256_set1_epi32(body_bits - 1), run), zero);
  const __m256i e_stored = _mm256_min_epi32(remaining, _mm256_set1_epi32(spec.es));
  const __m256i e_bits =
      _mm256_and_si256(_mm256_srlv_epi32(body, _mm256_sub_epi32(remaining, e_stored)),
                       _mm256_sub_epi32(_mm256_sllv_epi32(one, e_stored), one));
  const __m256i e = _mm256_sllv_epi32(e_bits, _mm256_sub_epi32(_mm256_set1_epi32(spec.es), e_stored));
  const __m256i frac_width = _mm256_sub_epi32(remaining, e_stored);
  const __m256i frac =
      _mm256_and_si256(body, _mm256_sub_epi32(_mm256_sllv_epi32(one, frac_width), one));
  const __m256i scale =
      _mm256_add_epi32(_mm256_mullo_epi32(k, _mm256_set1_epi32(1 << spec.es)), e);

  // Reduced significand: strip trailing zeros (lowest-set-bit isolation feeds
  // the same exact float-exponent trick; sig_frac >= 1 in every lane).
  const __m256i sig_frac = _mm256_or_si256(_mm256_sllv_epi32(one, frac_width), frac);
  const __m256i tz = bit_position(_mm256_and_si256(sig_frac, _mm256_sub_epi32(zero, sig_frac)));
  const __m256i sig = _mm256_srlv_epi32(sig_frac, tz);
  const __m256i lsb = _mm256_add_epi32(_mm256_sub_epi32(scale, frac_width), tz);

  // Assemble the struct's second word: lsb_weight (int16) | neg << 16 |
  // flags << 24, matching Unpacked's little-endian field layout.
  const __m256i hi_normal =
      _mm256_or_si256(_mm256_and_si256(lsb, _mm256_set1_epi32(0xFFFF)),
                      _mm256_slli_epi32(_mm256_and_si256(negmask, one), 16));
  const __m256i special = _mm256_or_si256(zeromask, narmask);
  const __m256i hi_special = _mm256_or_si256(
      _mm256_and_si256(zeromask, _mm256_set1_epi32(Unpacked::kZeroFlag << 24)),
      _mm256_and_si256(narmask, _mm256_set1_epi32(Unpacked::kNarFlag << 24)));
  const __m256i hi = _mm256_castps_si256(
      _mm256_blendv_ps(_mm256_castsi256_ps(hi_normal), _mm256_castsi256_ps(hi_special),
                       _mm256_castsi256_ps(special)));
  const __m256i sig_out = _mm256_andnot_si256(special, sig);

  // Interleave (sig, hi) pairs back into struct order and store 8 Unpacked.
  const __m256i lo_pairs = _mm256_unpacklo_epi32(sig_out, hi);
  const __m256i hi_pairs = _mm256_unpackhi_epi32(sig_out, hi);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(lo_pairs, hi_pairs, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4),
                      _mm256_permute2x128_si256(lo_pairs, hi_pairs, 0x31));
}

__attribute__((target("avx2"), aligned(64))) std::size_t accumulate_limbs_avx2(
    const Unpacked* a, const Unpacked* b, std::size_t count, long base, std::uint64_t* pos_limbs,
    std::uint64_t* neg_limbs, std::size_t bank1_offset, std::uint32_t* flags_or) {
  const std::size_t head = count & ~static_cast<std::size_t>(7);
  const __m256i deint = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i basev = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  __m256i meta_or = _mm256_setzero_si256();

  for (std::size_t i = 0; i < head; i += 8) {
    // Load 8 (sig, hi) structs per operand and deinterleave into a sig vector
    // and a hi vector (hi = lsb_weight | neg << 16 | flags << 24).
    const __m256i ta0 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), deint);
    const __m256i ta1 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4)), deint);
    const __m256i tb0 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), deint);
    const __m256i tb1 = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 4)), deint);
    const __m256i sig_a = _mm256_permute2x128_si256(ta0, ta1, 0x20);
    const __m256i hi_a = _mm256_permute2x128_si256(ta0, ta1, 0x31);
    const __m256i sig_b = _mm256_permute2x128_si256(tb0, tb1, 0x20);
    const __m256i hi_b = _mm256_permute2x128_si256(tb0, tb1, 0x31);
    meta_or = _mm256_or_si256(meta_or, _mm256_or_si256(hi_a, hi_b));

    // Per-term bit position of the product inside the carry-save banks. NaR
    // and zero operands have sig == 0 and lsb_weight == 0, so their lanes
    // deposit nothing at a position that is safely in range.
    const __m256i lsb_a = _mm256_srai_epi32(_mm256_slli_epi32(hi_a, 16), 16);
    const __m256i lsb_b = _mm256_srai_epi32(_mm256_slli_epi32(hi_b, 16), 16);
    const __m256i pos = _mm256_add_epi32(_mm256_add_epi32(lsb_a, lsb_b), basev);
    const __m256i sgn =
        _mm256_and_si256(_mm256_srli_epi32(_mm256_xor_si256(hi_a, hi_b), 16), _mm256_set1_epi32(1));
    alignas(32) std::uint32_t idxs[8];
    alignas(32) std::uint32_t sgns[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(idxs), _mm256_srli_epi32(pos, 5));
    _mm256_store_si256(reinterpret_cast<__m256i*>(sgns), sgn);

    // 64-bit products: even int32 lanes (terms 0,2,4,6) via mul_epu32, odd
    // lanes shifted down first. Each product (<= 60 bits) splits into three
    // 32-bit chunks at shift (pos & 31), the exact expressions of the scalar
    // loop (chunk 2's shift stays defined at sh == 0 by the >> 1 pre-shift).
    const __m256i pe = _mm256_mul_epu32(sig_a, sig_b);
    const __m256i po = _mm256_mul_epu32(_mm256_srli_epi64(sig_a, 32), _mm256_srli_epi64(sig_b, 32));
    const __m256i she = _mm256_and_si256(pos, _mm256_set1_epi64x(0x1F));
    const __m256i sho = _mm256_and_si256(_mm256_srli_epi64(pos, 32), _mm256_set1_epi64x(0x1F));
    const __m256i c0e = _mm256_and_si256(_mm256_sllv_epi64(pe, she), lo32);
    const __m256i c0o = _mm256_and_si256(_mm256_sllv_epi64(po, sho), lo32);
    const __m256i c1e = _mm256_and_si256(
        _mm256_srlv_epi64(pe, _mm256_sub_epi64(_mm256_set1_epi64x(32), she)), lo32);
    const __m256i c1o = _mm256_and_si256(
        _mm256_srlv_epi64(po, _mm256_sub_epi64(_mm256_set1_epi64x(32), sho)), lo32);
    const __m256i c2e =
        _mm256_srlv_epi64(_mm256_srli_epi64(pe, 1), _mm256_sub_epi64(_mm256_set1_epi64x(63), she));
    const __m256i c2o =
        _mm256_srlv_epi64(_mm256_srli_epi64(po, 1), _mm256_sub_epi64(_mm256_set1_epi64x(63), sho));

    // Spill the chunk vectors (even terms 0,2,4,6 then odd terms 1,3,5,7 in
    // each array's halves) and deposit with three 64-bit limb adds per term —
    // exactly the scalar loop's adds, so any grouping is bit-identical. Wide
    // RMW vectors would partially overlap between consecutive terms (product
    // positions cluster inside a dot) and kill store-to-load forwarding;
    // narrow adds forward, and alternating terms between two banks per sign
    // stream halves the remaining same-limb dependency chains.
    alignas(32) std::uint64_t ch0[8], ch1[8], ch2[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch0), c0e);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch0 + 4), c0o);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch1), c1e);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch1 + 4), c1o);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch2), c2e);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ch2 + 4), c2o);
    for (int t = 0; t < 8; ++t) {
      const int s = ((t & 1) << 2) | (t >> 1);  // term t's slot in the spills
      std::uint64_t* dst = (sgns[t] != 0 ? neg_limbs : pos_limbs) +
                           ((t & 1) != 0 ? bank1_offset : 0) + idxs[t];
      dst[0] += ch0[s];
      dst[1] += ch1[s];
      dst[2] += ch2[s];
    }
  }

  alignas(32) std::uint32_t meta[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(meta), meta_or);
  std::uint32_t flags = 0;
  for (int l = 0; l < 8; ++l) flags |= meta[l] >> 24;
  *flags_or |= flags;
  return head;
}


namespace {

/// The lanes RoundedAccum hands to round_slow (saturation and
/// truncated-exponent scales): the exact value v + e (|e| <= half an ulp of
/// v, v != 0) rebuilt in 64 bits as RoundedAccum::add builds its sums — v's
/// significand topped at bit 61, e aligned below it with its lost bits
/// folded into a sticky bit 0 — then round_pack, as a double again.
double round_lane_exact(const PositSpec& spec, double v, double e) {
  const auto fields = [](double x, std::uint64_t* sig, int* lsb) {
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    *sig = (b & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
    *lsb = static_cast<int>((b >> 52) & 0x7FF) - 1075;
  };
  std::uint64_t mag;
  int lsb;
  fields(v, &mag, &lsb);
  mag <<= 9;
  const int base = lsb - 9;
  if (e != 0.0) {
    std::uint64_t esig;
    int elsb;
    fields(e, &esig, &elsb);
    const int sh = base - elsb;  // >= 44: e sits below v's last bit
    const std::uint64_t y =
        sh >= 64 ? 1u : (esig >> sh) | ((esig & ((std::uint64_t{1} << sh) - 1)) != 0 ? 1u : 0u);
    mag = std::signbit(e) == std::signbit(v) ? mag + y : mag - y;
  }
  const int msb = 63 - __builtin_clzll(mag);
  const std::uint32_t code = round_pack(spec, std::signbit(v), base + msb, mag, msb, false,
                                        RoundMode::kNearestEven, nullptr);
  return lane_value(decode_unpacked(code, spec));
}

/// What rounding a lane needs of the spec, in 64-bit lanes. The regime
/// arithmetic runs in the low dword of each lane (high dwords stay zero).
struct LaneFormat {
  __m256i abs_mask, one, ex_bias, d_pos, d_neg, d_fw0, ex_neg;
  __m128i kk_shift;
  PositSpec spec;

  __attribute__((target("avx2"))) static __m256i low_dword(int v) {
    return _mm256_set1_epi64x(static_cast<long long>(static_cast<std::uint32_t>(v)));
  }

  __attribute__((target("avx2"))) explicit LaneFormat(const PositSpec& s) : spec(s) {
    // (scale + 2048) >> es == k + k0 as an unsigned shift of the biased
    // exponent field; the dropped bit count is 52 - fw = regime length +
    // 53 - n + es, the regime length max(k + 2, 1 - k).
    const int k0 = 2048 >> s.es;
    const int d_off = 53 - s.n + s.es;
    abs_mask = _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll);
    one = _mm256_set1_epi64x(1);
    ex_bias = _mm256_set1_epi64x(static_cast<long long>(2048 - 1023) << 52);
    kk_shift = _mm_cvtsi32_si128(52 + s.es);
    d_pos = low_dword(2 - k0 + d_off);
    d_neg = low_dword(k0 + 1 + d_off);
    d_fw0 = _mm256_set1_epi64x(52);
    ex_neg = _mm256_set1_epi64x(1022);
  }
};

/// v's posit grid: `unit` is the weight of the last stored fraction bit
/// (2^d in v's bit pattern, d = 52 - fw), `low` masks the bits below it.
/// d > 52 (fw < 0) marks the saturation and truncated-exponent scales
/// RoundedAccum leaves to round_pack; zero lanes get unit == 0.
struct Grid {
  __m256i mag, d, unit, low, rem, half;
};

__attribute__((target("avx2"), always_inline)) inline Grid grid(__m256i bits,
                                                                const LaneFormat& f) {
  Grid g;
  g.mag = _mm256_and_si256(bits, f.abs_mask);
  const __m256i kk = _mm256_srl_epi64(_mm256_add_epi64(g.mag, f.ex_bias), f.kk_shift);
  g.d = _mm256_max_epi32(_mm256_add_epi32(kk, f.d_pos), _mm256_sub_epi32(f.d_neg, kk));
  g.unit = _mm256_sllv_epi64(f.one, g.d);
  g.low = _mm256_sub_epi64(g.unit, f.one);
  g.rem = _mm256_and_si256(bits, g.low);
  g.half = _mm256_srli_epi64(g.unit, 1);
  return g;
}

/// Non-zero lanes outside the inline band.
__attribute__((target("avx2"), always_inline)) inline __m256i out_of_band(const Grid& g,
                                                                         const LaneFormat& f) {
  return _mm256_andnot_si256(_mm256_cmpeq_epi64(g.mag, _mm256_setzero_si256()),
                             _mm256_cmpgt_epi64(g.d, f.d_fw0));
}

/// The TwoSum error of v = s + p: v + e == s + p exactly.
__attribute__((target("avx2"), always_inline)) inline __m256d two_sum_error(__m256d s, __m256d p,
                                                                           __m256d v) {
  const __m256d pv = _mm256_sub_pd(v, s);
  return _mm256_add_pd(_mm256_sub_pd(s, _mm256_sub_pd(v, pv)), _mm256_sub_pd(p, pv));
}

/// Lanes where v cut to nearest must round up, ties included: a tie of v
/// goes the way e points, and an exact tie (e == 0) to the even code. The
/// code LSB is the last fraction bit (the bit at unit); with no fraction
/// bit (d == 52, the bit is the exponent field's LSB) it is the exponent
/// LSB, i.e. that bit inverted, or for es == 0 the regime terminator, set
/// exactly when the scale is negative.
__attribute__((target("avx2"), always_inline)) inline __m256i round_up(__m256i bits, __m256d e,
                                                                      const Grid& g,
                                                                      const LaneFormat& f) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i even = _mm256_cmpeq_epi64(_mm256_and_si256(bits, g.unit), zero);
  const __m256i fw0 = _mm256_cmpeq_epi64(g.d, f.d_fw0);
  const __m256i even_code =
      f.spec.es != 0
          ? _mm256_xor_si256(even, fw0)
          : _mm256_blendv_epi8(even, _mm256_cmpgt_epi64(_mm256_srli_epi64(g.mag, 52), f.ex_neg),
                               fw0);
  // A tie stays down when e is zero and the code even, or e points the
  // other way (its sign differs from v's).
  const __m256i ezero = _mm256_castpd_si256(_mm256_cmp_pd(e, _mm256_setzero_pd(), _CMP_EQ_OQ));
  const __m256i against = _mm256_cmpgt_epi64(zero, _mm256_xor_si256(_mm256_castpd_si256(e), bits));
  const __m256i stay =
      _mm256_or_si256(_mm256_and_si256(ezero, even_code), _mm256_andnot_si256(ezero, against));
  return _mm256_or_si256(_mm256_cmpgt_epi64(g.rem, g.half),
                         _mm256_andnot_si256(stay, _mm256_cmpeq_epi64(g.rem, g.half)));
}

/// round(s + p) for exact lane values, every case: round_up on the TwoSum
/// pair (v, e), out-of-band lanes through round_lane_exact.
__attribute__((target("avx2"), noinline)) __m256d add_round_full(__m256d s, __m256d p,
                                                                  const LaneFormat& f) {
  const __m256d v = _mm256_add_pd(s, p);
  const __m256d e = two_sum_error(s, p, v);
  const __m256i bits = _mm256_castpd_si256(v);
  const Grid g = grid(bits, f);
  __m256d r = _mm256_castsi256_pd(_mm256_add_epi64(
      _mm256_andnot_si256(g.low, bits), _mm256_and_si256(round_up(bits, e, g, f), g.unit)));
  const int slow = _mm256_movemask_pd(_mm256_castsi256_pd(out_of_band(g, f)));
  if (slow != 0) {
    alignas(32) double rv[4], vv[4], ev[4];
    _mm256_store_pd(rv, r);
    _mm256_store_pd(vv, v);
    _mm256_store_pd(ev, e);
    for (int l = 0; l < 4; ++l) {
      if (((slow >> l) & 1) != 0) rv[l] = round_lane_exact(f.spec, vv[l], ev[l]);
    }
    r = _mm256_load_pd(rv);
  }
  return r;
}

/// round(s + p) on the common path: v = s + p cut to nearest on its grid.
/// That is the answer unless a lane sits exactly halfway (then e or the
/// code parity decides) or outside the band; add_round_full redoes such
/// steps. Ties are rare in an fma chain (the exact product's tail decides);
/// the serial chain's s + round(a*b) meets more of them, and still runs
/// faster with the branch than with round_up inline.
__attribute__((target("avx2"), always_inline)) inline __m256d add_round(__m256d s, __m256d p,
                                                                       const LaneFormat& f) {
  const __m256i bits = _mm256_castpd_si256(_mm256_add_pd(s, p));
  const Grid g = grid(bits, f);
  const __m256i redo = _mm256_andnot_si256(
      _mm256_cmpeq_epi64(g.mag, _mm256_setzero_si256()),
      _mm256_or_si256(_mm256_cmpgt_epi64(g.d, f.d_fw0), _mm256_cmpeq_epi64(g.rem, g.half)));
  if (_mm256_movemask_pd(_mm256_castsi256_pd(redo)) != 0) return add_round_full(s, p, f);
  const __m256i up = _mm256_cmpgt_epi64(g.rem, g.half);
  return _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_andnot_si256(g.low, bits), _mm256_and_si256(up, g.unit)));
}

/// kVecs row tiles (at a, a + k * kLanes, ...) against w: the chains of
/// independent tiles interleave, so one tile's latency hides behind the
/// other's work.
template <int kVecs, bool kFused>
__attribute__((target("avx2"), always_inline)) inline void chain_tiles(
    const double* a, const double* w, std::size_t k, const LaneFormat& f, const double* bias,
    double* out) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d s[kVecs];
  for (int t = 0; t < kVecs; ++t) s[t] = zero;
  for (std::size_t i = 0; i < k; ++i) {
    const __m256d wi = _mm256_broadcast_sd(w + i);
    for (int t = 0; t < kVecs; ++t) {
      __m256d p = _mm256_mul_pd(_mm256_loadu_pd(a + t * k * kLanes + i * kLanes), wi);
      if (!kFused) p = add_round(zero, p, f);  // the product rounds first, on its own
      s[t] = add_round(s[t], p, f);
    }
  }
  for (int t = 0; t < kVecs; ++t) {
    if (bias != nullptr) s[t] = add_round(s[t], _mm256_broadcast_sd(bias), f);
    _mm256_storeu_pd(out + t * kLanes, s[t]);
  }
}

template <bool kFused>
__attribute__((target("avx2"), always_inline)) inline void chain_all(
    const double* a, std::size_t tiles, const double* w, std::size_t k, const LaneFormat& f,
    const double* bias, double* out) {
  const std::size_t stride = k * kLanes;
  std::size_t t = 0;
  for (; t + 4 <= tiles; t += 4) {
    chain_tiles<4, kFused>(a + t * stride, w, k, f, bias, out + t * kLanes);
  }
  if (t + 2 <= tiles) {
    chain_tiles<2, kFused>(a + t * stride, w, k, f, bias, out + t * kLanes);
    t += 2;
  }
  if (t < tiles) chain_tiles<1, kFused>(a + t * stride, w, k, f, bias, out + t * kLanes);
}

}  // namespace

__attribute__((target("avx2"), aligned(64))) void rounded_chains_avx2(
    const double* a, std::size_t tiles, const double* w, std::size_t k, const PositSpec& spec,
    bool fused, const double* bias, double* out) {
  const LaneFormat f(spec);
  if (fused) {
    chain_all<true>(a, tiles, w, k, f, bias, out);
  } else {
    chain_all<false>(a, tiles, w, k, f, bias, out);
  }
}

namespace {

/// Whether any of the four floats is a NaN or +-Inf (exponent field all ones).
__attribute__((target("avx2"), always_inline)) inline bool any_nonfinite(__m128 x) {
  const __m128i exp = _mm_set1_epi32(0x7F800000);
  const __m128i field = _mm_and_si128(_mm_castps_si128(x), exp);
  return _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(field, exp))) != 0;
}

}  // namespace

__attribute__((target("avx2"), aligned(64))) std::size_t batchnorm_lanes_avx2(
    const float* x, std::size_t count, const PositSpec& spec, double scale, double mean,
    double shift, float* y) {
  const LaneFormat f(spec);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d scalev = _mm256_set1_pd(scale);
  const __m256d neg_mean = _mm256_set1_pd(-mean);
  const __m256d shiftv = _mm256_set1_pd(shift);
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const __m128 xv = _mm_loadu_ps(x + i);
    if (any_nonfinite(xv)) break;
    // Zero results are +0.0, as to_double(0) is: a sum is -0 only when both
    // operands are, and xp (0.0 + x) and the shift (a posit's double) never
    // are.
    const __m256d xp = add_round(zero, _mm256_cvtps_pd(xv), f);
    const __m256d centered = add_round(xp, neg_mean, f);
    const __m256d scaled = add_round(shiftv, _mm256_mul_pd(centered, scalev), f);
    _mm_storeu_ps(y + i, _mm256_cvtpd_ps(scaled));
  }
  return i;
}

__attribute__((target("avx2"), aligned(64))) std::size_t residual_join_lanes_avx2(
    const float* a, const float* b, std::size_t count, const PositSpec& spec, float* y) {
  const LaneFormat f(spec);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const __m128 av = _mm_loadu_ps(a + i);
    const __m128 bv = _mm_loadu_ps(b + i);
    if (any_nonfinite(av) || any_nonfinite(bv)) break;
    const __m256d joined = add_round(add_round(zero, _mm256_cvtps_pd(av), f),
                                     add_round(zero, _mm256_cvtps_pd(bv), f), f);
    // maxps returns its second operand unless the first is greater: v > 0 ?
    // v : +0, the coded clamp, -0.0 included.
    _mm_storeu_ps(y + i, _mm_max_ps(_mm256_cvtpd_ps(joined), _mm_setzero_ps()));
  }
  return i;
}

namespace {

/// What quire_operands needs of the spec: the fraction and hidden-bit masks
/// of a double and 1075 + min_scale, so that biased exponent - 1075 is the
/// weight of the significand's last bit.
struct QuireEncode {
  __m256i frac_mask, hidden, abs_mask, bias, lo32;

  __attribute__((target("avx2"))) explicit QuireEncode(const PositSpec& s)
      : frac_mask(_mm256_set1_epi64x((1ll << 52) - 1)),
        hidden(_mm256_set1_epi64x(1ll << 52)),
        abs_mask(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll)),
        bias(_mm256_set1_epi64x(1075 + s.min_scale())),
        lo32(_mm256_set1_epi64x(0xFFFFFFFFll)) {}
};

/// quire_lane_operand of four exact posit doubles: the double's 53-bit
/// significand with its trailing zeros shifted out is Unpacked's odd sig,
/// and its last bit's weight plus that shift is lsb_weight. The trailing
/// zeros are the exponent of the lowest set fraction bit as an exact double
/// (2^52 magic: the bit sits below 2^52), or 52 when no fraction bit is set.
/// Zero lanes give 0.
__attribute__((target("avx2"), always_inline)) inline __m256i quire_operands(__m256d v,
                                                                           const QuireEncode& q) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i bits = _mm256_castpd_si256(v);
  const __m256i frac = _mm256_and_si256(bits, q.frac_mask);
  const __m256i lowest = _mm256_and_si256(frac, _mm256_sub_epi64(zero, frac));
  const __m256i magic_bits = _mm256_set1_epi64x(0x4330000000000000ll);  // 2^52
  const __m256i lowest_d = _mm256_castpd_si256(
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lowest, magic_bits)),
                    _mm256_castsi256_pd(magic_bits)));
  const __m256i lowest_exp = _mm256_srli_epi64(lowest_d, 52);
  const __m256i tz = _mm256_blendv_epi8(_mm256_sub_epi64(lowest_exp, _mm256_set1_epi64x(1023)),
                                        _mm256_set1_epi64x(52), _mm256_cmpeq_epi64(frac, zero));
  const __m256i sig = _mm256_srlv_epi64(_mm256_or_si256(frac, q.hidden), tz);
  const __m256i mag = _mm256_and_si256(bits, q.abs_mask);
  const __m256i offset = _mm256_sub_epi64(_mm256_add_epi64(_mm256_srli_epi64(mag, 52), tz), q.bias);
  const __m256i negm = _mm256_cmpgt_epi64(zero, bits);
  const __m256i signed_sig =
      _mm256_and_si256(_mm256_sub_epi64(_mm256_xor_si256(sig, negm), negm), q.lo32);
  return _mm256_andnot_si256(_mm256_cmpeq_epi64(mag, zero),
                             _mm256_or_si256(_mm256_slli_epi64(offset, 32), signed_sig));
}

__attribute__((target("avx2"), always_inline)) inline void store_encoded(__m256d v, double* out,
                                                                        const QuireEncode&) {
  _mm256_storeu_pd(out, v);
}

__attribute__((target("avx2"), always_inline)) inline void store_encoded(__m256d v,
                                                                        std::int64_t* out,
                                                                        const QuireEncode& q) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), quire_operands(v, q));
}

/// The encode both lane forms share: round(0 + x) per four floats, stored
/// as the lane form. A row's ragged tail runs as one group padded with
/// zeros. False at the first group holding a NaN or +-Inf.
template <class T>
__attribute__((target("avx2"), always_inline)) inline bool encode_rows(
    const float* x, std::size_t rows, std::size_t width, const PositSpec& spec, T* out,
    std::size_t out_stride) {
  const LaneFormat f(spec);
  const QuireEncode q(spec);
  const __m256d zero = _mm256_setzero_pd();
  const std::size_t tail = width % kLanes, body = width - tail;
  for (std::size_t r = 0; r < rows; ++r, x += width, out += out_stride) {
    for (std::size_t i = 0; i < body; i += kLanes) {
      const __m128 xv = _mm_loadu_ps(x + i);
      if (any_nonfinite(xv)) return false;
      store_encoded(add_round(zero, _mm256_cvtps_pd(xv), f), out + i, q);
    }
    if (tail != 0) {
      alignas(16) float xs[kLanes] = {};
      alignas(32) T ys[kLanes];
      std::memcpy(xs, x + body, tail * sizeof(float));
      const __m128 xv = _mm_load_ps(xs);
      if (any_nonfinite(xv)) return false;
      store_encoded(add_round(zero, _mm256_cvtps_pd(xv), f), ys, q);
      std::memcpy(out + body, ys, tail * sizeof(T));
    }
  }
  return true;
}

}  // namespace

__attribute__((target("avx2"), aligned(64))) bool encode_lanes_avx2(
    const float* x, std::size_t rows, std::size_t width, const PositSpec& spec, double* out,
    std::size_t out_stride) {
  return encode_rows(x, rows, width, spec, out, out_stride);
}

__attribute__((target("avx2"), aligned(64))) bool encode_quire_lanes_avx2(
    const float* x, std::size_t rows, std::size_t width, const PositSpec& spec, std::int64_t* out,
    std::size_t out_stride) {
  return encode_rows(x, rows, width, spec, out, out_stride);
}

namespace {

/// Arithmetic shift right by 32 of each int64 lane (AVX2 has no srai_epi64):
/// the high dword moves down, its sign fills the high dword.
__attribute__((target("avx2"), always_inline)) inline __m256i srai64_32(__m256i x) {
  return _mm256_blend_epi32(_mm256_srli_epi64(x, 32), _mm256_srai_epi32(x, 31), 0xAA);
}

/// The exact double of four lanes' quires, each rounded once to the posit
/// Quire::to_posit gives. On entry limb[0..L-1) are carry-normalized into
/// [0, 2^32) and the top limb holds the signed rest: the value is
/// sum limb[l] * 2^(32 l) units of minpos^2.
///   * Sign and magnitude: a negative lane negates every limb, and one more
///     carry pass moves the borrows up; the top limb ends >= 0.
///   * The magnitude as 32-bit chunks c[0..L] (the top limb splits in two):
///     the highest non-zero chunk and the one below it, every lower chunk
///     folded into that one's bit 0 as a sticky bit. The two hold 33 to 64
///     bits of the sum, at least 18 below the rounding bit of any supported
///     format (significands of at most 14 bits), so the sticky bit decides
///     exactly what the dropped bits would.
///   * Each chunk is an exact double (2^52 magic) at its weight, s + p, and
///     add_round rounds their exact sum — saturation and sums below minpos
///     take its round_lane_exact path to +-maxpos and +-minpos.
template <int L>
__attribute__((target("avx2"), always_inline)) inline __m256d round_quire_lanes(
    __m256i* limb, const LaneFormat& f, __m256i weight0) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i negm = _mm256_cmpgt_epi64(zero, limb[L - 1]);
  for (int l = 0; l < L; ++l) limb[l] = _mm256_sub_epi64(_mm256_xor_si256(limb[l], negm), negm);
  for (int l = 0; l + 1 < L; ++l) {
    limb[l + 1] = _mm256_add_epi64(limb[l + 1], srai64_32(limb[l]));
    limb[l] = _mm256_and_si256(limb[l], lo32);
  }
  __m256i c[L + 1];
  for (int l = 0; l + 1 < L; ++l) c[l] = limb[l];
  c[L - 1] = _mm256_and_si256(limb[L - 1], lo32);
  c[L] = _mm256_srli_epi64(limb[L - 1], 32);
  // Walk up the chunks: where c[j] != 0 it becomes the high chunk, c[j - 1]
  // (sticky from everything below) the low one, j their weight index.
  __m256i hi = c[0], lo = zero, index = zero, below = zero;
  for (int j = 1; j <= L; ++j) {
    const __m256i empty = _mm256_cmpeq_epi64(c[j], zero);
    const __m256i sticky =
        _mm256_andnot_si256(_mm256_cmpeq_epi64(below, zero), _mm256_set1_epi64x(1));
    hi = _mm256_blendv_epi8(c[j], hi, empty);
    lo = _mm256_blendv_epi8(_mm256_or_si256(c[j - 1], sticky), lo, empty);
    index = _mm256_blendv_epi8(_mm256_set1_epi64x(j), index, empty);
    below = _mm256_or_si256(below, c[j - 1]);
  }
  const __m256i magic_bits = _mm256_set1_epi64x(0x4330000000000000ll);  // 2^52
  const __m256d magic = _mm256_castsi256_pd(magic_bits);
  const __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi, magic_bits)), magic);
  const __m256d lo_d = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lo, magic_bits)), magic);
  // Chunk j weighs 2^(32 j) units: biased exponent weight0 + 32 j.
  const __m256i hi_exp = _mm256_add_epi64(weight0, _mm256_slli_epi64(index, 5));
  const __m256i lo_exp = _mm256_sub_epi64(hi_exp, _mm256_set1_epi64x(32));
  const __m256d sign = _mm256_castsi256_pd(_mm256_slli_epi64(negm, 63));
  const __m256d s = _mm256_or_pd(
      _mm256_mul_pd(hi_d, _mm256_castsi256_pd(_mm256_slli_epi64(hi_exp, 52))), sign);
  const __m256d p = _mm256_or_pd(
      _mm256_mul_pd(lo_d, _mm256_castsi256_pd(_mm256_slli_epi64(lo_exp, 52))), sign);
  return add_round(s, p, f);
}

/// The row tiles against w one at a time, L limbs per lane. Per term the
/// exact product (_mm256_mul_epi32 of the signed significands) shifts to its
/// bit inside a limb and adds into the limb its position selects; every
/// `flush` terms a carry pass keeps each limb's low 32 bits and moves the
/// rest up one limb, so no limb overflows between passes. Each tile ends in
/// round_quire_lanes and, with a bias, one more add_round. (Interleaving two
/// tiles, as chain_tiles does, ran slower: the limbs alone fill the register
/// file.)
template <int L>
__attribute__((target("avx2"), always_inline)) inline void quire_tiles(
    const std::int64_t* a, std::size_t tiles, const std::int64_t* w, std::size_t k,
    const LaneFormat& f, const double* bias, double* out) {
  const std::size_t flush = quire_lanes_flush(f.spec);
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  const __m256i m31 = _mm256_set1_epi64x(31);
  const __m256i weight0 = _mm256_set1_epi64x(1023 + 2 * f.spec.min_scale());
  for (std::size_t t = 0; t < tiles; ++t, a += k * kLanes, out += kLanes) {
    __m256i limb[L];
    for (int l = 0; l < L; ++l) limb[l] = _mm256_setzero_si256();
    for (std::size_t i0 = 0; i0 < k; i0 += flush) {
      const std::size_t i1 = k - i0 > flush ? i0 + flush : k;
      for (std::size_t i = i0; i < i1; ++i) {
        const __m256i wv = _mm256_set1_epi64x(w[i]);
        const __m256i av = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i * kLanes));
        // Dword adds cannot carry across lanes: the high dwords sum the two
        // offsets whatever the significands in the low dwords.
        const __m256i pos = _mm256_srli_epi64(_mm256_add_epi32(av, wv), 32);
        const __m256i chunk =
            _mm256_sllv_epi64(_mm256_mul_epi32(av, wv), _mm256_and_si256(pos, m31));
        if (L == 1) {
          limb[0] = _mm256_add_epi64(limb[0], chunk);
        } else {
          const __m256i idx = _mm256_srli_epi64(pos, 5);
          for (int l = 0; l < L; ++l) {
            const __m256i hit = _mm256_cmpeq_epi64(idx, _mm256_set1_epi64x(l));
            limb[l] = _mm256_add_epi64(limb[l], _mm256_and_si256(hit, chunk));
          }
        }
      }
      for (int l = 0; l + 1 < L; ++l) {
        limb[l + 1] = _mm256_add_epi64(limb[l + 1], srai64_32(limb[l]));
        limb[l] = _mm256_and_si256(limb[l], lo32);
      }
    }
    __m256d r = round_quire_lanes<L>(limb, f, weight0);
    if (bias != nullptr) r = add_round(r, _mm256_broadcast_sd(bias), f);
    _mm256_storeu_pd(out, r);
  }
}

}  // namespace

__attribute__((target("avx2"), aligned(64))) void quire_lanes_avx2(
    const std::int64_t* a, std::size_t tiles, const std::int64_t* w, std::size_t k,
    const PositSpec& spec, const double* bias, double* out) {
  const LaneFormat f(spec);
  const int limbs = quire_lane_limbs(spec);
  if (limbs == 1) {
    quire_tiles<1>(a, tiles, w, k, f, bias, out);
  } else if (limbs == 2) {
    quire_tiles<2>(a, tiles, w, k, f, bias, out);
  } else {
    quire_tiles<4>(a, tiles, w, k, f, bias, out);  // three limbs run as four
  }
}

namespace {

/// quire_lane_operand of u[0..4) as one vector; ORs the four flag bytes
/// (bits 24..31 of each lane's low dword) into *flags.
__attribute__((target("avx2"), always_inline)) inline __m256i quire_operands4(
    const Unpacked* u, __m256i min_scale, __m256i* flags) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u));
  // Each lane: sig | lsb_weight << 32 | neg << 48 | flags << 56.
  const __m256i hi = _mm256_srli_epi64(v, 32);
  *flags = _mm256_or_si256(*flags, hi);
  const __m256i finite = _mm256_cmpeq_epi64(_mm256_srli_epi64(v, 56), zero);
  const __m256i negm = _mm256_sub_epi64(zero, _mm256_and_si256(_mm256_srli_epi64(v, 48),
                                                                _mm256_set1_epi64x(1)));
  const __m256i sig = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFFll));
  const __m256i signed_sig = _mm256_and_si256(
      _mm256_sub_epi64(_mm256_xor_si256(sig, negm), negm), _mm256_set1_epi64x(0xFFFFFFFFll));
  const __m256i lsb = _mm256_srai_epi32(_mm256_slli_epi32(hi, 16), 16);
  const __m256i offset = _mm256_slli_epi64(_mm256_sub_epi32(lsb, min_scale), 32);
  return _mm256_and_si256(_mm256_or_si256(offset, signed_sig), finite);
}

/// Whether any flag byte ORed into `flags` holds the NaR bit.
__attribute__((target("avx2"), always_inline)) inline bool any_nar(__m256i flags) {
  const __m256i nar = _mm256_and_si256(flags, _mm256_set1_epi64x(Unpacked::kNarFlag << 24));
  return _mm256_testz_si256(nar, nar) == 0;
}

__attribute__((target("avx2"))) std::size_t fill_quire_row_avx2(const Unpacked* row,
                                                                 std::size_t k,
                                                                 const PositSpec& spec,
                                                                 std::int64_t* out, bool* nar) {
  const __m256i min_scale = _mm256_set1_epi64x(static_cast<std::uint32_t>(spec.min_scale()));
  __m256i flags = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        quire_operands4(row + i, min_scale, &flags));
  }
  *nar = *nar || any_nar(flags);
  return i;
}

}  // namespace

#else  // !PDNN_POSIT_X86 — never dispatched to (available() is false).

namespace {

std::size_t fill_quire_row_avx2(const Unpacked*, std::size_t, const PositSpec&, std::int64_t*,
                                bool*) {
  return 0;
}

}  // namespace

void decode_unpacked8_avx2(const std::uint32_t* codes, const PositSpec& spec, Unpacked* out) {
  decode_unpacked(codes, 8, spec, out);
}

std::size_t accumulate_limbs_avx2(const Unpacked*, const Unpacked*, std::size_t, long,
                                  std::uint64_t*, std::uint64_t*, std::size_t, std::uint32_t*) {
  return 0;
}

void rounded_chains_avx2(const double*, std::size_t, const double*, std::size_t, const PositSpec&,
                         bool, const double*, double*) {}

std::size_t batchnorm_lanes_avx2(const float*, std::size_t, const PositSpec&, double, double,
                                 double, float*) {
  return 0;
}

std::size_t residual_join_lanes_avx2(const float*, const float*, std::size_t, const PositSpec&,
                                     float*) {
  return 0;
}

bool encode_lanes_avx2(const float*, std::size_t, std::size_t, const PositSpec&, double*,
                       std::size_t) {
  return false;
}

bool encode_quire_lanes_avx2(const float*, std::size_t, std::size_t, const PositSpec&,
                             std::int64_t*, std::size_t) {
  return false;
}

void quire_lanes_avx2(const std::int64_t*, std::size_t, const std::int64_t*, std::size_t,
                      const PositSpec&, const double*, double*) {}

#endif

bool fill_quire_row(const Unpacked* row, std::size_t k, const PositSpec& spec, std::int64_t* out) {
  bool nar = false;
  const std::size_t head = enabled() ? fill_quire_row_avx2(row, k, spec, out, &nar) : 0;
  for (std::size_t i = head; i < k; ++i) {
    out[i] = quire_lane_operand(row[i], spec);
    nar = nar || row[i].is_nar();
  }
  return nar;
}

}  // namespace pdnn::posit::simd
