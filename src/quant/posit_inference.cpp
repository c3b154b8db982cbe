#include "quant/posit_inference.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "posit/accum.hpp"
#include "posit/simd.hpp"
#include "quant/engine_gemm.hpp"
#include "tensor/ops.hpp"

namespace pdnn::quant {

using posit::PackedPositTensor;
using posit::PositSpec;
using posit::Unpacked;
using tensor::Tensor;

namespace detail {

namespace {

using posit::simd::kLanes;

/// Per-thread engine scratch. The calling thread's `a` holds the gathered
/// row block of its current GEMM (a_nar: which of its rows read a NaR, for
/// the lane forms). `w` holds weight rows in operand form (w_nar: which
/// rows hold a NaR): all of them in the calling thread's when the GEMM
/// runs more than one row block, else the one each team thread streams.
/// Each team thread's `row` stages a weight row's codes and Unpacked on
/// the way, and out_lanes holds a lane kernel's outputs for one column.
/// Grow-only and thread-local: scratch, not model footprint.
struct DecodeScratch {
  OperandBuffers a, w, row;
  std::vector<unsigned char> a_nar, w_nar;
  std::vector<double> out_lanes;
};
thread_local DecodeScratch tl_scratch;

/// Input elements per work item of the plane encode and decode.
constexpr std::size_t kEncodeChunk = 256;

/// Encode passes over fewer elements stay on the calling thread.
constexpr std::size_t kParallelMin = 4096;

/// Bytes of gathered patches one row block may hold: the block is streamed
/// once per output column, so it should stay in a core's L2.
constexpr std::size_t kPanelBlockBytes = std::size_t{512} << 10;

OperandForm operand_form(const PositSpec& spec, AccumMode mode, const EngineLuts& luts,
                         std::size_t rows, std::size_t k) {
  // A lone activation row stays on Quire: in a four-row tile it leaves
  // three lanes idle, and Quire's own AVX2 deposit is faster there.
  if ((mode == AccumMode::kSerial && luts.mul != nullptr && luts.add != nullptr) ||
      (mode == AccumMode::kFma && luts.fma != nullptr)) {
    return OperandForm::kCodes;
  }
  if (!posit::simd::enabled()) return OperandForm::kUnpacked;
  if (mode != AccumMode::kQuire) {
    return posit::simd::rounded_lanes_supported(spec) ? OperandForm::kLanes
                                                      : OperandForm::kUnpacked;
  }
  return rows > 1 && posit::simd::quire_lanes_supported(spec, k) ? OperandForm::kQuireLanes
                                                                 : OperandForm::kUnpacked;
}

std::size_t operand_bytes(OperandForm form) {
  switch (form) {
    case OperandForm::kCodes: return sizeof(std::uint32_t);
    case OperandForm::kUnpacked: return sizeof(Unpacked);
    case OperandForm::kLanes: return sizeof(double);
    case OperandForm::kQuireLanes: return sizeof(std::int64_t);
  }
  return sizeof(double);
}

/// Row r's first patch term in the halo plane (see ActPlane), stepped one
/// row at a time: seek() divides once, next() only adds.
class RowCursor {
 public:
  explicit RowCursor(const ActPlane& a)
      : ow_(a.geom.out_w()),
        oh_(a.geom.out_h()),
        pixels_(a.pixels),
        step_x_(a.geom.stride),
        step_y_(a.geom.stride * a.plane_w),
        image_(a.geom.in_c * a.plane_h * a.plane_w) {}

  void seek(std::size_t r) {
    img_ = r / pixels_;
    oy_ = r % pixels_ / ow_;
    ox_ = r % pixels_ % ow_;
    base_ = img_ * image_ + oy_ * step_y_ + ox_ * step_x_;
  }

  void next() {
    base_ += step_x_;
    if (++ox_ != ow_) return;
    ox_ = 0;
    if (++oy_ == oh_) {
      oy_ = 0;
      ++img_;
    }
    base_ = img_ * image_ + oy_ * step_y_;
  }

  std::size_t base() const { return base_; }

 private:
  std::size_t ow_, oh_, pixels_, step_x_, step_y_, image_;
  std::size_t img_ = 0, oy_ = 0, ox_ = 0, base_ = 0;
};

/// Rows [r0, r1) of the batch's patch panel from `plane`, the plane's
/// buffer in a's row-major form, into dst (row rr - r0 at dst + rr * k).
/// A worksharing loop over rows: every thread of the enclosing team must
/// call it.
template <class T>
void gather_rows(const ActPlane& a, const T* plane, std::size_t r0, std::size_t r1, T* dst) {
  const std::size_t k = a.k, n = r1 - r0;
  const std::size_t* const off = a.plane->term_off.data();
  RowCursor cur(a);
  std::size_t at = n;  // the row `cur` stands at
#pragma omp for schedule(static)
  for (std::size_t rr = 0; rr < n; ++rr) {
    if (rr != at) cur.seek(r0 + rr);
    const T* const src = plane + cur.base();
    T* const d = dst + rr * k;
    for (std::size_t i = 0; i < k; ++i) d[i] = src[off[i]];
    cur.next();
    at = rr + 1;
  }
}

/// The lane forms only run where posit::simd::enabled() holds, so their
/// gather may use AVX2: a tile's four operands per term move as one
/// 32-byte load and store.
#if defined(__x86_64__) || defined(__i386__)
#define PDNN_LANE_GATHER __attribute__((target("avx2")))

/// A quire tile's QuireSpan, accumulated four operands (one term) at a time
/// as the gather copies them: per dword pair the high dword is the offset,
/// turned to INT32_MAX for the min and -1 for the max where the operand is
/// zero; the low dwords' results are never read.
class TileSpan {
 public:
  PDNN_LANE_GATHER TileSpan()
      : lo_(_mm256_set1_epi32(INT32_MAX)),
        hi_(_mm256_set1_epi32(-1)),
        top_(_mm256_set1_epi64x(static_cast<long long>(INT32_MAX) << 32)) {}

  PDNN_LANE_GATHER void add(__m256i v) {
    const __m256i z = _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
    lo_ = _mm256_min_epi32(lo_, _mm256_or_si256(v, _mm256_and_si256(z, top_)));
    hi_ = _mm256_max_epi32(hi_, _mm256_or_si256(v, z));
  }
  PDNN_LANE_GATHER void add(const std::int64_t* four) {
    add(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(four)));
  }
  PDNN_LANE_GATHER void add(std::int64_t v0, std::int64_t v1, std::int64_t v2, std::int64_t v3) {
    add(_mm256_setr_epi64x(v0, v1, v2, v3));
  }

  PDNN_LANE_GATHER posit::simd::QuireSpan span() const {
    alignas(32) std::int32_t lo[8], hi[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lo), lo_);
    _mm256_store_si256(reinterpret_cast<__m256i*>(hi), hi_);
    return {std::min({lo[1], lo[3], lo[5], lo[7]}), std::max({hi[1], hi[3], hi[5], hi[7]})};
  }

 private:
  __m256i lo_, hi_, top_;
};
#else
#define PDNN_LANE_GATHER

/// TileSpan off x86, where the lane forms never run: one operand at a time.
class TileSpan {
 public:
  void add(const std::int64_t* four) { widen(posit::simd::quire_span(four, kLanes)); }
  void add(std::int64_t v0, std::int64_t v1, std::int64_t v2, std::int64_t v3) {
    const std::int64_t four[kLanes] = {v0, v1, v2, v3};
    add(four);
  }
  posit::simd::QuireSpan span() const { return s_; }

 private:
  void widen(posit::simd::QuireSpan t) {
    s_.lo = std::min(s_.lo, t.lo);
    s_.hi = std::max(s_.hi, t.hi);
  }
  posit::simd::QuireSpan s_;
};
#endif

/// gather_rows for the lane forms: 4-row tiles counted from r0 (a multiple
/// of kLanes), tile-major, lanes past r1 zero. A tile whose four rows are
/// adjacent in the plane (one output line, stride 1) copies four operands
/// per term; any other reads each lane on its own. For the quire lanes
/// (T = int64) spans[t] gets tile t's QuireSpan from the same pass. When
/// row_nar is non-null, row_nar[r - r0] says whether row r reads a NaR
/// code.
template <class T>
PDNN_LANE_GATHER void gather_tiles(const ActPlane& a, const T* plane, std::size_t r0,
                                   std::size_t r1, T* dst, posit::simd::QuireSpan* spans,
                                   unsigned char* row_nar) {
  constexpr bool kQuire = std::is_same_v<T, std::int64_t>;
  const std::size_t k = a.k, n = r1 - r0, tiles = (n + kLanes - 1) / kLanes;
  const std::size_t* const off = a.plane->term_off.data();
  const std::uint32_t* const codes = a.plane->codes.data();
  const std::uint32_t nar = a.spec.nar_code();
  RowCursor cur(a);
  std::size_t at = tiles;  // the tile `cur` stands at
#pragma omp for schedule(static)
  for (std::size_t t = 0; t < tiles; ++t) {
    if (t != at) cur.seek(r0 + t * kLanes);
    const std::size_t lanes = std::min(kLanes, n - t * kLanes);
    std::size_t base[kLanes] = {};
    for (std::size_t l = 0; l < lanes; ++l, cur.next()) base[l] = cur.base();
    at = t + 1;
    T* const tile = dst + t * k * kLanes;
    TileSpan span;
    if (lanes == kLanes && base[kLanes - 1] - base[0] == kLanes - 1) {
      // Row bases only grow, so this span holds the four rows in order.
      const T* const src = plane + base[0];
      for (std::size_t i = 0; i < k; ++i) {
        std::memcpy(tile + i * kLanes, src + off[i], kLanes * sizeof(T));
        if constexpr (kQuire) span.add(src + off[i]);
      }
    } else if (lanes == kLanes) {
      for (std::size_t i = 0; i < k; ++i) {
        const T* const src = plane + off[i];
        T* const d = tile + i * kLanes;
        d[0] = src[base[0]];
        d[1] = src[base[1]];
        d[2] = src[base[2]];
        d[3] = src[base[3]];
        if constexpr (kQuire) span.add(d[0], d[1], d[2], d[3]);
      }
    } else {
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          tile[i * kLanes + l] = l < lanes ? plane[base[l] + off[i]] : T{};
        }
        if constexpr (kQuire) span.add(tile + i * kLanes);
      }
    }
    if constexpr (kQuire) spans[t] = span.span();
    if (row_nar != nullptr) {
      for (std::size_t l = 0; l < lanes; ++l) {
        bool hit = false;
        for (std::size_t i = 0; i < k; ++i) hit = hit || codes[base[l] + off[i]] == nar;
        row_nar[t * kLanes + l] = hit ? 1 : 0;
      }
    }
  }
}

template <class T>
T* grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// v sized to exactly n elements (capacity grow-only).
template <class T>
T* grow_to(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  return v.data();
}

/// `count` weight rows of k terms in `form`, in s.w, and their NaR flags
/// for the lane forms; null where the form does not read them.
struct WeightRows {
  std::uint32_t* codes = nullptr;
  Unpacked* ops = nullptr;
  double* lanes = nullptr;
  std::int64_t* quire = nullptr;
  unsigned char* nar = nullptr;
};

WeightRows weight_rows(DecodeScratch& s, OperandForm form, std::size_t count, std::size_t k) {
  WeightRows r;
  switch (form) {
    case OperandForm::kCodes: r.codes = grow(s.w.codes, count * k); break;
    case OperandForm::kUnpacked: r.ops = grow(s.w.ops, count * k); break;
    case OperandForm::kLanes: r.lanes = grow(s.w.lanes, count * k); break;
    case OperandForm::kQuireLanes: r.quire = grow(s.w.quire, count * k); break;
  }
  if (r.lanes != nullptr || r.quire != nullptr) r.nar = grow(s.w_nar, count);
  return r;
}

}  // namespace

std::size_t engine_scratch_bytes() {
  const DecodeScratch& s = tl_scratch;
  return s.a.bytes() + s.w.bytes() + s.row.bytes() + s.a_nar.capacity() + s.w_nar.capacity() +
         s.out_lanes.capacity() * sizeof(double);
}

EngineLuts resolve_luts(const PositSpec& spec, AccumMode mode) {
  // The tables tabulate the *arithmetic* rounding of the engine
  // (nearest-even, the default of posit::add/mul/fma), which is independent
  // of the kEncodeRound float->posit encode constant.
  constexpr posit::RoundMode kArith = posit::RoundMode::kNearestEven;
  EngineLuts luts;
  if (posit::add_lut_supported(spec, kArith)) luts.add = &posit::add_lut(spec, kArith);
  if (mode == AccumMode::kSerial && posit::mul_lut_supported(spec, kArith)) {
    luts.mul = &posit::mul_lut(spec, kArith);
  }
  if (mode == AccumMode::kFma && posit::fma_lut_supported(spec, kArith)) {
    luts.fma = &posit::fma_lut(spec, kArith);
  }
  return luts;
}

namespace {

/// Zero the pad-wide border of one image channel's [plane_h, plane_w] grid:
/// the top rows, each right pad with the next row's left pad, the bottom
/// rows.
template <class T>
void zero_halo(T* ch, const ActPlane& a) {
  const std::size_t pad = a.geom.pad, pw = a.plane_w, in_w = a.geom.in_w;
  const std::size_t last = pad + a.geom.in_h - 1;  // the last interior row
  std::fill(ch, ch + pad * pw + pad, T{});
  for (std::size_t y = pad; y < last; ++y) {
    T* const right = ch + y * pw + pad + in_w;
    std::fill(right, right + 2 * pad, T{});
  }
  std::fill(ch + last * pw + pad + in_w, ch + a.plane_h * pw, T{});
}

/// One work item of the plane encode: `rows` rows of `width` floats at src,
/// row r landing at plane offset dst + r * stride.
struct EncodeItem {
  const float* src;
  std::size_t rows, width, dst, stride;
};

}  // namespace

ActPlane encode_activation(const float* x, std::size_t batch, const tensor::Conv2dGeom& g,
                           const PositSpec& spec, AccumMode mode, const EngineLuts& luts,
                           OperandBuffers& plane) {
  ActPlane a;
  a.spec = spec;
  a.geom = g;
  a.pixels = g.out_h() * g.out_w();
  a.rows = batch * a.pixels;
  a.k = g.patch();
  a.plane_h = g.in_h + 2 * g.pad;
  a.plane_w = g.in_w + 2 * g.pad;
  a.plane = &plane;
  const OperandForm form = a.form = operand_form(spec, mode, luts, a.rows, a.k);

  plane.term_off.resize(a.k);
  for (std::size_t c = 0, i = 0; c < g.in_c; ++c) {
    for (std::size_t ky = 0; ky < g.kh(); ++ky) {
      for (std::size_t kx = 0; kx < g.kw(); ++kx, ++i) {
        plane.term_off[i] = (c * a.plane_h + ky) * a.plane_w + kx;
      }
    }
  }

  // Work items: one image channel each under a halo; without one the plane
  // is x's own layout, cut into kEncodeChunk elements.
  const std::size_t channel = a.plane_h * a.plane_w;
  const std::size_t count = batch * g.in_c * channel;
  const bool haloed = g.pad != 0;
  const std::size_t items = haloed ? batch * g.in_c : (count + kEncodeChunk - 1) / kEncodeChunk;
  const auto item = [&](std::size_t j) {
    if (haloed) {
      return EncodeItem{x + j * g.in_h * g.in_w, g.in_h, g.in_w,
                        j * channel + g.pad * a.plane_w + g.pad, a.plane_w};
    }
    const std::size_t i0 = j * kEncodeChunk, n = std::min(kEncodeChunk, count - i0);
    return EncodeItem{x + i0, 1, n, i0, n};
  };
  const bool team = count > kParallelMin;

  // The lane forms encode straight from the floats; a NaN or +-Inf stops
  // them, and the coded encode below redoes the plane with its NaR codes.
  bool coded = true;
  if (form == OperandForm::kLanes || form == OperandForm::kQuireLanes) {
    const bool quire = form == OperandForm::kQuireLanes;
    double* const lanes = quire ? nullptr : grow_to(plane.lanes, count);
    std::int64_t* const qops = quire ? grow_to(plane.quire, count) : nullptr;
    bool finite = true;
#pragma omp parallel for schedule(static) reduction(&& : finite) if (team)
    for (std::size_t j = 0; j < items; ++j) {
      const EncodeItem it = item(j);
      if (quire) {
        if (haloed) zero_halo(qops + j * channel, a);
        finite = posit::simd::encode_quire_lanes_avx2(it.src, it.rows, it.width, spec,
                                                      qops + it.dst, it.stride) &&
                 finite;
      } else {
        if (haloed) zero_halo(lanes + j * channel, a);
        finite = posit::simd::encode_lanes_avx2(it.src, it.rows, it.width, spec, lanes + it.dst,
                                                it.stride) &&
                 finite;
      }
    }
    coded = !finite;
  }
  if (!coded) return a;

  // The coded encode: every element through from_double into the halo
  // plane of codes, then the whole plane (code 0 in the halo decodes to
  // T{}) decoded once into the form.
  std::uint32_t* const codes = grow_to(plane.codes, count);
  if (form == OperandForm::kUnpacked) grow_to(plane.ops, count);
  if (form == OperandForm::kLanes) grow_to(plane.lanes, count);
  if (form == OperandForm::kQuireLanes) grow_to(plane.quire, count);
  bool has_nar = false;  // read by the lane forms, where NaR becomes a zero operand
  const std::size_t chunks = (count + kEncodeChunk - 1) / kEncodeChunk;
#pragma omp parallel if (team)
  {
#pragma omp for schedule(static)
    for (std::size_t j = 0; j < items; ++j) {
      const EncodeItem it = item(j);
      if (haloed) zero_halo(codes + j * channel, a);
      for (std::size_t r = 0; r < it.rows; ++r) {
        std::uint32_t* const dst = codes + it.dst + r * it.stride;
        const float* const src = it.src + r * it.width;
        for (std::size_t i = 0; i < it.width; ++i) {
          dst[i] = posit::from_double(src[i], spec, kEncodeRound);
        }
      }
    }
    if (form != OperandForm::kCodes) {
#pragma omp for schedule(static) reduction(|| : has_nar)
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t i0 = c * kEncodeChunk, n = std::min(kEncodeChunk, count - i0);
        Unpacked buf[kEncodeChunk];
        Unpacked* const ops = form == OperandForm::kUnpacked ? plane.ops.data() + i0 : buf;
        posit::decode_unpacked(codes + i0, n, spec, ops);
        if (form == OperandForm::kLanes) {
          has_nar = posit::simd::fill_lane_row(ops, n, plane.lanes.data() + i0) || has_nar;
        } else if (form == OperandForm::kQuireLanes) {
          has_nar = posit::simd::fill_quire_row(ops, n, spec, plane.quire.data() + i0) || has_nar;
        }
      }
    }
  }
  a.has_nar = has_nar;
  return a;
}

void gather_panel(const ActPlane& a, std::size_t r0, std::size_t r1, OperandBuffers& block,
                  unsigned char* row_nar) {
  switch (a.form) {
    case OperandForm::kCodes:
      gather_rows(a, a.plane->codes.data(), r0, r1, block.codes.data());
      break;
    case OperandForm::kUnpacked:
      gather_rows(a, a.plane->ops.data(), r0, r1, block.ops.data());
      break;
    case OperandForm::kLanes:
      gather_tiles(a, a.plane->lanes.data(), r0, r1, block.lanes.data(), nullptr, row_nar);
      break;
    case OperandForm::kQuireLanes:
      gather_tiles(a, a.plane->quire.data(), r0, r1, block.quire.data(), block.spans.data(),
                   row_nar);
      break;
  }
}

void engine_gemm(const ActPlane& a, const PackedPositTensor& w, const PackedPositTensor& bias,
                 std::size_t cols, AccumMode mode, float* out, const EngineLuts& luts,
                 posit::Quire* quire_pool) {
  const PositSpec spec = w.spec;
  const std::size_t rows = a.rows, k = a.k, pixels = a.pixels;
  if (rows == 0 || cols == 0) return;
  const OperandForm form = a.form;
  const bool codes = form == OperandForm::kCodes;
  const bool lanes = form == OperandForm::kLanes;
  const bool qlanes = form == OperandForm::kQuireLanes;
  const bool tiled = lanes || qlanes;
  const float nar_out = static_cast<float>(posit::to_double(spec.nar_code(), spec));
  // Row blocks of whole tiles that fit kPanelBlockBytes (at least one tile).
  const std::size_t fit = kPanelBlockBytes / (std::max<std::size_t>(k, 1) * operand_bytes(form));
  const std::size_t block =
      std::min(std::max(fit / kLanes, std::size_t{1}), (rows + kLanes - 1) / kLanes) * kLanes;

  // Shared by the team: the calling thread's panel block and, when later
  // blocks read them again, every weight row.
  const bool keep = rows > block;
  DecodeScratch& host = tl_scratch;
  const WeightRows kept = keep ? weight_rows(host, form, cols, k) : WeightRows{};
  unsigned char* const a_nar = tiled && a.has_nar ? grow(host.a_nar, block) : nullptr;
  std::uint32_t* const pcodes = codes ? grow(host.a.codes, block * k) : nullptr;
  Unpacked* const pops = form == OperandForm::kUnpacked ? grow(host.a.ops, block * k) : nullptr;
  double* const planes = lanes ? grow(host.a.lanes, block * k) : nullptr;
  std::int64_t* const pquire = qlanes ? grow(host.a.quire, block * k) : nullptr;
  const posit::simd::QuireSpan* const pspans =
      qlanes ? grow(host.a.spans, block / kLanes) : nullptr;

#pragma omp parallel
  {
    posit::Quire* quire = mode == AccumMode::kQuire ? &quire_pool[engine_thread_id()] : nullptr;
    // Rounded chains without a LUT off the lane kernel: the running sum
    // stays unpacked and is packed once per output (posit/accum.hpp).
    posit::RoundedAccum racc(spec);
    DecodeScratch& scratch = tl_scratch;
    const WeightRows wr = keep ? kept : weight_rows(scratch, form, 1, k);
    std::uint32_t* const row_codes = codes ? nullptr : grow(scratch.row.codes, k);
    Unpacked* const row_ops = tiled ? grow(scratch.row.ops, k) : nullptr;
    double* const sums = tiled ? grow(scratch.out_lanes, block) : nullptr;

    for (std::size_t r0 = 0; r0 < rows; r0 += block) {
      const std::size_t r1 = std::min(rows, r0 + block), n = r1 - r0;
      const std::size_t tiles = (n + kLanes - 1) / kLanes;
      gather_panel(a, r0, r1, host.a, a_nar);

#pragma omp for schedule(static)
      for (std::size_t o = 0; o < cols; ++o) {
        // Weight row o in operand form: wr's row `wo`, unpacked and decoded
        // by the first block.
        const std::size_t wo = keep ? o : 0, wk = wo * k;
        if (r0 == 0) {
          std::uint32_t* const c = codes ? wr.codes + wk : row_codes;
          posit::unpack_codes(w.packed.data(), o * k, k, spec, c);
          if (!codes) posit::decode_unpacked(c, k, spec, wr.ops != nullptr ? wr.ops + wk : row_ops);
          if (lanes) wr.nar[wo] = posit::simd::fill_lane_row(row_ops, k, wr.lanes + wk);
          if (qlanes) wr.nar[wo] = posit::simd::fill_quire_row(row_ops, k, spec, wr.quire + wk);
        }
        const std::uint32_t bcode =
            bias.count != 0 ? posit::unpack_one(bias.packed.data(), o, bias.spec) : 0u;
        // Row r's output: image r / pixels, plane o, pixel r % pixels.
        std::size_t img = r0 / pixels, px = r0 % pixels;
        const auto store = [&](float v) {
          out[(img * cols + o) * pixels + px] = v;
          if (++px == pixels) {
            px = 0;
            ++img;
          }
        };
        if (tiled) {
          // Each output as the exact double of its posit, bias added in the
          // same domain; static_cast<float> of it is the float to_double of
          // the code would give. NaR in a row, the weight row or the bias
          // makes the output NaR whatever the order.
          const Unpacked bu = posit::decode_unpacked(bcode, spec);
          const double bvalue = posit::simd::lane_value(bu);
          const double* const bptr = bias.count != 0 ? &bvalue : nullptr;
          const bool col_nar = wr.nar[wo] != 0 || (bias.count != 0 && bu.is_nar());
          if (lanes) {
            posit::simd::rounded_chains_avx2(planes, tiles, wr.lanes + wk, k, spec,
                                             mode == AccumMode::kFma, bptr, sums);
          } else {
            posit::simd::quire_lanes_avx2(pquire, tiles, pspans, wr.quire + wk, k, spec, bptr,
                                          sums);
          }
          for (std::size_t r = 0; r < n; ++r) {
            const bool nar = col_nar || (a_nar != nullptr && a_nar[r] != 0);
            store(nar ? nar_out : static_cast<float>(sums[r]));
          }
          continue;
        }
        const std::uint32_t* const wc = codes ? wr.codes + wk : nullptr;
        const Unpacked* const wrow = codes ? nullptr : wr.ops + wk;
        for (std::size_t r = 0; r < n; ++r) {
          std::uint32_t acc = 0;
          switch (mode) {
            case AccumMode::kQuire:
              quire->clear();
              quire->accumulate_dot(pops + r * k, wrow, k);
              acc = quire->to_posit();
              break;
            case AccumMode::kSerial:
              if (codes) {
                // Two table reads per term: the multiply and the accumulator
                // add both come out of L2-resident LUTs.
                const std::uint32_t* const ac = pcodes + r * k;
                for (std::size_t i = 0; i < k; ++i) acc = luts.add->at(acc, luts.mul->at(ac[i], wc[i]));
              } else {
                racc.clear();
                racc.serial_dot(pops + r * k, wrow, k);
                acc = racc.to_posit();
              }
              break;
            case AccumMode::kFma:
              if (codes) {
                const std::uint32_t* const ac = pcodes + r * k;
                for (std::size_t i = 0; i < k; ++i) acc = luts.fma->at(ac[i], wc[i], acc);
              } else {
                racc.clear();
                racc.fma_dot(pops + r * k, wrow, k);
                acc = racc.to_posit();
              }
              break;
          }
          if (bias.count != 0) {
            acc = luts.add != nullptr ? luts.add->at(acc, bcode) : posit::add(acc, bcode, spec);
          }
          store(static_cast<float>(posit::to_double(acc, spec)));
        }
      }
    }
  }
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Retained scalar reference path (pre-engine implementation, verbatim
// semantics): coded operands, a full decode per multiply-accumulate, weights
// re-encoded from float on every call.
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> encode_tensor(const Tensor& t, const PositSpec& spec) {
  std::vector<std::uint32_t> codes(t.numel());
  for (std::size_t i = 0; i < t.numel(); ++i) {
    codes[i] = posit::from_double(t[i], spec, kEncodeRound);
  }
  return codes;
}

/// Dot product of two code vectors under the selected accumulation mode.
std::uint32_t dot(const std::uint32_t* a, const std::uint32_t* b, std::size_t count,
                  const PositSpec& spec, AccumMode mode, posit::Quire* quire) {
  switch (mode) {
    case AccumMode::kQuire: {
      quire->clear();
      for (std::size_t i = 0; i < count; ++i) quire->add_product(a[i], b[i]);
      return quire->to_posit();
    }
    case AccumMode::kSerial: {
      std::uint32_t acc = 0;
      for (std::size_t i = 0; i < count; ++i) {
        acc = posit::add(acc, posit::mul(a[i], b[i], spec), spec);
      }
      return acc;
    }
    case AccumMode::kFma: {
      std::uint32_t acc = 0;
      for (std::size_t i = 0; i < count; ++i) acc = posit::fma(a[i], b[i], acc, spec);
      return acc;
    }
  }
  return 0;
}

}  // namespace

void encode_pack_into(const float* src, std::size_t count, const PositSpec& spec,
                      PackedPositTensor& out) {
  out.spec = spec;
  out.count = count;
  out.packed.assign(posit::packed_capacity(count, spec), 0u);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t code = posit::from_double(src[i], spec, kEncodeRound);
    posit::pack_codes(&code, i, 1, spec, out.packed.data());
  }
}

// ---------------------------------------------------------------------------
// Reference path
// ---------------------------------------------------------------------------

Tensor posit_linear_reference(const Tensor& x, const Tensor& w, const Tensor& bias,
                              const PositSpec& spec, AccumMode mode) {
  const std::size_t n = x.shape()[0], in = x.shape()[1], out = w.shape()[0];
  if (w.shape()[1] != in) throw std::invalid_argument("posit_linear: shape mismatch");
  const auto xc = encode_tensor(x, spec);
  const auto wc = encode_tensor(w, spec);
  const auto bc = bias.numel() > 0 ? encode_tensor(bias, spec) : std::vector<std::uint32_t>();
  posit::Quire quire(spec);

  Tensor y({n, out});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out; ++o) {
      std::uint32_t acc = dot(xc.data() + i * in, wc.data() + o * in, in, spec, mode, &quire);
      if (!bc.empty()) acc = posit::add(acc, bc[o], spec);
      y.at(i, o) = static_cast<float>(posit::to_double(acc, spec));
    }
  }
  return y;
}

Tensor posit_conv2d_reference(const Tensor& x, const Tensor& w, const Tensor& bias,
                              const tensor::Conv2dGeom& geom, const PositSpec& spec, AccumMode mode) {
  geom.validate();
  const std::size_t batch = x.shape()[0];
  const std::size_t oh = geom.out_h(), ow = geom.out_w();
  const std::size_t patch = geom.patch();
  const auto wc = encode_tensor(w, spec);
  const auto bc = bias.numel() > 0 ? encode_tensor(bias, spec) : std::vector<std::uint32_t>();
  posit::Quire quire(spec);

  Tensor out({batch, geom.out_c, oh, ow});
  Tensor cols({patch, oh * ow});
  for (std::size_t nidx = 0; nidx < batch; ++nidx) {
    tensor::im2col(x.data() + nidx * geom.in_c * geom.in_h * geom.in_w, geom, cols.data());
    // Encode the unfolded image, transposed so each output pixel's patch is
    // contiguous.
    std::vector<std::uint32_t> cc(patch * oh * ow);
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t t = 0; t < oh * ow; ++t) {
        cc[t * patch + p] = posit::from_double(cols[p * (oh * ow) + t], spec, kEncodeRound);
      }
    }
    for (std::size_t o = 0; o < geom.out_c; ++o) {
      for (std::size_t t = 0; t < oh * ow; ++t) {
        std::uint32_t acc = dot(cc.data() + t * patch, wc.data() + o * patch, patch, spec, mode, &quire);
        if (!bc.empty()) acc = posit::add(acc, bc[o], spec);
        out[((nidx * geom.out_c + o) * oh * ow) + t] = static_cast<float>(posit::to_double(acc, spec));
      }
    }
  }
  return out;
}

}  // namespace pdnn::quant
