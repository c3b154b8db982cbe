#include "quant/posit_inference.hpp"

#include <algorithm>
#include <stdexcept>

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

/// Rows [r0, r1) of the batch's patch panel (ActPlane) from `plane`, the
/// plane's buffer in a's form, into dst: row-major, or `tiled` as 4-row lane
/// tiles counted from r0 (a multiple of kLanes). Terms in the padding read
/// T{}, the zero operand of every form. When row_nar is non-null,
/// row_nar[r - r0] says whether row r reads a NaR code. A worksharing loop
/// over output lines (one image row of output pixels): every thread of the
/// enclosing team must call it.
template <class T>
void gather_rows(const ActPlane& a, const std::vector<T>& plane, std::size_t r0, std::size_t r1,
                 bool tiled, T* dst, unsigned char* row_nar) {
  const tensor::Conv2dGeom& g = a.geom;
  const std::size_t oh = g.out_h(), ow = g.out_w(), k = a.k;
  const std::size_t image = g.in_c * g.in_h * g.in_w;
  const long h = static_cast<long>(g.in_h), w = static_cast<long>(g.in_w);
  const long pad = static_cast<long>(g.pad);
  const std::uint32_t* codes = a.plane->codes.data();
  const std::uint32_t nar = a.spec.nar_code();
#pragma omp for schedule(static)
  for (std::size_t line = r0 / ow; line < (r1 + ow - 1) / ow; ++line) {
    const std::size_t img = line / oh, oy = line % oh, first = line * ow;
    const std::size_t x0 = first < r0 ? r0 - first : 0, x1 = std::min(ow, r1 - first);
    // term(rr, i, src): term i of block row rr reads plane[src], or the
    // padding when src < 0; term by term like im2col.
    const auto walk = [&](auto&& term) {
      for (std::size_t c = 0, i = 0; c < g.in_c; ++c) {
        for (std::size_t ky = 0; ky < g.kh(); ++ky) {
          const long y = static_cast<long>(oy * g.stride + ky) - pad;
          const bool row_in = y >= 0 && y < h;
          const long base = static_cast<long>(img * image + c * g.in_h * g.in_w) + y * w;
          for (std::size_t kx = 0; kx < g.kw(); ++kx, ++i) {
            for (std::size_t ox = x0; ox < x1; ++ox) {
              const long x = static_cast<long>(ox * g.stride + kx) - pad;
              term(first + ox - r0, i, row_in && x >= 0 && x < w ? base + x : -1);
            }
          }
        }
      }
    };
    walk([&](std::size_t rr, std::size_t i, long src) {
      T& slot = tiled ? dst[(rr / kLanes * k + i) * kLanes + rr % kLanes] : dst[rr * k + i];
      slot = src >= 0 ? plane[static_cast<std::size_t>(src)] : T{};
    });
    if (row_nar != nullptr) {
      for (std::size_t ox = x0; ox < x1; ++ox) row_nar[first + ox - r0] = 0;
      walk([&](std::size_t rr, std::size_t, long src) {
        if (src >= 0 && codes[src] == nar) row_nar[rr] = 1;
      });
    }
  }
}

/// A tile's lanes past row `rows` of the block: zero rows.
template <class T>
void zero_tail_lanes(T* tiles, std::size_t rows, std::size_t k) {
  for (std::size_t r = rows; r % kLanes != 0; ++r) {
    for (std::size_t i = 0; i < k; ++i) tiles[(r / kLanes * k + i) * kLanes + r % kLanes] = T{};
  }
}

template <class T>
T* grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
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

ActPlane encode_activation(const float* x, std::size_t batch, const tensor::Conv2dGeom& g,
                           const PositSpec& spec, AccumMode mode, const EngineLuts& luts,
                           OperandBuffers& plane) {
  ActPlane a;
  a.spec = spec;
  a.geom = g;
  a.pixels = g.out_h() * g.out_w();
  a.rows = batch * a.pixels;
  a.k = g.patch();
  a.plane = &plane;
  const OperandForm form = a.form = operand_form(spec, mode, luts, a.rows, a.k);
  // Encode every input element once and decode it once, into the plane.
  const std::size_t count = batch * g.in_c * g.in_h * g.in_w;
  plane.codes.resize(count);
  if (form == OperandForm::kUnpacked) plane.ops.resize(count);
  if (form == OperandForm::kLanes) plane.lanes.resize(count);
  if (form == OperandForm::kQuireLanes) plane.quire.resize(count);
  bool has_nar = false;  // read by the lane forms, where NaR becomes a zero operand
  const std::size_t chunks = (count + kEncodeChunk - 1) / kEncodeChunk;
#pragma omp parallel for schedule(static) reduction(|| : has_nar) if (count > kParallelMin)
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t i0 = c * kEncodeChunk, n = std::min(kEncodeChunk, count - i0);
    std::uint32_t* const codes = plane.codes.data() + i0;
    for (std::size_t i = 0; i < n; ++i) {
      codes[i] = posit::from_double(x[i0 + i], spec, kEncodeRound);
    }
    if (form == OperandForm::kCodes) continue;
    Unpacked buf[kEncodeChunk];
    Unpacked* const ops = form == OperandForm::kUnpacked ? plane.ops.data() + i0 : buf;
    posit::decode_unpacked(codes, n, spec, ops);
    if (form == OperandForm::kLanes) {
      has_nar = posit::simd::fill_lane_row(ops, n, plane.lanes.data() + i0) || has_nar;
    } else if (form == OperandForm::kQuireLanes) {
      has_nar = posit::simd::fill_quire_row(ops, n, spec, plane.quire.data() + i0) || has_nar;
    }
  }
  a.has_nar = has_nar;
  return a;
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
#pragma omp single nowait
      {
        if (lanes) zero_tail_lanes(planes, n, k);
        if (qlanes) zero_tail_lanes(pquire, n, k);
      }
      switch (form) {
        case OperandForm::kCodes: gather_rows(a, a.plane->codes, r0, r1, false, pcodes, nullptr); break;
        case OperandForm::kUnpacked: gather_rows(a, a.plane->ops, r0, r1, false, pops, nullptr); break;
        case OperandForm::kLanes: gather_rows(a, a.plane->lanes, r0, r1, true, planes, a_nar); break;
        case OperandForm::kQuireLanes: gather_rows(a, a.plane->quire, r0, r1, true, pquire, a_nar); break;
      }

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
            posit::simd::quire_lanes_avx2(pquire, tiles, wr.quire + wk, k, spec, bptr, sums);
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
