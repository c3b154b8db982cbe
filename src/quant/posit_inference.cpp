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
/// activation panel of its current GEMM and `a_nar` its lane tiles' NaR
/// rows; each team thread's `w` holds the weight row it streams (codes, and
/// the kernel's operand form) and out_* a lane kernel's column outputs.
/// Grow-only and thread-local: scratch, not model footprint.
struct DecodeScratch {
  OperandBuffers a, w;
  std::vector<unsigned> a_nar;
  std::vector<double> out_lanes;
  std::vector<std::uint32_t> out_codes;
};
thread_local DecodeScratch tl_scratch;

/// Input elements per work item of the plane encode and decode.
constexpr std::size_t kEncodeChunk = 256;

/// Encode and gather passes over fewer elements stay on the calling thread.
constexpr std::size_t kParallelMin = 4096;

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

/// Gather every im2col patch of `plane` (one element per input element,
/// any operand form) into `panel`: row-major, or `tiled` as 4-row lane tiles
/// whose lanes past the last row are zero. Terms in the padding read T{},
/// the zero operand of every form.
template <class T>
void gather_panel(const std::vector<T>& plane, const tensor::Conv2dGeom& g, bool tiled,
                  std::vector<T>& panel) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), rows = oh * ow, k = g.patch();
  const std::size_t padded = tiled ? (rows + kLanes - 1) / kLanes * kLanes : rows;
  panel.resize(padded * k);
  T* const dst = panel.data();
  // Term i of patch r: dst[r * k + i], or lane r % 4 of tile r / 4.
  const auto at = [=](std::size_t r, std::size_t i) -> T& {
    return tiled ? dst[(r / kLanes * k + i) * kLanes + r % kLanes] : dst[r * k + i];
  };
  const long h = static_cast<long>(g.in_h), w = static_cast<long>(g.in_w);
  const long pad = static_cast<long>(g.pad);
  // One row of output pixels per work item, term by term like im2col.
#pragma omp parallel for schedule(static) if (rows * k > kParallelMin)
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t c = 0, i = 0; c < g.in_c; ++c) {
      for (std::size_t ky = 0; ky < g.kh(); ++ky) {
        const long y = static_cast<long>(oy * g.stride + ky) - pad;
        const bool row_in = y >= 0 && y < h;
        const T* line = plane.data() + c * g.in_h * g.in_w + (row_in ? y * w : 0);
        for (std::size_t kx = 0; kx < g.kw(); ++kx, ++i) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long x = static_cast<long>(ox * g.stride + kx) - pad;
            at(oy * ow + ox, i) = row_in && x >= 0 && x < w ? line[x] : T{};
          }
        }
      }
    }
  }
  for (std::size_t r = rows; r < padded; ++r) {
    for (std::size_t i = 0; i < k; ++i) at(r, i) = T{};
  }
}

}  // namespace

std::size_t engine_scratch_bytes() {
  const DecodeScratch& s = tl_scratch;
  return s.a.bytes() + s.w.bytes() + s.a_nar.capacity() * sizeof(unsigned) +
         s.out_lanes.capacity() * sizeof(double) + s.out_codes.capacity() * sizeof(std::uint32_t);
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

ActOperands gather_activation(const float* x, const tensor::Conv2dGeom& g, const PositSpec& spec,
                              AccumMode mode, const EngineLuts& luts, OperandBuffers& plane) {
  ActOperands a;
  a.rows = g.out_h() * g.out_w();
  a.k = g.patch();
  const OperandForm form = a.form = operand_form(spec, mode, luts, a.rows, a.k);
  // Encode every input element once and decode it once, into the plane.
  const std::size_t count = g.in_c * g.in_h * g.in_w;
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
  DecodeScratch& host = tl_scratch;
  switch (form) {
    case OperandForm::kCodes: gather_panel(plane.codes, g, false, host.a.codes); break;
    case OperandForm::kUnpacked: gather_panel(plane.ops, g, false, host.a.ops); break;
    case OperandForm::kLanes: gather_panel(plane.lanes, g, true, host.a.lanes); break;
    case OperandForm::kQuireLanes: gather_panel(plane.quire, g, true, host.a.quire); break;
  }
  a.panel = &host.a;
  if (form == OperandForm::kLanes || form == OperandForm::kQuireLanes) {
    // The rows that gathered a NaR, found again through the codes.
    host.a_nar.assign((a.rows + kLanes - 1) / kLanes, 0u);
    a.nar = host.a_nar.data();
    if (has_nar) gather_panel(plane.codes, g, false, host.a.codes);
    for (std::size_t i = 0; has_nar && i < a.rows * a.k; ++i) {
      const std::size_t r = i / a.k;
      if (host.a.codes[i] == spec.nar_code()) host.a_nar[r / kLanes] |= 1u << (r % kLanes);
    }
  }
  return a;
}

void engine_gemm(const ActOperands& a, const PackedPositTensor& w, const PackedPositTensor& bias,
                 std::size_t cols, AccumMode mode, float* out, std::size_t row_stride,
                 std::size_t col_stride, const EngineLuts& luts, posit::Quire* quire_pool) {
  const PositSpec spec = w.spec;
  const std::size_t rows = a.rows, k = a.k;
  const OperandBuffers& panel = *a.panel;
  const bool codes = a.form == OperandForm::kCodes;
  const bool lanes = a.form == OperandForm::kLanes;
  const bool qlanes = a.form == OperandForm::kQuireLanes;
  const std::size_t lane_tiles = (rows + kLanes - 1) / kLanes;
  const float nar_out = static_cast<float>(posit::to_double(spec.nar_code(), spec));
  // The activation panel is already in operand form; the GEMM parallelizes
  // over output columns so each packed weight row is unpacked and decoded
  // once and streamed against every activation row.
#pragma omp parallel
  {
    posit::Quire* quire = mode == AccumMode::kQuire ? &quire_pool[engine_thread_id()] : nullptr;
    // Rounded chains without a LUT off the lane kernel: the running sum
    // stays unpacked and is packed once per output (posit/accum.hpp).
    posit::RoundedAccum racc(spec);
    DecodeScratch& scratch = tl_scratch;
    scratch.w.codes.resize(k);
    if (!codes) scratch.w.ops.resize(k);
    if (lanes) {
      scratch.w.lanes.resize(k);
      scratch.out_lanes.resize(lane_tiles * kLanes);
    }
    if (qlanes) {
      scratch.w.quire.resize(k);
      scratch.out_codes.resize(lane_tiles * kLanes);
    }
#pragma omp for schedule(static)
    for (std::size_t o = 0; o < cols; ++o) {
      posit::unpack_codes(w.packed.data(), o * k, k, spec, scratch.w.codes.data());
      const std::uint32_t* wcodes = scratch.w.codes.data();
      const Unpacked* wrow = scratch.w.ops.data();
      if (!codes) posit::decode_unpacked(wcodes, k, spec, scratch.w.ops.data());
      const std::uint32_t bcode =
          bias.count != 0 ? posit::unpack_one(bias.packed.data(), o, bias.spec) : 0u;
      if (lanes) {
        // Each output as the exact double of its posit, bias added in the
        // same domain; static_cast<float> of it is the float to_double of
        // the code would give. NaR in a row, the weight row or the bias
        // makes the output NaR whatever the order.
        const Unpacked bu = posit::decode_unpacked(bcode, spec);
        const double bvalue = posit::simd::lane_value(bu);
        const bool col_nar = posit::simd::fill_lane_row(wrow, k, scratch.w.lanes.data()) ||
                             (bias.count != 0 && bu.is_nar());
        double* const sums = scratch.out_lanes.data();
        posit::simd::rounded_chains_avx2(panel.lanes.data(), lane_tiles, scratch.w.lanes.data(), k, spec,
                                         mode == AccumMode::kFma,
                                         bias.count != 0 ? &bvalue : nullptr, sums);
        for (std::size_t r = 0; r < rows; ++r) {
          const bool nar = col_nar || ((a.nar[r / kLanes] >> (r % kLanes)) & 1u) != 0;
          out[r * row_stride + o * col_stride] = nar ? nar_out : static_cast<float>(sums[r]);
        }
        continue;
      }
      // The exact quire on the lane kernel: every row's dot of this column
      // at once, rounded once per output. NaR in a row or the weight row
      // makes the output NaR.
      const bool qcol_nar =
          qlanes && posit::simd::fill_quire_row(wrow, k, spec, scratch.w.quire.data());
      if (qlanes) {
        posit::simd::quire_lanes_avx2(panel.quire.data(), lane_tiles, scratch.w.quire.data(), k, spec,
                                      scratch.out_codes.data());
      }
      for (std::size_t r = 0; r < rows; ++r) {
        const Unpacked* arow = codes || qlanes ? nullptr : panel.ops.data() + r * k;
        const std::uint32_t* acodes = codes ? panel.codes.data() + r * k : nullptr;
        std::uint32_t acc = 0;
        switch (mode) {
          case AccumMode::kQuire:
            if (qlanes) {
              const bool nar = qcol_nar || ((a.nar[r / kLanes] >> (r % kLanes)) & 1u) != 0;
              acc = nar ? spec.nar_code() : scratch.out_codes[r];
            } else {
              quire->clear();
              quire->accumulate_dot(arow, wrow, k);
              acc = quire->to_posit();
            }
            break;
          case AccumMode::kSerial:
            if (codes) {
              // Two table reads per term: the multiply and the accumulator
              // add both come out of L2-resident LUTs.
              for (std::size_t i = 0; i < k; ++i) {
                acc = luts.add->at(acc, luts.mul->at(acodes[i], wcodes[i]));
              }
            } else {
              racc.clear();
              racc.serial_dot(arow, wrow, k);
              acc = racc.to_posit();
            }
            break;
          case AccumMode::kFma:
            if (codes) {
              for (std::size_t i = 0; i < k; ++i) acc = luts.fma->at(acodes[i], wcodes[i], acc);
            } else {
              racc.clear();
              racc.fma_dot(arow, wrow, k);
              acc = racc.to_posit();
            }
            break;
        }
        if (bias.count != 0) {
          acc = luts.add != nullptr ? luts.add->at(acc, bcode) : posit::add(acc, bcode, spec);
        }
        out[r * row_stride + o * col_stride] = static_cast<float>(posit::to_double(acc, spec));
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
