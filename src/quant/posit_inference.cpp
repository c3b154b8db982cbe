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

/// Per-thread block-decode scratch for the packed panels. The calling
/// thread's instance holds the whole activation panel for the duration of
/// one GEMM (codes plus, when the mode consumes them, unpacked lanes — or,
/// for the AVX2 lane kernels, 4-row tiles (doubles for the rounded chains,
/// int64 operands for the exact quire) and each tile's NaR rows —
/// transient per-call working set, rebuilt from the packed panel each
/// call); each team thread's instance holds the single weight row it is
/// currently streaming (for a lane kernel also that row in the kernel's
/// operand form, the column's outputs, and one lane tile's operands on
/// their way there).
/// Grow-only and thread-local, so the steady-state cost is bounded by the
/// largest shapes this thread has seen — scratch, not model footprint
/// (engine_scratch_bytes() reports it).
struct DecodeScratch {
  std::vector<std::uint32_t> a_codes;
  std::vector<std::uint32_t> w_codes;
  std::vector<Unpacked> a_ops;
  std::vector<Unpacked> w_ops;
  std::vector<double> a_lanes;
  std::vector<std::int64_t> a_quire;
  std::vector<unsigned> a_nar;
  std::vector<Unpacked> tile_ops;
  std::vector<double> w_lanes;
  std::vector<std::int64_t> w_quire;
  std::vector<double> out_lanes;
  std::vector<std::uint32_t> out_codes;
};
thread_local DecodeScratch tl_scratch;

/// Caller-thread scratch for the encode paths: codes are produced in
/// parallel here, then bit-packed serially (the 64-bit RMW pack windows of
/// adjacent ranges overlap, so packing itself must not be split across
/// threads).
thread_local std::vector<std::uint32_t> tl_encode_codes;

}  // namespace

std::size_t engine_scratch_bytes() {
  const DecodeScratch& s = tl_scratch;
  return (s.a_codes.capacity() + s.w_codes.capacity() + s.out_codes.capacity() +
          tl_encode_codes.capacity()) *
             sizeof(std::uint32_t) +
         (s.a_ops.capacity() + s.w_ops.capacity() + s.tile_ops.capacity()) * sizeof(Unpacked) +
         (s.a_lanes.capacity() + s.w_lanes.capacity() + s.out_lanes.capacity()) * sizeof(double) +
         (s.a_quire.capacity() + s.w_quire.capacity()) * sizeof(std::int64_t) +
         s.a_nar.capacity() * sizeof(unsigned);
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

void engine_gemm(const PackedPositTensor& a, const PackedPositTensor& w,
                 const PackedPositTensor& bias, std::size_t rows, std::size_t k, std::size_t cols,
                 AccumMode mode, float* out, std::size_t row_stride, std::size_t col_stride,
                 const EngineLuts& luts, posit::Quire* quire_pool) {
  const PositSpec spec = w.spec;
  const std::size_t tiles = (rows + kActTile - 1) / kActTile;
  // Which operand forms this (mode, luts) pairing actually reads: the LUT
  // serial/fma chains index raw codes, everything else consumes Unpacked
  // lanes. Codes are always unpacked from the packed panels (they are the
  // decode intermediate); the lane decode is skipped when nothing reads it.
  const bool lut_serial = mode == AccumMode::kSerial && luts.mul != nullptr && luts.add != nullptr;
  const bool lut_fma = mode == AccumMode::kFma && luts.fma != nullptr;
  const bool need_ops = !(lut_serial || lut_fma);
  // Rounded chains without a LUT run four outputs per AVX2 vector where the
  // spec's values are exact doubles, the exact quire four outputs per vector
  // in int64 limbs where its products fit them (posit/simd.hpp); else
  // RoundedAccum and Quire, one output at a time. All bit-identical to the
  // coded reference. A lone activation row stays on Quire: in a four-row
  // tile it leaves three lanes idle, and Quire's own AVX2 deposit is faster
  // there.
  const bool lanes = mode != AccumMode::kQuire && need_ops && posit::simd::enabled() &&
                     posit::simd::rounded_lanes_supported(spec);
  const bool qlanes = mode == AccumMode::kQuire && rows > 1 && posit::simd::enabled() &&
                      posit::simd::quire_lanes_supported(spec, k);
  static_assert(kActTile % posit::simd::kLanes == 0, "activation tiles split into lane tiles");
  const std::size_t lane_tiles = (rows + posit::simd::kLanes - 1) / posit::simd::kLanes;
  const std::size_t lane_rows = lane_tiles * posit::simd::kLanes;
  // Phase split keeps every panel value's decode to exactly once per call:
  // the activation panel is block-decoded (kActTile-row slices, in parallel)
  // into the calling thread's scratch, then the GEMM parallelizes over
  // output columns so each packed weight row is unpacked once and streamed
  // against every activation row. Sized buffers are grabbed before the team
  // starts — the region below only reads them through raw pointers.
  DecodeScratch& host = tl_scratch;
  host.a_codes.resize(rows * k);
  const bool row_ops = need_ops && !lanes && !qlanes;
  if (row_ops) host.a_ops.resize(rows * k);
  std::uint32_t* const a_codes_buf = host.a_codes.data();
  Unpacked* const a_ops_buf = row_ops ? host.a_ops.data() : nullptr;
  if (lanes) host.a_lanes.resize(lane_rows * k);
  if (qlanes) host.a_quire.resize(lane_rows * k);
  if (lanes || qlanes) host.a_nar.resize(lane_tiles);
  double* const a_lanes_buf = lanes ? host.a_lanes.data() : nullptr;
  std::int64_t* const a_quire_buf = qlanes ? host.a_quire.data() : nullptr;
  unsigned* const a_nar_buf = lanes || qlanes ? host.a_nar.data() : nullptr;
  const float nar_out = static_cast<float>(posit::to_double(spec.nar_code(), spec));
#pragma omp parallel
  {
    posit::Quire* quire = mode == AccumMode::kQuire ? &quire_pool[engine_thread_id()] : nullptr;
    // Rounded chains without a LUT off the lane kernel: the running sum
    // stays unpacked and is packed once per output (posit/accum.hpp).
    posit::RoundedAccum racc(spec);
    DecodeScratch& scratch = tl_scratch;
    if (lanes || qlanes) scratch.tile_ops.resize(posit::simd::kLanes * k);
#pragma omp for schedule(static)
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      const std::size_t r0 = tile * kActTile;
      const std::size_t r1 = std::min(rows, r0 + kActTile);
      posit::unpack_codes(a.packed.data(), r0 * k, (r1 - r0) * k, a.spec, a_codes_buf + r0 * k);
      if (a_ops_buf != nullptr) {
        posit::decode_unpacked(a_codes_buf + r0 * k, (r1 - r0) * k, a.spec, a_ops_buf + r0 * k);
      }
      // The lane tiles of these rows, each decoded on its way to the lane
      // kernel's operand form; a ragged last tile gets zero lanes.
      for (std::size_t r = r0; (lanes || qlanes) && r < r1; r += posit::simd::kLanes) {
        const std::size_t n = std::min(posit::simd::kLanes, r1 - r);
        posit::decode_unpacked(a_codes_buf + r * k, n * k, a.spec, scratch.tile_ops.data());
        a_nar_buf[r / posit::simd::kLanes] =
            lanes ? posit::simd::fill_lane_tile(scratch.tile_ops.data(), n, k, a_lanes_buf + r * k)
                  : posit::simd::fill_quire_tile(scratch.tile_ops.data(), n, k, spec,
                                                 a_quire_buf + r * k);
      }
    }  // implicit barrier: the whole panel is decoded before any dot reads it
    scratch.w_codes.resize(k);
    if (need_ops) scratch.w_ops.resize(k);
    if (lanes) {
      scratch.w_lanes.resize(k);
      scratch.out_lanes.resize(lane_rows);
    }
    if (qlanes) {
      scratch.w_quire.resize(k);
      scratch.out_codes.resize(lane_rows);
    }
#pragma omp for schedule(static)
    for (std::size_t o = 0; o < cols; ++o) {
      posit::unpack_codes(w.packed.data(), o * k, k, spec, scratch.w_codes.data());
      const std::uint32_t* wcodes = scratch.w_codes.data();
      const Unpacked* wrow = scratch.w_ops.data();
      if (need_ops) posit::decode_unpacked(wcodes, k, spec, scratch.w_ops.data());
      const std::uint32_t bcode =
          bias.count != 0 ? posit::unpack_one(bias.packed.data(), o, bias.spec) : 0u;
      if (lanes) {
        // Each output as the exact double of its posit, bias added in the
        // same domain; static_cast<float> of it is the float to_double of
        // the code would give. NaR in a row, the weight row or the bias
        // makes the output NaR whatever the order.
        const Unpacked bu = posit::decode_unpacked(bcode, spec);
        const double bvalue = posit::simd::lane_value(bu);
        const bool col_nar = posit::simd::fill_lane_row(wrow, k, scratch.w_lanes.data()) ||
                             (bias.count != 0 && bu.is_nar());
        double* const sums = scratch.out_lanes.data();
        posit::simd::rounded_chains_avx2(a_lanes_buf, lane_tiles, scratch.w_lanes.data(), k, spec,
                                         mode == AccumMode::kFma,
                                         bias.count != 0 ? &bvalue : nullptr, sums);
        for (std::size_t r = 0; r < rows; ++r) {
          const unsigned tile_nar = a_nar_buf[r / posit::simd::kLanes];
          const bool nar = col_nar || ((tile_nar >> (r % posit::simd::kLanes)) & 1u) != 0;
          out[r * row_stride + o * col_stride] = nar ? nar_out : static_cast<float>(sums[r]);
        }
        continue;
      }
      // The exact quire on the lane kernel: every row's dot of this column
      // at once, rounded once per output. NaR in a row or the weight row
      // makes the output NaR.
      const bool qcol_nar =
          qlanes && posit::simd::fill_quire_row(wrow, k, spec, scratch.w_quire.data());
      if (qlanes) {
        posit::simd::quire_lanes_avx2(a_quire_buf, lane_tiles, scratch.w_quire.data(), k, spec,
                                      scratch.out_codes.data());
      }
      for (std::size_t r = 0; r < rows; ++r) {
        const Unpacked* arow = a_ops_buf + r * k;
        const std::uint32_t* acodes = a_codes_buf + r * k;
        std::uint32_t acc = 0;
        switch (mode) {
          case AccumMode::kQuire:
            if (qlanes) {
              const unsigned tile_nar = a_nar_buf[r / posit::simd::kLanes];
              const bool nar = qcol_nar || ((tile_nar >> (r % posit::simd::kLanes)) & 1u) != 0;
              acc = nar ? spec.nar_code() : scratch.out_codes[r];
            } else {
              quire->clear();
              quire->accumulate_dot(arow, wrow, k);
              acc = quire->to_posit();
            }
            break;
          case AccumMode::kSerial:
            if (lut_serial) {
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
            if (lut_fma) {
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

void encode_conv_panel(const float* cols, std::size_t patch, std::size_t pixels,
                       const PositSpec& spec, PackedPositTensor& panel) {
  panel.spec = spec;
  panel.shape = {pixels, patch};
  panel.count = pixels * patch;
  // Encode transposed (each output pixel's patch contiguous) in parallel
  // into the code scratch, then bit-pack serially: pack_codes RMWs 64-bit
  // windows that straddle neighbor ranges, so the pack must not be split.
  std::vector<std::uint32_t>& codes = tl_encode_codes;
  codes.resize(panel.count);
#pragma omp parallel for schedule(static) if (pixels > 8)
  for (std::size_t t = 0; t < pixels; ++t) {
    for (std::size_t p = 0; p < patch; ++p) {
      codes[t * patch + p] = posit::from_double(cols[p * pixels + t], spec, kEncodeRound);
    }
  }
  panel.packed.assign(posit::packed_capacity(panel.count, spec), 0u);
  posit::pack_codes(codes.data(), 0, panel.count, spec, panel.packed.data());
}

void engine_conv2d(const float* x, std::size_t batch, const tensor::Conv2dGeom& geom,
                   const PackedPositTensor& w, const PackedPositTensor& bias, AccumMode mode,
                   const EngineLuts& luts, posit::Quire* quire_pool, bool elide_im2col,
                   Tensor& cols, PackedPositTensor& act, float* out) {
  const std::size_t pixels = geom.out_h() * geom.out_w();
  const std::size_t patch = geom.patch();
  if (!elide_im2col) cols.resize({patch, pixels});
  for (std::size_t nidx = 0; nidx < batch; ++nidx) {
    const float* slice = x + nidx * geom.in_c * geom.in_h * geom.in_w;
    if (!elide_im2col) tensor::im2col(slice, geom, cols.data());
    // Encode the unfolded image once, transposed so each output pixel's
    // patch is contiguous (the decode-once activation panel).
    encode_conv_panel(elide_im2col ? slice : cols.data(), patch, pixels, w.spec, act);
    // Output plane for this image is [out_c, pixels]: column stride `pixels`.
    engine_gemm(act, w, bias, pixels, patch, geom.out_c, mode, out + nidx * geom.out_c * pixels, 1,
                pixels, luts, quire_pool);
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
  // Parallel encode into the code scratch, serial bit-pack (see
  // encode_conv_panel for why the pack cannot be split across threads).
  std::vector<std::uint32_t>& codes = detail::tl_encode_codes;
  codes.resize(count);
#pragma omp parallel for schedule(static) if (count > 4096)
  for (std::size_t i = 0; i < count; ++i) {
    codes[i] = posit::from_double(src[i], spec, kEncodeRound);
  }
  out.packed.assign(posit::packed_capacity(count, spec), 0u);
  posit::pack_codes(codes.data(), 0, count, spec, out.packed.data());
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
