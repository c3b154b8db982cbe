// engine_gemm.hpp — internal decode-once GEMM behind the compiled
// PositSession's linear and conv steps. Not part of the public API.
// A step runs one GEMM per batch: its N input images are encoded and decoded
// once per element (encode_activation), and engine_gemm gathers their
// im2col patches — rows = N * pixels — and streams them against each weight
// row, which stays packed until the run unpacks and decodes it once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "posit/add_lut.hpp"
#include "posit/mul_lut.hpp"
#include "posit/quire.hpp"
#include "posit/simd.hpp"
#include "quant/posit_inference.hpp"
#include "tensor/ops.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace pdnn::quant::detail {

/// Upper bound on the OpenMP team size the engine regions can start.
inline int engine_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// The calling thread's index in its engine team (its quire-pool slot).
inline int engine_thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// The tabulated kernels a (spec, mode) pair can dispatch onto (n <= 8
/// formats; all pointers null otherwise). `mul`+`add` drive serial
/// accumulation, `fma` the fma chain, and `add` alone every bias add in any
/// mode. Results are bit-identical to the arithmetic routines by
/// construction. Without tables the chains and the quire run on the kernels
/// OperandForm names.
struct EngineLuts {
  const posit::MulLut* mul = nullptr;
  const posit::AddLut* add = nullptr;
  const posit::FmaLut* fma = nullptr;
};

/// Resolve the tables once per call/compile (takes the process-wide LUT
/// cache lock; never call on the per-row hot path).
EngineLuts resolve_luts(const posit::PositSpec& spec, AccumMode mode);

/// The form an activation operand takes for its kernel: codes for the LUT
/// chains; posit::Unpacked for RoundedAccum and Quire; four outputs per
/// AVX2 vector on lane_value doubles (posit::simd::rounded_chains_avx2,
/// n - 2 - es <= 26) or quire_lane_operand int64s (quire_lanes_avx2: (8,·),
/// (16,0), (16,1), more than one patch row in the batch).
enum class OperandForm { kCodes, kUnpacked, kLanes, kQuireLanes };

/// One buffer per operand form, grow-only; a step grows only its own
/// form's. Holds a step's encoded input batch — session-owned, counted by
/// PositSession::panel_scratch_bytes() — or a thread's gathered panel block
/// and decoded weight rows. `term_off` is the plane's gather table (see
/// ActPlane); the thread buffers leave it empty. `spans` holds a gathered
/// kQuireLanes block's tile spans (see gather_panel); only the calling
/// thread's block grows it.
struct OperandBuffers {
  std::vector<std::uint32_t> codes;
  std::vector<posit::Unpacked> ops;
  std::vector<double> lanes;
  std::vector<std::int64_t> quire;
  std::vector<posit::simd::QuireSpan> spans;
  std::vector<std::size_t> term_off;

  std::size_t bytes() const {
    return codes.capacity() * sizeof(std::uint32_t) + ops.capacity() * sizeof(posit::Unpacked) +
           lanes.capacity() * sizeof(double) + quire.capacity() * sizeof(std::int64_t) +
           spans.capacity() * sizeof(posit::simd::QuireSpan) +
           term_off.capacity() * sizeof(std::size_t);
  }
};

/// A step's activation batch, encoded once: `batch` images of geom's
/// [in_c, in_h, in_w] input in the `form` buffer of `plane`. Its GEMM rows
/// are the batch's im2col patches, rows = batch * pixels: row r is image
/// r / pixels, output pixel r % pixels, its k terms channel-major like a
/// weight row. A view into `plane`, valid until its next encode_activation.
///
/// Halo layout: each image channel is stored as a [plane_h, plane_w] =
/// [in_h + 2 pad, in_w + 2 pad] grid whose pad-wide border holds T{}, the
/// zero operand of every form (code 0, Unpacked{}, 0.0, int64 0); images
/// and channels follow each other densely. So every patch term is in
/// bounds: term i of row r (image b, output pixel (oy, ox)) reads
///   plane[b * in_c * plane_h * plane_w + oy * stride * plane_w + ox * stride
///         + term_off[i]],
/// term_off[i] = (c * plane_h + ky) * plane_w + kx for term i = (c, ky, kx).
///
/// Encode contract: the form buffer holds each element's operand exactly
/// as decode_unpacked(from_double(x, spec, kEncodeRound)) gives it in that
/// form (the code itself for kCodes). The lane forms are encoded straight
/// from the floats by posit::simd::encode_lanes_avx2 /
/// encode_quire_lanes_avx2 — no codes are written. Only when the batch
/// holds a NaN or +-Inf (the only source of NaR) does the coded encode run
/// instead, writing the codes too (halo code 0) and setting `has_nar`: the
/// lane forms read NaR as a zero operand, so the GEMM then looks for it in
/// the codes.
struct ActPlane {
  OperandForm form = OperandForm::kUnpacked;
  posit::PositSpec spec{16, 1};
  tensor::Conv2dGeom geom;
  std::size_t pixels = 0, rows = 0, k = 0;
  std::size_t plane_h = 0, plane_w = 0;
  bool has_nar = false;
  const OperandBuffers* plane = nullptr;
};

/// Encode the `batch` images at x ([batch, in_c, in_h, in_w]) into `plane`
/// in the form (mode, luts) reads, halo included, each element once;
/// team-parallel over image channels (or element chunks when pad is 0). A
/// linear step's [n, k] batch is n images of k channels under a 1x1 window.
ActPlane encode_activation(const float* x, std::size_t batch, const tensor::Conv2dGeom& geom,
                           const posit::PositSpec& spec, AccumMode mode, const EngineLuts& luts,
                           OperandBuffers& plane);

/// Rows [r0, r1) of a's patch panel (r0 a multiple of posit::simd::kLanes)
/// into block's buffer in a's form, which must hold the rows' k operands
/// each (rounded up to whole tiles for the lane forms): row-major for kCodes
/// and kUnpacked, 4-row lane tiles (posit::simd::kLanes) for kLanes and
/// kQuireLanes, the lanes past r1 zero. For kQuireLanes block.spans must
/// hold one entry per tile too: the gather writes each tile's
/// posit::simd::quire_span (the offsets of its non-zero operands, what
/// quire_lanes_avx2 picks a tile's path by) in the pass that copies it. For
/// the lane forms, when row_nar is non-null, row_nar[r - r0] says whether
/// row r reads a NaR code (a.has_nar planes only). A worksharing loop:
/// inside a parallel region every thread of the team must call it.
void gather_panel(const ActPlane& a, std::size_t r0, std::size_t r1, OperandBuffers& block,
                  unsigned char* row_nar);

/// The GEMM at the heart of the engine, one call per step: the rounded dot
/// of every patch row of `a` with each of the `cols` packed weight rows of
/// `w` — plus optional per-column bias — lands at
/// out[(r / pixels * cols + o) * pixels + r % pixels], the [batch, cols,
/// pixels] layout of a conv output (a linear step's [n, cols] at pixels 1).
/// Each weight row is unpacked and decoded once per call into the calling
/// thread's scratch. The patch rows are gathered from the plane in blocks
/// of whole 4-row tiles sized to stay in L2, and every block is streamed
/// against all columns before the next is gathered; a tile may straddle two
/// images. The gather is branch-free over the halo layout; the lane forms
/// fill tile-major, one 4-operand copy per term when the tile's rows are
/// adjacent in one output line at stride 1, four loads otherwise.
///
/// Threading is over output columns with one quire (or rounded accumulator)
/// per thread. Each output is accumulated start-to-finish by a single thread
/// in ascending-k order — exactly the reference order — and rounded once, so
/// results are bit-identical to the scalar reference, to any other thread
/// count and to any batch split, for every AccumMode.
///
/// `quire_pool` must hold at least engine_threads() quires of `w.spec` when
/// mode == kQuire (the session's pre-planned per-thread arenas). Ignored for
/// the other modes. An empty bias (count 0) adds nothing.
void engine_gemm(const ActPlane& a, const posit::PackedPositTensor& w,
                 const posit::PackedPositTensor& bias, std::size_t cols, AccumMode mode,
                 float* out, const EngineLuts& luts, posit::Quire* quire_pool);

/// Bytes of the calling thread's gathered panel block, decoded weight rows
/// and column scratch, the lane kernels' tiles included (capacity,
/// grow-only). Scratch, not model footprint: PositSession::panel_bytes()
/// deliberately excludes it.
std::size_t engine_scratch_bytes();

}  // namespace pdnn::quant::detail
