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
/// form's. Holds a step's encoded input batch — codes plus its decoded form,
/// session-owned, counted by PositSession::panel_scratch_bytes() — or a
/// thread's gathered panel block and decoded weight rows.
struct OperandBuffers {
  std::vector<std::uint32_t> codes;
  std::vector<posit::Unpacked> ops;
  std::vector<double> lanes;
  std::vector<std::int64_t> quire;

  std::size_t bytes() const {
    return codes.capacity() * sizeof(std::uint32_t) + ops.capacity() * sizeof(posit::Unpacked) +
           lanes.capacity() * sizeof(double) + quire.capacity() * sizeof(std::int64_t);
  }
};

/// A step's activation batch, encoded once: `batch` images of geom's
/// [in_c, in_h, in_w] input, as codes and in the `form` buffer of `plane`.
/// Its GEMM rows are the batch's im2col patches, rows = batch * pixels:
/// row r is image r / pixels, output pixel r % pixels, its k terms
/// channel-major like a weight row. `has_nar` tells the lane forms, which
/// read NaR as a zero operand, to look for it in the codes. A view into
/// `plane`, valid until its next encode_activation.
struct ActPlane {
  OperandForm form = OperandForm::kUnpacked;
  posit::PositSpec spec{16, 1};
  tensor::Conv2dGeom geom;
  std::size_t pixels = 0, rows = 0, k = 0;
  bool has_nar = false;
  const OperandBuffers* plane = nullptr;
};

/// Encode the `batch` images at x ([batch, in_c, in_h, in_w]) into `plane`
/// (codes, under kEncodeRound) and decode them into the form (mode, luts)
/// reads, each element once; team-parallel over disjoint ranges. A linear
/// step's [n, k] batch is n images of k channels under a 1x1 window.
ActPlane encode_activation(const float* x, std::size_t batch, const tensor::Conv2dGeom& geom,
                           const posit::PositSpec& spec, AccumMode mode, const EngineLuts& luts,
                           OperandBuffers& plane);

/// The GEMM at the heart of the engine, one call per step: the rounded dot
/// of every patch row of `a` with each of the `cols` packed weight rows of
/// `w` — plus optional per-column bias — lands at
/// out[(r / pixels * cols + o) * pixels + r % pixels], the [batch, cols,
/// pixels] layout of a conv output (a linear step's [n, cols] at pixels 1).
/// Each weight row is unpacked and decoded once per call into the calling
/// thread's scratch. The patch rows are gathered from the plane in blocks
/// of whole 4-row tiles sized to stay in L2, and every block is streamed
/// against all columns before the next is gathered; a tile may straddle two
/// images.
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
