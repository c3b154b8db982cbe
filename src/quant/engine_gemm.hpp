// engine_gemm.hpp — internal decode-once GEMM behind the compiled
// PositSession's linear and conv steps. Not part of the public API.
// Activations are encoded and decoded once per element, then gathered
// (gather_activation); only resident weights stay packed (engine_gemm).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "posit/add_lut.hpp"
#include "posit/mul_lut.hpp"
#include "posit/quire.hpp"
#include "quant/posit_inference.hpp"

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
/// (16,0), (16,1), more than one activation row).
enum class OperandForm { kCodes, kUnpacked, kLanes, kQuireLanes };

/// One buffer per operand form, grow-only; a step grows only its own
/// form's. Holds a step's input image — codes plus its decoded form,
/// session-owned, counted by PositSession::panel_scratch_bytes() — or a
/// thread's gathered panel.
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

/// An activation panel: `rows` patches of k terms in the `form` buffer of
/// `panel`, row-major, or 4-row tiles (tile[i * 4 + lane]) for the lane
/// forms, whose `nar` word per tile has bit l set when row l holds a NaR.
/// Views into the calling thread's scratch, valid until its next
/// gather_activation.
struct ActOperands {
  OperandForm form = OperandForm::kUnpacked;
  std::size_t rows = 0, k = 0;
  const OperandBuffers* panel = nullptr;
  const unsigned* nar = nullptr;
};

/// Encode the [in_c, in_h, in_w] image `x` into `plane` (codes, under
/// kEncodeRound) and decode it into the form (mode, luts) reads, each
/// element once; then gather geom's im2col patches — output pixel t's
/// patch, channel-major like a weight row — from the plane into the panel,
/// padding as the zero operand. Both passes are team-parallel over
/// disjoint ranges.
ActOperands gather_activation(const float* x, const tensor::Conv2dGeom& geom,
                              const posit::PositSpec& spec, AccumMode mode,
                              const EngineLuts& luts, OperandBuffers& plane);

/// The GEMM at the heart of the engine: the rounded dot of every activation
/// row of `a` with each of the `cols` packed weight rows of `w` — plus
/// optional per-column bias — lands at out[r * row_stride + o * col_stride].
/// Each weight row is unpacked and decoded once per call into its thread's
/// O(k) scratch as the column loop streams it.
///
/// Threading is over output columns with one quire (or rounded accumulator)
/// per thread. Each output is accumulated start-to-finish by a single thread
/// in ascending-k order — exactly the reference order — so results are
/// bit-identical to the scalar reference and to any other thread count, for
/// every AccumMode.
///
/// `quire_pool` must hold at least engine_threads() quires of `w.spec` when
/// mode == kQuire (the session's pre-planned per-thread arenas). Ignored for
/// the other modes. An empty bias (count 0) adds nothing.
void engine_gemm(const ActOperands& a, const posit::PackedPositTensor& w,
                 const posit::PackedPositTensor& bias, std::size_t cols, AccumMode mode,
                 float* out, std::size_t row_stride, std::size_t col_stride,
                 const EngineLuts& luts, posit::Quire* quire_pool);

/// Bytes of the calling thread's gathered panel and weight-row scratch,
/// the lane kernels' tiles included (capacity, grow-only). Scratch, not
/// model footprint: PositSession::panel_bytes() deliberately excludes it.
std::size_t engine_scratch_bytes();

}  // namespace pdnn::quant::detail
