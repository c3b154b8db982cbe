// engine_gemm.hpp — internal decode-once GEMM behind the compiled
// PositSession's linear and conv steps. Not part of the public API.
#pragma once

#include <cstddef>

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
/// construction. Without its tables a serial/fma chain runs four outputs
/// per AVX2 vector as exact doubles (posit::simd::rounded_chains_avx2) where
/// the spec and host allow it, else on posit::RoundedAccum (the sum stays
/// unpacked, packed once per output). kQuire has no tables: on an AVX2 host
/// (8,0), (8,1), (8,2), (16,0) and (16,1) run four outputs per vector in
/// int64 limbs (posit::simd::quire_lanes_avx2) whenever the activation
/// panel has more than one row; everything else runs on posit::Quire.
struct EngineLuts {
  const posit::MulLut* mul = nullptr;
  const posit::AddLut* add = nullptr;
  const posit::FmaLut* fma = nullptr;
};

/// Resolve the tables once per call/compile (takes the process-wide LUT
/// cache lock; never call on the per-row hot path).
EngineLuts resolve_luts(const posit::PositSpec& spec, AccumMode mode);

/// The block-decode GEMM at the heart of the engine. `a` holds `rows`
/// contiguous bit-packed operand rows of length k (activation panel), `w`
/// holds `cols` packed rows of length k (weight panel); the rounded dot of
/// every pair — plus optional per-column bias — lands at
/// out[r * row_stride + o * col_stride]. Panels stay packed at format width
/// and every packed value is decoded exactly once per call (SIMD group
/// decode, posit/simd.hpp): the activation panel into the calling thread's
/// scratch first (kActTile-row slices, team-parallel), then each weight row
/// into its streaming thread's O(k) scratch as the column loop reaches it.
/// Resident panel memory is the packed payload; the decoded activation panel
/// (and, for a lane kernel, its 4-row double or int64 tiles) is per-call
/// working scratch.
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
void engine_gemm(const posit::PackedPositTensor& a, const posit::PackedPositTensor& w,
                 const posit::PackedPositTensor& bias, std::size_t rows, std::size_t k,
                 std::size_t cols, AccumMode mode, float* out, std::size_t row_stride,
                 std::size_t col_stride, const EngineLuts& luts, posit::Quire* quire_pool);

/// Encode the im2col panel `cols` ([patch, pixels]) transposed into `panel`
/// so each output pixel's patch is contiguous, reusing the panel's storage.
void encode_conv_panel(const float* cols, std::size_t patch, std::size_t pixels,
                       const posit::PositSpec& spec, posit::PackedPositTensor& panel);

/// The session's per-image conv lowering: for each of `batch` images in
/// `x`, im2col into `cols` (skipped when `elide_im2col`: a 1x1/s1/p0 input
/// slice [C, H*W] already IS the patch matrix), encode_conv_panel into
/// `act`, then engine_gemm into the image's [out_c, pixels] plane of `out`.
/// `cols` and `act` are caller-owned, grow-only scratch; `quire_pool` as for
/// engine_gemm.
void engine_conv2d(const float* x, std::size_t batch, const tensor::Conv2dGeom& geom,
                   const posit::PackedPositTensor& w, const posit::PackedPositTensor& bias,
                   AccumMode mode, const EngineLuts& luts, posit::Quire* quire_pool,
                   bool elide_im2col, tensor::Tensor& cols, posit::PackedPositTensor& act,
                   float* out);

/// Bytes of the calling thread's block-decode + encode scratch, the lane
/// kernels' tiles included (capacity, grow-only). Scratch, not model
/// footprint: PositSession::panel_bytes() deliberately excludes it.
std::size_t engine_scratch_bytes();

}  // namespace pdnn::quant::detail
