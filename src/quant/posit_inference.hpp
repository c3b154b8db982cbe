// posit_inference.hpp — TRUE posit-arithmetic inference engine.
//
// The training stack simulates posit numerics in FP32 (as the paper's PyTorch
// implementation does): tensors are snapped onto the posit grid but the
// multiply-accumulates still run in FP32. This module closes the loop by
// executing the forward pass with genuine posit arithmetic — every operand is
// an (n, es) code and every sum is accumulated either
//   * kQuire  — exactly, in a quire, one rounding per dot product
//               (Deep Positron's EMAC, referenced by the paper), or
//   * kSerial — with a rounded posit add per term (a plain posit ALU), or
//   * kFma    — with a fused multiply-add chain (one rounding per term,
//               the behavior of the paper's Fig. 4 MAC pipeline).
//
// Weight panels are stored bit-packed at format width
// (posit::PackedPositTensor); a step runs one GEMM over its whole batch,
// each weight row decoded once per run; activations are encoded and decoded
// once per element, their im2col patches gathered in the kernel's operand
// form, a row block at a time (quant/engine_gemm.hpp). Per-thread quires are OpenMP-distributed over
// output columns; n <= 8 formats dispatch at runtime onto tabulated kernels
// (MulLut/AddLut for the serial chain and every bias add, the pair-classed
// FmaLut for the fma chain). Results are bit-identical to the retained
// scalar reference path (posit_linear_reference / posit_conv2d_reference)
// at every spec and accumulation mode, to single-threaded runs at any thread
// count, and to the scalar decode path (PDNN_NO_AVX2=1).
//
// quant::PositSession (posit_session.hpp) is the one way to run that GEMM:
// it compiles a module graph once — session-owned weight panels, per-thread
// quire arenas, per-layer precision overrides — and runs allocation-free in
// steady state. A single layer is a one-layer session. This header keeps
// the shared vocabulary (AccumMode, the encode rounding, the panel encode)
// and the scalar reference oracles.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.hpp"
#include "posit/packed.hpp"
#include "posit/quire.hpp"
#include "posit/unpacked.hpp"
#include "quant/policy.hpp"

namespace pdnn::quant {

enum class AccumMode {
  kQuire,   ///< exact accumulation, single final rounding
  kSerial,  ///< round after every add
  kFma,     ///< fused multiply-add chain: round(a*b + acc) per term
};

/// The single rounding mode used for every float -> posit encode on the
/// inference path (weights, activations, BN constants).
constexpr posit::RoundMode kEncodeRound = posit::RoundMode::kNearestEven;

/// Encode (under kEncodeRound) and bit-pack `count` floats into `out`,
/// reusing its storage — how the session encodes weight panels at compile
/// and re-encodes them after a Param::version bump (no allocation once
/// shapes settle). Sets out.spec/out.count; the caller owns out.shape.
void encode_pack_into(const float* src, std::size_t count, const posit::PositSpec& spec,
                      posit::PackedPositTensor& out);

// ---------------------------------------------------------------------------
// Retained scalar reference path (the pre-engine implementation): coded
// operands, full decode per multiply-accumulate, weights re-encoded on every
// call, serial triple loop. This is the bit-exactness oracle for
// quant.posit_engine and the baseline bench_posit measures speedups against.
// ---------------------------------------------------------------------------

tensor::Tensor posit_linear_reference(const tensor::Tensor& x, const tensor::Tensor& w,
                                      const tensor::Tensor& bias, const posit::PositSpec& spec,
                                      AccumMode mode);

tensor::Tensor posit_conv2d_reference(const tensor::Tensor& x, const tensor::Tensor& w,
                                      const tensor::Tensor& bias, const tensor::Conv2dGeom& geom,
                                      const posit::PositSpec& spec, AccumMode mode);

}  // namespace pdnn::quant
