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
// Panels are stored bit-packed at format width (EncodedTensor) and decoded
// blockwise, each packed value exactly once per GEMM: the activation panel
// into per-call scratch up front, each weight row into O(k) per-thread
// scratch as the column loop streams it — all through the SIMD batch-of-8
// decoder (posit/simd.hpp). The hot loops then run on posit::Unpacked lanes
// with per-thread quires OpenMP-distributed over output columns; n <= 8
// formats dispatch at runtime onto tabulated kernels (MulLut/AddLut for the
// serial chain and every bias add, the pair-classed FmaLut for the fma
// chain). Results are bit-identical to the retained scalar reference path
// (posit_linear_reference / posit_conv2d_reference) at every spec and
// accumulation mode, to single-threaded runs at any thread count, and to
// the scalar decode path (PDNN_NO_AVX2=1).
//
// The free functions below encode their weights per call. Whole-network
// inference lives in quant::PositSession (posit_session.hpp), which compiles
// a module graph once — session-owned weight panels, per-thread quire
// arenas, per-layer precision overrides — and runs allocation-free in steady
// state.
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
/// inference path (weights, activations, im2col panels, BN constants).
constexpr posit::RoundMode kEncodeRound = posit::RoundMode::kNearestEven;

/// Activation rows (or output pixels) per work item of the engine GEMM's
/// block-decode phase: the packed activation panel is unpacked and decoded
/// in slices of this many rows, team-parallel, before the column loop runs.
constexpr std::size_t kActTile = 16;

/// Compressed operand panel: a tensor's n-bit posit codes bit-packed at
/// format width (posit/packed.hpp block codec) — ⌈n/8⌉ bytes per value, the
/// paper's model-size story as the engine's resident layout. The GEMM inner
/// loops never touch this form directly: engine_gemm decodes each packed
/// value exactly once per call into transient scratch (SIMD batch-of-8
/// group decode, ragged tail scalar), so steady-state panel memory is the
/// packed payload alone.
struct EncodedTensor {
  posit::PositSpec spec{8, 1};
  tensor::Shape shape;
  std::vector<std::uint8_t> packed;  ///< posit::packed_capacity(count, spec) bytes
  std::size_t count = 0;

  std::size_t numel() const { return count; }
  bool empty() const { return count == 0; }
  /// Payload bytes of the packed codes (the footprint number; slack excluded).
  std::size_t payload_bytes() const { return posit::packed_bytes(count, spec); }
};

/// Encode (under kEncodeRound) and bit-pack a whole tensor in one pass.
EncodedTensor encode_pack(const tensor::Tensor& t, const posit::PositSpec& spec);

/// Encode `count` floats into an existing panel, reusing its storage — the
/// session's steady-state activation path (no allocation once shapes
/// settle). Sets out.spec/out.count; the caller owns out.shape.
void encode_pack_into(const float* src, std::size_t count, const posit::PositSpec& spec,
                      EncodedTensor& out);

/// Dense posit matrix-vector building block: y = x W^T + b, all posit.
/// x is [N, in] (N = 0 yields an empty [0, out] result), w is [out, in],
/// bias optional ([out] or empty). Encodes the weights per call; prefer the
/// EncodedTensor overload (or a PositSession, which owns the panels) when
/// the weights are reused.
tensor::Tensor posit_linear(const tensor::Tensor& x, const tensor::Tensor& w, const tensor::Tensor& bias,
                            const posit::PositSpec& spec, AccumMode mode);

/// Engine form: weights (and optional bias) already encoded+unpacked.
tensor::Tensor posit_linear(const tensor::Tensor& x, const EncodedTensor& w, const EncodedTensor& bias,
                            AccumMode mode);

/// Posit convolution: input [N,C,H,W] (N = 0 yields an empty result), weight
/// [O,I,KH,KW] (rectangular windows via geom.kernel_w), optional
/// per-output-channel bias ([O] or empty). Throws std::invalid_argument on
/// degenerate geometry (see tensor::Conv2dGeom::validate).
tensor::Tensor posit_conv2d(const tensor::Tensor& x, const tensor::Tensor& w, const tensor::Tensor& bias,
                            const tensor::Conv2dGeom& geom, const posit::PositSpec& spec, AccumMode mode);

/// Engine form: weights/bias already encoded+unpacked.
tensor::Tensor posit_conv2d(const tensor::Tensor& x, const EncodedTensor& w, const EncodedTensor& bias,
                            const tensor::Conv2dGeom& geom, AccumMode mode);

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
