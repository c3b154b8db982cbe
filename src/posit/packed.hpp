// packed.hpp — bit-packed posit storage.
//
// Section IV of the paper: "By using 8 bits or 16 bits posit number for
// training, the model size can be reduced to 25% or 50%" of FP32. This is
// the one place posit codes are packed:
//
//   * pack_codes / unpack_codes — the block codec primitive: n-bit posit
//     codes packed edge to edge (LSB-first within each byte, no padding
//     between codes), random-access decodable from any code index. Access
//     goes through unaligned 64-bit windows, so every packed buffer must
//     reserve kPackedSlackBytes of tail slack (packed_capacity() accounts
//     for it).
//   * PackedPositTensor — a tensor's codes in that layout, the one posit
//     container: the engine's compressed resident weight panels
//     (a posit(8,·) panel costs 1 byte per value where the decode-once
//     layout spent 12) and the payload of posit checkpoints
//     (nn/serialize.hpp writes payload_bytes() of `packed` verbatim).
//   * pack / unpack — a whole float tensor quantized and packed, and decoded
//     back to float32: the model-size claim as an artifact.
#pragma once

#include <cstdint>
#include <vector>

#include "posit/codec.hpp"
#include "tensor/tensor.hpp"

namespace pdnn::posit {

/// Tail slack every packed buffer must carry so the 64-bit window reads of
/// unpack_codes()/unpack_one() stay in bounds at the last code.
constexpr std::size_t kPackedSlackBytes = 8;

/// Payload bytes of `count` packed n-bit codes (the model-size number).
constexpr std::size_t packed_bytes(std::size_t count, const PositSpec& spec) {
  return (count * static_cast<std::size_t>(spec.n) + 7) / 8;
}

/// Allocation size for a packed buffer of `count` codes (payload + slack).
constexpr std::size_t packed_capacity(std::size_t count, const PositSpec& spec) {
  return packed_bytes(count, spec) + kPackedSlackBytes;
}

/// Pack `count` codes (low n bits each) into `out`, starting at code index
/// `first` of the stream. `out` must hold packed_capacity() bytes for the
/// whole stream and be zeroed over the bits being written (pack_codes ORs
/// into place so adjacent ranges can share boundary bytes).
void pack_codes(const std::uint32_t* codes, std::size_t first, std::size_t count,
                const PositSpec& spec, std::uint8_t* out);

/// Unpack codes [first, first+count) of a packed stream into `out`.
/// Bit-exact inverse of pack_codes for every spec and any ragged range.
void unpack_codes(const std::uint8_t* packed, std::size_t first, std::size_t count,
                  const PositSpec& spec, std::uint32_t* out);

/// Random access to one code of a packed stream.
inline std::uint32_t unpack_one(const std::uint8_t* packed, std::size_t index,
                                const PositSpec& spec) {
  const std::size_t bit = index * static_cast<std::size_t>(spec.n);
  std::uint64_t window;
  __builtin_memcpy(&window, packed + (bit >> 3), sizeof(window));
  return static_cast<std::uint32_t>(window >> (bit & 7)) & spec.mask();
}

/// A tensor's posit codes, bit-packed by pack_codes. `packed` holds
/// packed_capacity(count, spec) bytes; its first payload_bytes() are the
/// codes, the rest is zeroed slack.
struct PackedPositTensor {
  PositSpec spec{8, 1};
  tensor::Shape shape;
  std::vector<std::uint8_t> packed;
  std::size_t count = 0;

  /// Payload bytes of the packed codes (the model-size number; slack excluded).
  std::size_t payload_bytes() const { return packed_bytes(count, spec); }
};

/// Quantize every element of `t` under `mode` and pack the codes. The
/// engine's panels encode nearest-even; Algorithm 1 rounds toward zero.
PackedPositTensor pack(const tensor::Tensor& t, PositSpec spec, RoundMode mode);

/// Decode back to float32 in `p.shape`; NaR maps to 0.
tensor::Tensor unpack(const PackedPositTensor& p);

}  // namespace pdnn::posit
