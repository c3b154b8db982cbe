#include "posit/packed.hpp"

#include <cstring>

namespace pdnn::posit {

void pack_codes(const std::uint32_t* codes, std::size_t first, std::size_t count,
                const PositSpec& spec, std::uint8_t* out) {
  const std::uint32_t mask = spec.mask();
  const std::size_t n = static_cast<std::size_t>(spec.n);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t bit = (first + i) * n;
    std::uint64_t window;
    std::memcpy(&window, out + (bit >> 3), sizeof(window));
    window |= static_cast<std::uint64_t>(codes[i] & mask) << (bit & 7);
    std::memcpy(out + (bit >> 3), &window, sizeof(window));
  }
}

void unpack_codes(const std::uint8_t* packed, std::size_t first, std::size_t count,
                  const PositSpec& spec, std::uint32_t* out) {
  const std::uint32_t mask = spec.mask();
  const std::size_t n = static_cast<std::size_t>(spec.n);
  std::size_t bit = first * n;
  for (std::size_t i = 0; i < count; ++i, bit += n) {
    std::uint64_t window;
    std::memcpy(&window, packed + (bit >> 3), sizeof(window));
    out[i] = static_cast<std::uint32_t>(window >> (bit & 7)) & mask;
  }
}

PackedPositTensor pack(const tensor::Tensor& t, PositSpec spec, RoundMode mode) {
  spec.validate();
  PackedPositTensor p{spec, t.shape(), {}, t.numel()};
  p.packed.assign(packed_capacity(p.count, spec), 0u);
  for (std::size_t i = 0; i < p.count; ++i) {
    const std::uint32_t code = from_double(t[i], spec, mode);
    pack_codes(&code, i, 1, spec, p.packed.data());
  }
  return p;
}

tensor::Tensor unpack(const PackedPositTensor& p) {
  tensor::Tensor t(p.shape);
  for (std::size_t i = 0; i < p.count; ++i) {
    const double v = to_double(unpack_one(p.packed.data(), i, p.spec), p.spec);
    t[i] = static_cast<float>(v == v ? v : 0.0);  // NaR -> 0 in float tensors
  }
  return t;
}

}  // namespace pdnn::posit
