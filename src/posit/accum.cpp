#include "posit/accum.hpp"

namespace pdnn::posit {

RoundedAccum::Sum RoundedAccum::round_slow(Format f, bool neg, std::uint64_t mag, int msb,
                                           int scale) {
  const PositSpec spec{f.n, f.es};
  const Unpacked u = decode_unpacked(
      round_pack(spec, neg, scale, mag, msb, false, RoundMode::kNearestEven, nullptr), spec);
  return Sum{u.sig, u.lsb_weight, neg};
}

std::uint32_t RoundedAccum::to_posit() const {
  const PositSpec spec{fmt_.n, fmt_.es};
  if (nar_) return spec.nar_code();
  if (sum_.sig == 0) return 0u;
  const int msb = 63 - __builtin_clzll(sum_.sig);
  return round_pack(spec, sum_.neg, sum_.weight + msb, sum_.sig, msb, false,
                    RoundMode::kNearestEven, nullptr);
}

}  // namespace pdnn::posit
