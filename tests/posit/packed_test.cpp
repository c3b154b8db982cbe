// packed_test.cpp — bit-packed posit tensors (the model-size claim).
#include <gtest/gtest.h>

#include <limits>

#include "posit/packed.hpp"
#include "tensor/random.hpp"

namespace pdnn::posit {
namespace {

class PackedFormatTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  PositSpec spec() const { return PositSpec{GetParam().first, GetParam().second}; }
};

TEST_P(PackedFormatTest, RoundTripEqualsQuantizedValues) {
  const PositSpec s = spec();
  tensor::Rng rng(11);
  const tensor::Tensor t = tensor::Tensor::randn({257}, rng);  // odd count: cross-byte packing
  // The round mode is the caller's: nearest-even (the engine's encode) and
  // toward-zero (Algorithm 1's storage rounding) pack different codes.
  for (const RoundMode mode : {RoundMode::kNearestEven, RoundMode::kTowardZero}) {
    const PackedPositTensor packed = pack(t, s, mode);
    EXPECT_EQ(packed.count, t.numel());
    EXPECT_EQ(packed.packed.size(), packed_capacity(t.numel(), s));
    const tensor::Tensor back = unpack(packed);
    ASSERT_EQ(back.shape(), t.shape());
    for (std::size_t i = 0; i < t.numel(); ++i) {
      const double want = to_double(from_double(t[i], s, mode), s);
      ASSERT_EQ(back[i], static_cast<float>(want)) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FormatSweep, PackedFormatTest,
                         ::testing::Values(std::pair{5, 1}, std::pair{8, 1}, std::pair{8, 2},
                                           std::pair{13, 1}, std::pair{16, 1}, std::pair{16, 2},
                                           std::pair{32, 3}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "_" +
                                  std::to_string(info.param.second);
                         });

double ratio_vs_fp32(const PackedPositTensor& p) {
  return static_cast<double>(p.payload_bytes()) / (static_cast<double>(p.count) * sizeof(float));
}

TEST(PackedSize, PaperModelSizeClaim) {
  // Section IV: 8-bit posit -> 25% of FP32 model size; 16-bit -> 50%.
  tensor::Rng rng(17);
  const tensor::Tensor model = tensor::Tensor::randn({40000}, rng, 0.05f);
  EXPECT_NEAR(ratio_vs_fp32(pack(model, PositSpec{8, 1}, RoundMode::kTowardZero)), 0.25, 1e-4);
  EXPECT_NEAR(ratio_vs_fp32(pack(model, PositSpec{16, 1}, RoundMode::kTowardZero)), 0.50, 1e-4);
}

TEST(PackedSize, OddWidthsPackTightly) {
  const PackedPositTensor p13 =
      pack(tensor::Tensor({1000}), PositSpec{13, 1}, RoundMode::kNearestEven);
  // 13000 bits = 1625 bytes exactly.
  EXPECT_EQ(p13.payload_bytes(), 1625u);
}

TEST(PackedSize, NarUnpacksToZeroInFloats) {
  const PositSpec s{8, 1};
  tensor::Tensor t({2});
  t[0] = std::numeric_limits<float>::quiet_NaN();
  t[1] = 2.0f;
  const PackedPositTensor p = pack(t, s, RoundMode::kNearestEven);
  ASSERT_EQ(unpack_one(p.packed.data(), 0, s), s.nar_code());
  const tensor::Tensor back = unpack(p);
  EXPECT_EQ(back[0], 0.0f);
  EXPECT_EQ(back[1], 2.0f);
}

}  // namespace
}  // namespace pdnn::posit
