// matmul_parallel_test.cpp — the threaded dense kernels must be bit-identical
// to a single-thread reference for any shape, including ragged ones that
// don't divide evenly across threads.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "support/bits.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace pdnn::tensor {
namespace {

using test_support::bit_identical;

/// Plain triple loop in the same i-k-j order as matmul_acc — the serial
/// reference the threaded kernel must reproduce exactly.
Tensor matmul_reference(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a.at(i, kk);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) c.at(i, j) += aik * b.at(kk, j);
    }
  return c;
}

int saved_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Runs `fn()` once per thread count in {1, 2, 3, 4} and checks every result
/// against the single-thread one, bit for bit.
template <typename Fn>
void expect_thread_invariant(Fn&& fn, const char* what) {
  const int restore = saved_threads();
  set_threads(1);
  const Tensor reference = fn();
  for (int t = 2; t <= 4; ++t) {
    set_threads(t);
    const Tensor got = fn();
    EXPECT_TRUE(bit_identical(reference, got))
        << what << ": " << t << "-thread result diverged from single-thread";
  }
  set_threads(restore);
}

TEST(MatmulParallel, RaggedShapesBitIdenticalToReference) {
  const std::size_t sizes[] = {1, 7, 64, 129};
  const int restore = saved_threads();
  Rng rng(11);
  for (const std::size_t m : sizes)
    for (const std::size_t k : sizes)
      for (const std::size_t n : sizes) {
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor b = Tensor::randn({k, n}, rng);
        const Tensor want = matmul_reference(a, b);
        expect_thread_invariant([&] { return matmul(a, b); }, "matmul");
        set_threads(4);
        const Tensor got = matmul(a, b);
        EXPECT_TRUE(bit_identical(want, got))
            << "matmul " << m << "x" << k << "x" << n << " diverged from naive reference";
        set_threads(restore);
      }
}

TEST(MatmulParallel, AccumulateIntoNonZeroOutput) {
  Rng rng(12);
  const Tensor a = Tensor::randn({129, 65}, rng);
  const Tensor b = Tensor::randn({65, 129}, rng);
  const Tensor seed_c = Tensor::randn({129, 129}, rng);
  expect_thread_invariant(
      [&] {
        Tensor c = seed_c;
        matmul_acc(a, b, c);
        return c;
      },
      "matmul_acc");
}

TEST(MatmulParallel, LargeSquareMatchesSerial) {
  Rng rng(13);
  const Tensor a = Tensor::randn({256, 256}, rng);
  const Tensor b = Tensor::randn({256, 256}, rng);
  expect_thread_invariant([&] { return matmul(a, b); }, "matmul-256");
}

TEST(MatmulParallel, ConvForwardBitIdenticalAcrossThreads) {
  Rng rng(14);
  // Ragged batch and channel counts; odd image size; stride 2 included.
  const struct {
    std::size_t batch, in_c, hw, out_c, kernel, stride, pad;
  } cases[] = {
      {1, 3, 13, 5, 3, 1, 1},
      {3, 7, 9, 11, 3, 2, 1},
      {5, 4, 16, 8, 1, 1, 0},
      {7, 2, 8, 3, 5, 1, 2},
  };
  for (const auto& tc : cases) {
    const Conv2dGeom g{tc.in_c, tc.hw, tc.hw, tc.out_c, tc.kernel, tc.stride, tc.pad};
    const Tensor input = Tensor::randn({tc.batch, tc.in_c, tc.hw, tc.hw}, rng);
    const Tensor weight = Tensor::randn({tc.out_c, tc.in_c, tc.kernel, tc.kernel}, rng);
    expect_thread_invariant([&] { return conv2d_forward(input, weight, g); }, "conv2d_forward");
  }
}

TEST(MatmulParallel, ConvBackwardBitIdenticalAcrossThreads) {
  Rng rng(15);
  const Conv2dGeom g{4, 10, 10, 6, 3, 1, 1};
  const Tensor input = Tensor::randn({3, 4, 10, 10}, rng);
  const Tensor weight = Tensor::randn({6, 4, 3, 3}, rng);
  const Tensor grad_out = Tensor::randn({3, 6, g.out_h(), g.out_w()}, rng);

  const int restore = saved_threads();
  set_threads(1);
  Tensor gw_ref = Tensor::zeros(weight.shape());
  const Tensor gx_ref = conv2d_backward(input, weight, grad_out, g, gw_ref);
  for (int t = 2; t <= 4; ++t) {
    set_threads(t);
    Tensor gw = Tensor::zeros(weight.shape());
    const Tensor gx = conv2d_backward(input, weight, grad_out, g, gw);
    EXPECT_TRUE(bit_identical(gx_ref, gx)) << t << "-thread grad_input diverged";
    EXPECT_TRUE(bit_identical(gw_ref, gw)) << t << "-thread grad_weight diverged";
  }
  set_threads(restore);
}

}  // namespace
}  // namespace pdnn::tensor
