// bits.hpp — bit-equality helpers for the cross-path tests: tensors, float
// vectors, whole networks (parameters plus BN running statistics), and the
// solo (batch-of-one) reference a batched answer must match.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace pdnn::test_support {

/// Same shape, same bits. The N = 0 guard keeps memcmp away from an empty
/// tensor's null data().
inline bool bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 || std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0);
}

inline bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Every parameter and every BN running statistic of `a` and `b` agrees bit
/// for bit (the nets must share a topology).
inline void expect_nets_identical(nn::Module& a, nn::Module& b, const std::string& ctx) {
  const std::vector<nn::Param*> pa = a.params();
  const std::vector<nn::Param*> pb = b.params();
  ASSERT_EQ(pa.size(), pb.size()) << ctx;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(bit_identical(pa[i]->value, pb[i]->value))
        << ctx << ": param " << i << " (" << pa[i]->name << ") differs";
  }
  const auto bns = [](nn::Module& m) {
    std::vector<nn::BatchNorm2d*> out;
    m.visit([&out](nn::Module& x) {
      if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&x)) out.push_back(bn);
    });
    return out;
  };
  const std::vector<nn::BatchNorm2d*> ba = bns(a), bb = bns(b);
  ASSERT_EQ(ba.size(), bb.size()) << ctx;
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_TRUE(bit_identical(ba[i]->running_mean(), bb[i]->running_mean()))
        << ctx << ": running_mean of bn " << i << " differs";
    EXPECT_TRUE(bit_identical(ba[i]->running_var(), bb[i]->running_var()))
        << ctx << ": running_var of bn " << i << " differs";
  }
}

/// `sample` alone (a batch of one) through `backend`, copied out.
inline tensor::Tensor solo_run(exec::Backend& backend, const tensor::Tensor& sample) {
  const tensor::Tensor* one = &sample;
  tensor::Tensor batch, row;
  tensor::stack_samples(&one, 1, batch);
  tensor::extract_sample(backend.run(batch), 0, row);
  return row;
}

}  // namespace pdnn::test_support
