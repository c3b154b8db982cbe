// serialize_test.cpp — checkpoint save/load, FP32 and posit-compressed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "quant/posit_transform.hpp"

namespace pdnn::nn {
namespace {

using tensor::Rng;
using tensor::Tensor;

template <typename T>
void put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// The posit checkpoint writer as it stood before it moved onto the
/// posit/packed.hpp codec, kept verbatim as the format oracle: every code
/// rounded nearest-even, then written bit by bit, LSB-first.
std::string bitwise_posit_checkpoint(Sequential& net, const posit::PositSpec& spec) {
  std::string out("PDNNP001", 8);
  const auto params = net.params();
  put(out, static_cast<std::uint64_t>(params.size()));
  for (const Param* p : params) {
    put(out, static_cast<std::uint32_t>(p->name.size()));
    out += p->name;
    const auto rank = static_cast<std::uint32_t>(p->value.shape().rank());
    put(out, rank);
    for (std::uint32_t d = 0; d < rank; ++d) {
      put(out, static_cast<std::uint64_t>(p->value.shape()[d]));
    }
    put(out, static_cast<std::uint32_t>(spec.n));
    put(out, static_cast<std::uint32_t>(spec.es));
    std::vector<std::uint8_t> buf((p->value.numel() * static_cast<std::size_t>(spec.n) + 7) / 8, 0);
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      const std::uint32_t code =
          posit::from_double(p->value[i], spec, posit::RoundMode::kNearestEven) & spec.mask();
      const std::size_t bit0 = i * static_cast<std::size_t>(spec.n);
      for (int b = 0; b < spec.n; ++b) {
        const std::size_t bit = bit0 + static_cast<std::size_t>(b);
        if ((code >> b) & 1u) buf[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
    put(out, static_cast<std::uint64_t>(buf.size()));
    out.append(reinterpret_cast<const char*>(buf.data()), buf.size());
  }
  return out;
}

TEST(Serialize, Fp32RoundTripBitExact) {
  Rng rng(1);
  ResNetConfig rc;
  rc.base_channels = 4;
  auto a = cifar_resnet(rc, rng);
  auto b = cifar_resnet(rc, rng);  // different random init

  std::stringstream ss;
  save_parameters(ss, *a);
  load_parameters(ss, *b);

  const auto pa = a->params();
  const auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->name, pb[i]->name);
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]) << pa[i]->name << "[" << j << "]";
    }
  }
}

TEST(Serialize, LoadedModelComputesIdentically) {
  Rng rng(2);
  ResNetConfig rc;
  rc.base_channels = 4;
  auto a = cifar_resnet(rc, rng);
  auto b = cifar_resnet(rc, rng);
  std::stringstream ss;
  save_parameters(ss, *a);
  load_parameters(ss, *b);

  Rng drng(3);
  const Tensor x = Tensor::randn({2, 3, 12, 12}, drng);
  const Tensor ya = a->forward(x, false);
  const Tensor yb = b->forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) ASSERT_EQ(ya[i], yb[i]);
}

TEST(Serialize, ArchitectureMismatchThrows) {
  Rng rng(4);
  ResNetConfig small, big;
  small.base_channels = 4;
  big.base_channels = 8;
  auto a = cifar_resnet(small, rng);
  auto b = cifar_resnet(big, rng);
  std::stringstream ss;
  save_parameters(ss, *a);
  EXPECT_THROW(load_parameters(ss, *b), std::runtime_error);
}

TEST(Serialize, CorruptStreamThrows) {
  Rng rng(5);
  auto net = mlp(2, 4, 2, 1, rng);
  std::stringstream bad("not a checkpoint at all");
  EXPECT_THROW(load_parameters(bad, *net), std::runtime_error);

  std::stringstream truncated;
  save_parameters(truncated, *net);
  std::string data = truncated.str();
  data.resize(data.size() / 2);
  std::stringstream half(data);
  EXPECT_THROW(load_parameters(half, *net), std::runtime_error);
}

TEST(Serialize, PositCheckpointQuantizesAndShrinks) {
  Rng rng(6);
  ResNetConfig rc;
  rc.base_channels = 8;
  auto a = cifar_resnet(rc, rng);
  auto b = cifar_resnet(rc, rng);

  std::stringstream ss;
  const std::size_t payload = save_parameters_posit(ss, *a, posit::PositSpec{8, 1});
  // 25% of the FP32 payload (Section IV claim).
  std::size_t fp32_payload = 0;
  for (const Param* p : a->params()) fp32_payload += p->value.numel() * sizeof(float);
  EXPECT_EQ(payload, fp32_payload / 4);

  load_parameters_posit(ss, *b);
  const auto pa = a->params();
  const auto pb = b->params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      // Loaded values are the nearest-even posit(8,1) grid points of the
      // originals.
      const float orig = pa[i]->value[j];
      const double want = posit::to_double(posit::from_double(orig, {8, 1}), {8, 1});
      ASSERT_EQ(pb[i]->value[j], static_cast<float>(want == want ? want : 0.0)) << pa[i]->name;
    }
  }
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(7);
  auto a = mlp(2, 8, 2, 1, rng);
  auto b = mlp(2, 8, 2, 1, rng);
  const std::string path = "/tmp/pdnn_ckpt_test.bin";
  save_parameters_file(path, *a);
  load_parameters_file(path, *b);
  const auto pa = a->params();
  const auto pb = b->params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
  EXPECT_THROW(load_parameters_file("/nonexistent/nope.bin", *b), std::runtime_error);
}

TEST(Serialize, PositCheckpointBytesMatchBitwiseWriter) {
  // The codec-backed writer must keep the on-disk format byte for byte. The
  // odd-width (13,1) packs codes across byte boundaries, and the MLP's
  // odd-sized tensors end mid-byte.
  Rng rng(8);
  auto net = mlp(3, 7, 5, 2, rng);
  for (const posit::PositSpec spec : {posit::PositSpec{8, 1}, posit::PositSpec{13, 1},
                                      posit::PositSpec{16, 2}}) {
    std::stringstream ss;
    save_parameters_posit(ss, *net, spec);
    EXPECT_EQ(ss.str(), bitwise_posit_checkpoint(*net, spec)) << spec.to_string();
  }
}

/// Byte offset of the first parameter's u32 n field in a posit checkpoint.
std::size_t first_spec_offset(Sequential& net) {
  const Param& p = *net.params().front();
  return 8 + 8 + 4 + p.name.size() + 4 + 8 * p.value.shape().rank();
}

std::string loads_with(Sequential& net, const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    load_parameters_posit(ss, net);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "loaded";
}

TEST(Serialize, CorruptPositCheckpointThrowsRuntimeError) {
  Rng rng(9);
  auto net = mlp(2, 4, 2, 1, rng);
  std::stringstream ss;
  save_parameters_posit(ss, *net, posit::PositSpec{8, 1});
  const std::string good = ss.str();
  ASSERT_EQ(loads_with(*net, good), "loaded");

  const std::size_t at = first_spec_offset(*net);
  const auto patched = [&](std::size_t offset, std::uint64_t value, std::size_t width) {
    std::string bytes = good;
    std::memcpy(bytes.data() + offset, &value, width);
    return bytes;
  };
  // A spec outside PositSpec's limits is a malformed stream, not a bad
  // argument: the loader reports it like every other corruption.
  EXPECT_EQ(loads_with(*net, patched(at, 0, 4)), "checkpoint: bad posit format");
  EXPECT_EQ(loads_with(*net, patched(at, 33, 4)), "checkpoint: bad posit format");
  EXPECT_EQ(loads_with(*net, patched(at + 4, 7, 4)), "checkpoint: bad posit format");

  std::uint64_t payload = 0;
  std::memcpy(&payload, good.data() + at + 8, sizeof(payload));
  EXPECT_EQ(loads_with(*net, patched(at + 8, payload + 1, 8)),
            "checkpoint: payload size mismatch");
  EXPECT_EQ(loads_with(*net, good.substr(0, at + 16 + payload / 2)),
            "checkpoint: truncated posit payload");
}

}  // namespace
}  // namespace pdnn::nn
