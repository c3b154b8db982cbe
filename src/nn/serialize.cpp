#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

namespace pdnn::nn {

namespace {

constexpr char kMagicF32[8] = {'P', 'D', 'N', 'N', '0', '0', '0', '1'};
constexpr char kMagicPosit[8] = {'P', 'D', 'N', 'N', 'P', '0', '0', '1'};

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("checkpoint: truncated stream");
  return v;
}

void write_header(std::ostream& os, const char (&magic)[8], std::uint64_t count) {
  os.write(magic, 8);
  write_pod(os, count);
}

void expect_magic(std::istream& is, const char (&magic)[8]) {
  char buf[8];
  is.read(buf, 8);
  if (!is || std::memcmp(buf, magic, 8) != 0) throw std::runtime_error("checkpoint: bad magic");
}

void write_name_shape(std::ostream& os, const Param& p) {
  const auto len = static_cast<std::uint32_t>(p.name.size());
  write_pod(os, len);
  os.write(p.name.data(), len);
  const auto rank = static_cast<std::uint32_t>(p.value.shape().rank());
  write_pod(os, rank);
  for (std::uint32_t d = 0; d < rank; ++d) {
    write_pod(os, static_cast<std::uint64_t>(p.value.shape()[d]));
  }
}

struct NameShape {
  std::string name;
  tensor::Shape shape;
};

NameShape read_name_shape(std::istream& is) {
  NameShape out;
  const auto len = read_pod<std::uint32_t>(is);
  if (len > 4096) throw std::runtime_error("checkpoint: absurd name length");
  out.name.resize(len);
  is.read(out.name.data(), len);
  const auto rank = read_pod<std::uint32_t>(is);
  if (rank > 4) throw std::runtime_error("checkpoint: rank > 4");
  std::size_t dims[4] = {0, 0, 0, 0};
  for (std::uint32_t d = 0; d < rank; ++d) dims[d] = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  switch (rank) {
    case 0: out.shape = tensor::Shape{}; break;
    case 1: out.shape = tensor::Shape{dims[0]}; break;
    case 2: out.shape = tensor::Shape{dims[0], dims[1]}; break;
    case 3: out.shape = tensor::Shape{dims[0], dims[1], dims[2]}; break;
    default: out.shape = tensor::Shape{dims[0], dims[1], dims[2], dims[3]}; break;
  }
  return out;
}

std::map<std::string, Param*> params_by_name(Sequential& net) {
  std::map<std::string, Param*> map;
  for (Param* p : net.params()) map[p->name] = p;
  return map;
}

}  // namespace

void save_parameters(std::ostream& os, Sequential& net) {
  const auto params = net.params();
  write_header(os, kMagicF32, params.size());
  for (const Param* p : params) {
    write_name_shape(os, *p);
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
}

void load_parameters(std::istream& is, Sequential& net) {
  expect_magic(is, kMagicF32);
  const auto count = read_pod<std::uint64_t>(is);
  auto by_name = params_by_name(net);
  if (count != by_name.size()) throw std::runtime_error("checkpoint: parameter count mismatch");
  for (std::uint64_t i = 0; i < count; ++i) {
    const NameShape ns = read_name_shape(is);
    const auto it = by_name.find(ns.name);
    if (it == by_name.end()) throw std::runtime_error("checkpoint: unknown parameter " + ns.name);
    if (it->second->value.shape() != ns.shape) {
      throw std::runtime_error("checkpoint: shape mismatch for " + ns.name);
    }
    is.read(reinterpret_cast<char*>(it->second->value.data()),
            static_cast<std::streamsize>(it->second->value.numel() * sizeof(float)));
    if (!is) throw std::runtime_error("checkpoint: truncated data for " + ns.name);
    it->second->mark_updated();
  }
}

void save_parameters_file(const std::string& path, Sequential& net) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  save_parameters(os, net);
}

void load_parameters_file(const std::string& path, Sequential& net) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  load_parameters(is, net);
}

std::size_t save_parameters_posit(std::ostream& os, Sequential& net, const posit::PositSpec& spec) {
  const auto params = net.params();
  write_header(os, kMagicPosit, params.size());
  std::size_t payload = 0;
  for (const Param* p : params) {
    write_name_shape(os, *p);
    write_pod(os, static_cast<std::uint32_t>(spec.n));
    write_pod(os, static_cast<std::uint32_t>(spec.es));
    const posit::PackedPositTensor packed =
        posit::pack(p->value, spec, posit::RoundMode::kNearestEven);
    const std::size_t bytes = packed.payload_bytes();
    write_pod(os, static_cast<std::uint64_t>(bytes));
    os.write(reinterpret_cast<const char*>(packed.packed.data()),
             static_cast<std::streamsize>(bytes));
    payload += bytes;
  }
  return payload;
}

void load_parameters_posit(std::istream& is, Sequential& net) {
  expect_magic(is, kMagicPosit);
  const auto count = read_pod<std::uint64_t>(is);
  auto by_name = params_by_name(net);
  if (count != by_name.size()) throw std::runtime_error("checkpoint: parameter count mismatch");
  for (std::uint64_t i = 0; i < count; ++i) {
    const NameShape ns = read_name_shape(is);
    const auto n = static_cast<int>(read_pod<std::uint32_t>(is));
    const auto es = static_cast<int>(read_pod<std::uint32_t>(is));
    const posit::PositSpec spec{n, es};
    try {
      spec.validate();
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("checkpoint: bad posit format");
    }
    const auto bytes = read_pod<std::uint64_t>(is);
    const auto it = by_name.find(ns.name);
    if (it == by_name.end()) throw std::runtime_error("checkpoint: unknown parameter " + ns.name);
    if (it->second->value.shape() != ns.shape) {
      throw std::runtime_error("checkpoint: shape mismatch for " + ns.name);
    }
    posit::PackedPositTensor packed{spec, ns.shape, {}, ns.shape.numel()};
    if (bytes != packed.payload_bytes()) {
      throw std::runtime_error("checkpoint: payload size mismatch");
    }
    // The stored payload is pack_codes' layout verbatim; the slack stays zero.
    packed.packed.assign(posit::packed_capacity(packed.count, spec), 0u);
    is.read(reinterpret_cast<char*>(packed.packed.data()), static_cast<std::streamsize>(bytes));
    if (!is) throw std::runtime_error("checkpoint: truncated posit payload");
    it->second->value = posit::unpack(packed);
    it->second->mark_updated();
  }
}

}  // namespace pdnn::nn
