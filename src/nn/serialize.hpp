// serialize.hpp — model checkpointing.
//
// Saves/loads all learnable parameters of a module tree by name, in a simple
// binary container. Two uses in this repo: reusing a warm-up-trained FP32
// checkpoint across posit configurations (the paper trains the warm-up once
// per run; sharing it makes ablations comparable), and persisting posit
// models compactly as posit::PackedPositTensor payloads (the 25%/50%
// model-size claim).
#pragma once

#include <iosfwd>
#include <string>

#include "nn/layers.hpp"
#include "posit/packed.hpp"

namespace pdnn::nn {

/// Writes `net`'s parameters (FP32) to the stream. Format:
///   magic "PDNN0001" | u64 param count | per param:
///   u32 name length | name bytes | u32 rank | u64 dims[rank] | f32 data[]
void save_parameters(std::ostream& os, Sequential& net);

/// Restores parameters by name; throws std::runtime_error on missing params,
/// shape mismatch, or a malformed stream. Extra params in the stream are an
/// error too (checkpoint and architecture must agree).
void load_parameters(std::istream& is, Sequential& net);

/// Convenience file wrappers.
void save_parameters_file(const std::string& path, Sequential& net);
void load_parameters_file(const std::string& path, Sequential& net);

/// Posit-compressed checkpoint: every parameter rounded nearest-even to
/// (n, es) codes by posit::pack. Format:
///   magic "PDNNP001" | u64 param count | per param:
///   u32 name length | name bytes | u32 rank | u64 dims[rank] |
///   u32 n | u32 es | u64 payload bytes | payload
/// where the payload is posit::pack_codes' layout (n-bit codes edge to edge,
/// LSB-first) without its tail slack. Returns total payload bytes (the
/// model-size number of Section IV).
std::size_t save_parameters_posit(std::ostream& os, Sequential& net, const posit::PositSpec& spec);

/// Restores a posit checkpoint (NaR codes load as 0). Throws
/// std::runtime_error on everything load_parameters rejects, on an (n, es)
/// outside PositSpec's limits ("checkpoint: bad posit format"), on a payload
/// size that disagrees with shape and format, and on a truncated payload.
void load_parameters_posit(std::istream& is, Sequential& net);

}  // namespace pdnn::nn
