// posit — posit inference engine perf tracking. Times the retained scalar
// reference path (coded operands, decode per MAC, weights re-encoded per
// call) against the compiled PositSession — a one-layer network holding the
// case's weights, steady-state run() — for representative layer shapes, per
// spec and accumulation mode, serial and at every hardware thread. Checks
// every session row is bit-identical to the reference, and writes
// BENCH_posit.json (MAC/s and effective GF/s) so later PRs can diff. A
// batch-size sweep on the linear shape (labels "linear_sweep_b*") records
// serving throughput as the per-run batch grows.
//
// Usage:
//   bench_posit [out.json]
//   bench_posit --check-regression <baseline.json> [out.json]
//     also compares session/decode serial MAC/s against the baseline.
//
// The JSON header carries host metadata (CPU model, nproc, AVX2, compiler).
// Besides throughput rows, it holds a "footprints" array — per (shape,
// spec) posit::pack'ed weight+bias payload bytes next to what the old
// unpacked layout (4-byte code + 8-byte Unpacked per value) would cost —
// and per-spec "decode_bandwidth" rows timing the block decoder (unpack +
// SIMD batch decode; macs_per_s holds codes/s for these).
//
// Exit codes: 0 ok; 1 correctness mismatch or packed-footprint growth vs
// the baseline (both blocking — bit-identity and model size are contracts);
// 2 usage / unreadable baseline / unwritable output; 3 only a perf
// regression (>20% below baseline — CI treats this one as non-blocking).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nn/layers.hpp"
#include "posit/add_lut.hpp"
#include "posit/mul_lut.hpp"
#include "posit/packed.hpp"
#include "posit/simd.hpp"
#include "quant/posit_inference.hpp"
#include "quant/posit_session.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

using pdnn::posit::PositSpec;
using pdnn::quant::AccumMode;
using pdnn::quant::PositSession;
using pdnn::quant::SessionConfig;
using pdnn::tensor::Conv2dGeom;
using pdnn::tensor::Rng;
using pdnn::tensor::Tensor;

const char* mode_name(AccumMode m) {
  switch (m) {
    case AccumMode::kQuire: return "quire";
    case AccumMode::kSerial: return "serial";
    case AccumMode::kFma: return "fma";
  }
  return "?";
}

struct Case {
  std::string label;     // stable key for cross-PR comparison
  bool is_conv = false;
  // linear: x [m, k] * w [n, k]^T
  std::size_t m = 0, k = 0, n = 0;
  Conv2dGeom geom;
  std::size_t batch = 0;
  double macs = 0.0;
};

struct Result {
  std::string label;
  PositSpec spec{8, 1};
  AccumMode mode = AccumMode::kQuire;
  std::string path;  // "reference" | "session" | "decode"
  int threads = 1;
  double seconds = 0.0;
  double macs_per_s = 0.0;
  bool lut = false;
  bool bit_identical = true;
  double speedup = 0.0;  // vs reference at the same (label, spec, mode); 0 when n/a
};

using pdnn::benchutil::max_threads;
using pdnn::benchutil::scan_number;
using pdnn::benchutil::scan_string;
using pdnn::benchutil::set_threads;
using pdnn::benchutil::time_best;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Packed panel bytes for one (shape, spec) next to the retired unpacked
/// layout's cost (4-byte code + 8-byte Unpacked per value) — the paper's
/// model-size story, gated against growth by --check-regression.
struct Footprint {
  std::string label;
  PositSpec spec{8, 1};
  std::size_t packed_bytes = 0;
  std::size_t unpacked_bytes = 0;
  std::size_t values = 0;
};

struct BaselineEntry {
  std::string label, mode, path;
  int n = 0, es = 0, threads = 0;
  double macs_per_s = 0.0;
};

std::vector<BaselineEntry> parse_baseline(const std::string& path) {
  std::ifstream in(path);
  std::vector<BaselineEntry> entries;
  if (!in.good()) return entries;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  auto pos = text.find("\"results\"");
  if (pos == std::string::npos) return entries;
  while ((pos = text.find('{', pos)) != std::string::npos) {
    const auto end = text.find('}', pos);
    if (end == std::string::npos) break;
    const std::string obj = text.substr(pos, end - pos + 1);
    double n = 0, es = 0, threads = 0, macs_per_s = 0;
    if (scan_number(obj, "spec_n", &n) && scan_number(obj, "spec_es", &es) &&
        scan_number(obj, "threads", &threads) && scan_number(obj, "macs_per_s", &macs_per_s)) {
      BaselineEntry e;
      e.label = scan_string(obj, "label");
      e.mode = scan_string(obj, "mode");
      e.path = scan_string(obj, "path");
      e.n = static_cast<int>(n);
      e.es = static_cast<int>(es);
      e.threads = static_cast<int>(threads);
      e.macs_per_s = macs_per_s;
      entries.push_back(e);
    }
    pos = end + 1;
  }
  return entries;
}

/// Footprint objects in a baseline JSON (keyed off panel_bytes_packed, which
/// throughput rows never carry). Older baselines simply yield none.
std::vector<Footprint> parse_baseline_footprints(const std::string& path) {
  std::ifstream in(path);
  std::vector<Footprint> entries;
  if (!in.good()) return entries;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::string::size_type pos = 0;
  while ((pos = text.find('{', pos)) != std::string::npos) {
    const auto end = text.find('}', pos);
    if (end == std::string::npos) break;
    const std::string obj = text.substr(pos, end - pos + 1);
    double n = 0, es = 0, packed = 0, unpacked = 0;
    if (scan_number(obj, "spec_n", &n) && scan_number(obj, "spec_es", &es) &&
        scan_number(obj, "panel_bytes_packed", &packed) &&
        scan_number(obj, "panel_bytes_unpacked", &unpacked)) {
      Footprint f;
      f.label = scan_string(obj, "label");
      f.spec = PositSpec{static_cast<int>(n), static_cast<int>(es)};
      f.packed_bytes = static_cast<std::size_t>(packed);
      f.unpacked_bytes = static_cast<std::size_t>(unpacked);
      entries.push_back(f);
    }
    pos = end + 1;
  }
  return entries;
}

std::size_t baseline_packed_bytes(const std::vector<Footprint>& entries, const Footprint& f) {
  for (const auto& e : entries) {
    if (e.label == f.label && e.spec.n == f.spec.n && e.spec.es == f.spec.es)
      return e.packed_bytes;
  }
  return 0;
}

double baseline_macs(const std::vector<BaselineEntry>& entries, const Result& r) {
  for (const auto& e : entries) {
    if (e.label == r.label && e.mode == mode_name(r.mode) && e.path == r.path &&
        e.n == r.spec.n && e.es == r.spec.es && e.threads == 1) {
      return e.macs_per_s;
    }
  }
  return 0.0;
}

/// One-layer network holding exactly the bench case's weights, so the
/// session measures the same arithmetic the reference does.
std::unique_ptr<pdnn::nn::Sequential> case_net(const Case& c, const Tensor& w, const Tensor& bias) {
  // Local Rng: the ctor init is overwritten below, and consuming the bench's
  // stream here would shift every later case's data.
  Rng rng(999);
  auto net = std::make_unique<pdnn::nn::Sequential>("bench");
  if (c.is_conv) {
    auto conv = std::make_unique<pdnn::nn::Conv2d>("layer", c.geom.in_c, c.geom.out_c,
                                                   c.geom.kh(), c.geom.stride, c.geom.pad, rng,
                                                   /*with_bias=*/true, c.geom.kernel_w);
    conv->weight().value = w;
    conv->weight().mark_updated();
    conv->bias().value = bias;
    conv->bias().mark_updated();
    net->add(std::move(conv));
  } else {
    auto fc = std::make_unique<pdnn::nn::Linear>("layer", c.k, c.n, rng);
    fc->weight().value = w;
    fc->weight().mark_updated();
    fc->bias().value = bias;
    fc->bias().mark_updated();
    net->add(std::move(fc));
  }
  return net;
}

SessionConfig session_config(const PositSpec& spec, AccumMode mode) {
  SessionConfig cfg;
  cfg.spec = spec;
  cfg.mode = mode;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_posit.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check-regression") {
      if (i + 1 >= argc) {
        std::cerr << "FAIL: --check-regression needs a baseline path\n";
        return 2;
      }
      baseline_path = argv[++i];
    } else {
      out_path = arg;
    }
  }

  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    baseline = parse_baseline(baseline_path);
    if (baseline.empty()) {
      std::cerr << "FAIL: no parsable results in baseline " << baseline_path << "\n";
      return 2;
    }
  }

  // The acceptance shape (linear 64x512x512) plus a conv-lowered panel; the
  // spec set covers the LUT dispatch (n=8), the ImageNet format (16,1), and
  // a wide format exercising the full unpacked range.
  std::vector<Case> cases;
  {
    Case lin;
    lin.label = "linear_64x512x512";
    lin.m = 64;
    lin.k = 512;
    lin.n = 512;
    lin.macs = 64.0 * 512 * 512;
    cases.push_back(lin);
    Case conv;
    conv.label = "conv_8c16x16_o16k3";
    conv.is_conv = true;
    conv.geom = Conv2dGeom{8, 16, 16, 16, 3, 1, 1};
    conv.batch = 4;
    conv.macs = static_cast<double>(conv.batch) * conv.geom.out_c * conv.geom.out_h() *
                conv.geom.out_w() * conv.geom.patch();
    cases.push_back(conv);
  }
  const std::vector<PositSpec> specs = {{8, 1}, {16, 1}, {32, 2}};
  const std::vector<AccumMode> modes = {AccumMode::kQuire, AccumMode::kSerial, AccumMode::kFma};

  const int hw_threads = max_threads();
  Rng rng(7);
  std::vector<Result> results;
  std::vector<Footprint> footprints;
  bool mismatch = false;

  for (const Case& c : cases) {
    const Tensor x = c.is_conv ? Tensor::randn({c.batch, c.geom.in_c, c.geom.in_h, c.geom.in_w}, rng)
                               : Tensor::randn({c.m, c.k}, rng);
    const Tensor w = c.is_conv
                         ? Tensor::randn({c.geom.out_c, c.geom.in_c, c.geom.kh(), c.geom.kw()}, rng, 0.3f)
                         : Tensor::randn({c.n, c.k}, rng, 0.3f);
    const Tensor bias = c.is_conv ? Tensor::randn({c.geom.out_c}, rng, 0.1f)
                                  : Tensor::randn({c.n}, rng, 0.1f);

    for (const PositSpec& spec : specs) {
      {
        // Model footprint at this format: packed payload vs what the retired
        // unpacked layout (uint32 code + 8-byte Unpacked per value) held.
        const auto fw = pdnn::posit::pack(w, spec, pdnn::quant::kEncodeRound);
        const auto fb = pdnn::posit::pack(bias, spec, pdnn::quant::kEncodeRound);
        Footprint f;
        f.label = c.label;
        f.spec = spec;
        f.values = fw.count + fb.count;
        f.packed_bytes = fw.payload_bytes() + fb.payload_bytes();
        f.unpacked_bytes = f.values * (sizeof(std::uint32_t) + sizeof(pdnn::posit::Unpacked));
        footprints.push_back(f);
        std::printf("%-20s %-11s panel %zu B packed vs %zu B unpacked (x%.2f smaller)\n",
                    c.label.c_str(), spec.to_string().c_str(), f.packed_bytes, f.unpacked_bytes,
                    static_cast<double>(f.unpacked_bytes) / static_cast<double>(f.packed_bytes));
      }
      for (const AccumMode mode : modes) {
        // The tables engine_gemm dispatches onto (resolve_luts' predicates):
        // mul + add drive the serial chain, the fma table the fma chain.
        constexpr auto kArith = pdnn::posit::RoundMode::kNearestEven;
        const bool lut =
            (mode == AccumMode::kSerial && pdnn::posit::mul_lut_supported(spec, kArith) &&
             pdnn::posit::add_lut_supported(spec, kArith)) ||
            (mode == AccumMode::kFma && pdnn::posit::fma_lut_supported(spec, kArith));
        // Small shapes are noisy on shared runners; more reps tighten the
        // best-of (mirrors bench_gemm).
        const bool small = c.macs < 8.0e6;
        const int ref_reps = small ? 3 : 1;
        const int sess_reps = small ? 10 : 3;
        set_threads(1);

        Tensor ref_out;
        const auto run_ref = [&] {
          ref_out = c.is_conv
                        ? pdnn::quant::posit_conv2d_reference(x, w, bias, c.geom, spec, mode)
                        : pdnn::quant::posit_linear_reference(x, w, bias, spec, mode);
        };
        const double t_ref = time_best(run_ref, ref_reps);

        // Compiled steady state: weights pre-encoded into session panels,
        // quire arenas planned, scratch reused across run() calls.
        auto net = case_net(c, w, bias);
        PositSession session = PositSession::compile(*net, session_config(spec, mode));
        const Tensor* sess_out = nullptr;
        const auto run_sess = [&] { sess_out = &session.run(x); };
        run_sess();  // settle buffer shapes before timing
        const double t_sess = time_best(run_sess, sess_reps);
        const bool sess_match = same_bits(*sess_out, ref_out);
        set_threads(hw_threads);
        const double t_thr = time_best(run_sess, sess_reps);
        const bool thr_match = same_bits(*sess_out, ref_out);
        set_threads(1);

        results.push_back({c.label, spec, mode, "reference", 1, t_ref, c.macs / t_ref, lut, true, 1.0});
        results.push_back({c.label, spec, mode, "session", 1, t_sess, c.macs / t_sess, lut,
                           sess_match, t_ref / t_sess});
        results.push_back({c.label, spec, mode, "session", hw_threads, t_thr, c.macs / t_thr, lut,
                           thr_match, t_ref / t_thr});
        mismatch = mismatch || !sess_match || !thr_match;

        std::printf("%-20s %-11s %-6s ref %8.3f MMAC/s  session %8.3f MMAC/s (x%5.1f)  "
                    "%d-thr %8.3f  %s%s\n",
                    c.label.c_str(), spec.to_string().c_str(), mode_name(mode), c.macs / t_ref * 1e-6,
                    c.macs / t_sess * 1e-6, t_ref / t_sess, hw_threads, c.macs / t_thr * 1e-6,
                    sess_match && thr_match ? "bit-identical" : "MISMATCH", lut ? " [lut]" : "");
      }
    }
  }

  {
    // Batch-size sweep: serving throughput as the per-run batch grows, on the
    // acceptance shape's format (posit(16,1), quire accumulation).
    const PositSpec spec{16, 1};
    const AccumMode mode = AccumMode::kQuire;
    const Case& lin = cases[0];
    const Tensor w = Tensor::randn({lin.n, lin.k}, rng, 0.3f);
    const Tensor bias = Tensor::randn({lin.n}, rng, 0.1f);
    auto net = case_net(lin, w, bias);
    PositSession session = PositSession::compile(*net, session_config(spec, mode));
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                                    std::size_t{256}}) {
      const Tensor x = Tensor::randn({batch, lin.k}, rng);
      const double macs = static_cast<double>(batch) * lin.k * lin.n;
      const Tensor* out = nullptr;
      const auto run_sess = [&] { out = &session.run(x); };
      run_sess();
      const double t = time_best(run_sess, batch >= 64 ? 3 : 10);
      const bool match =
          same_bits(*out, pdnn::quant::posit_linear_reference(x, w, bias, spec, mode));
      const std::string label = "linear_sweep_b" + std::to_string(batch);
      results.push_back({label, spec, mode, "session", 1, t, macs / t, false, match, 0.0});
      mismatch = mismatch || !match;
      std::printf("%-20s %-11s %-6s session %8.3f MMAC/s  %s\n", label.c_str(),
                  spec.to_string().c_str(), mode_name(mode), macs / t * 1e-6,
                  match ? "bit-identical" : "MISMATCH");
    }
  }

  {
    // Block-decoder bandwidth: unpack a packed panel and group-decode it into
    // Unpacked lanes — the exact work engine_gemm does per weight row.
    // macs_per_s carries codes/s for these rows.
    const std::size_t n_codes = std::size_t{1} << 20;
    std::vector<float> src(n_codes);
    Rng drng(31);
    for (float& v : src) v = static_cast<float>((drng.uniform() - 0.5) * 4.0);
    std::vector<std::uint32_t> codes(n_codes);
    std::vector<pdnn::posit::Unpacked> ops(n_codes);
    for (const PositSpec& spec : specs) {
      pdnn::posit::PackedPositTensor panel;
      pdnn::quant::encode_pack_into(src.data(), n_codes, spec, panel);
      const auto run_decode = [&] {
        pdnn::posit::unpack_codes(panel.packed.data(), 0, n_codes, spec, codes.data());
        pdnn::posit::decode_unpacked(codes.data(), n_codes, spec, ops.data());
      };
      const double t = time_best(run_decode, 5);
      const double codes_per_s = static_cast<double>(n_codes) / t;
      results.push_back({"decode_bandwidth", spec, AccumMode::kQuire, "decode", 1, t, codes_per_s,
                         false, true, 0.0});
      std::printf("%-20s %-11s %8.1f Mcodes/s (unpack + simd decode, %zu codes)\n",
                  "decode_bandwidth", spec.to_string().c_str(), codes_per_s * 1e-6, n_codes);
    }
  }

  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "FAIL: cannot open " << out_path << " for writing\n";
    return 2;
  }
  out << "{\n  \"bench\": \"posit\",\n  "
      << pdnn::benchutil::host_json(pdnn::posit::simd::enabled())
      << ",\n  \"threads_available\": " << hw_threads
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"label\": \"" << r.label << "\", \"spec_n\": " << r.spec.n
        << ", \"spec_es\": " << r.spec.es << ", \"mode\": \"" << mode_name(r.mode)
        << "\", \"path\": \"" << r.path << "\", \"threads\": " << r.threads
        << ", \"seconds\": " << r.seconds << ", \"macs_per_s\": " << r.macs_per_s
        << ", \"gflops\": " << 2.0 * r.macs_per_s * 1e-9 << ", \"lut\": " << (r.lut ? "true" : "false")
        << ", \"speedup_vs_reference\": " << r.speedup
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"footprints\": [\n";
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    const auto& f = footprints[i];
    out << "    {\"label\": \"" << f.label << "\", \"spec_n\": " << f.spec.n
        << ", \"spec_es\": " << f.spec.es << ", \"values\": " << f.values
        << ", \"panel_bytes_packed\": " << f.packed_bytes
        << ", \"panel_bytes_unpacked\": " << f.unpacked_bytes << ", \"compression\": "
        << static_cast<double>(f.unpacked_bytes) / static_cast<double>(f.packed_bytes) << "}"
        << (i + 1 < footprints.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (mismatch) {
    std::cerr << "FAIL: session diverged from the scalar reference\n";
  }

  bool regressed = false;
  bool footprint_grew = false;
  if (!baseline_path.empty()) {
    for (const auto& r : results) {
      if ((r.path != "session" && r.path != "decode") || r.threads != 1) continue;
      const double base = baseline_macs(baseline, r);
      if (base <= 0.0) continue;  // entry not in baseline; nothing to compare
      const double ratio = r.macs_per_s / base;
      std::printf("regression check %-20s %-13s %-11s %-6s: %8.3f MMAC/s vs baseline %8.3f (x%.2f)%s\n",
                  r.label.c_str(), r.path.c_str(), r.spec.to_string().c_str(), mode_name(r.mode),
                  r.macs_per_s * 1e-6, base * 1e-6, ratio, ratio < 0.8 ? "  REGRESSION" : "");
      if (ratio < 0.8) regressed = true;
    }
    if (regressed)
      std::cerr << "FAIL: session serial MAC/s dropped >20% vs " << baseline_path << "\n";

    // Packed footprint is a model-size contract, not a perf number: panels
    // are deterministic bytes, so any growth over the baseline is a real
    // layout change and blocks like a correctness failure.
    const std::vector<Footprint> base_fp = parse_baseline_footprints(baseline_path);
    for (const auto& f : footprints) {
      const std::size_t base = baseline_packed_bytes(base_fp, f);
      if (base == 0) continue;  // entry not in baseline; nothing to compare
      std::printf("footprint check  %-20s %-11s: %zu packed B vs baseline %zu%s\n", f.label.c_str(),
                  f.spec.to_string().c_str(), f.packed_bytes, base,
                  f.packed_bytes > base ? "  GREW" : "");
      if (f.packed_bytes > base) footprint_grew = true;
    }
    if (footprint_grew)
      std::cerr << "FAIL: packed panel footprint grew vs " << baseline_path << "\n";
  }
  if (mismatch || footprint_grew) return 1;
  return regressed ? 3 : 0;
}
