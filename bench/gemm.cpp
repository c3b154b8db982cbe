// gemm — dense-kernel perf tracking. Times the naive i-k-j loop against the
// cache-blocked micro-kernel GEMM (what matmul_acc now runs) over a shape
// sweep, serial and threaded, checks blocked results are bit-identical to the
// naive oracle and threaded to serial, and writes BENCH_gemm.json including
// the blocking parameters so later PRs can diff GFLOP/s.
//
// Also tracks the float *forward* path: eager nn::Module::forward (fresh
// temporaries every call) against the compiled exec::FloatBackend
// (compile-once/run-many over the ExecPlan arena) on an MLP and a CNN,
// recording steady-state samples/s and arena bytes.
//
// Usage:
//   bench_gemm [out.json]
//   bench_gemm --check-regression <baseline.json> [out.json]
//     also compares blocked serial GFLOP/s (and compiled-forward serial
//     samples/s) against the committed baseline.
//
// Exit codes: 0 ok; 1 correctness mismatch (bit-identity broken — always a
// real failure); 2 usage / unreadable baseline / unwritable output; 3 only a
// perf regression (>20% below baseline — CI treats this one as non-blocking).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

using pdnn::tensor::GemmBlocking;
using pdnn::tensor::Rng;
using pdnn::tensor::Tensor;

struct GemmShape {
  std::size_t m, k, n;
};

struct Result {
  GemmShape shape;
  std::string kind;  // "naive" or "blocked"
  int threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  bool bit_identical = true;
};

/// The PR-1 i-k-j saxpy loop, kept as the in-bench oracle and comparator.
void matmul_naive(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      const float* brow = pb + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

using pdnn::benchutil::max_threads;
using pdnn::benchutil::scan_number;
using pdnn::benchutil::scan_string;
using pdnn::benchutil::set_threads;

/// Like benchutil::time_best, but re-zeroes the accumulation target between
/// reps (matmul_acc adds into C).
template <typename Fn>
double time_best(Fn&& fn, Tensor& c, int reps) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    c.fill(0.0f);
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// One forward-path measurement: eager module walk vs compiled plan.
struct ForwardResult {
  std::string net;   // "mlp" | "cnn"
  std::string kind;  // "forward_eager" | "forward_plan"
  int threads = 1;
  std::size_t batch = 0;
  double seconds = 0.0;        // per forward pass
  double samples_per_s = 0.0;
  std::size_t arena_bytes = 0;  // 0 for the eager path
  bool bit_identical = true;    // plan vs eager on identical inputs
};

struct BaselineEntry {
  GemmShape shape;
  std::string kind;
  int threads = 0;
  double gflops = 0.0;
};

struct ForwardBaselineEntry {
  std::string net;
  std::string kind;
  int threads = 0;
  double samples_per_s = 0.0;
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
    double m = 0, k = 0, n = 0, threads = 0, gflops = 0;
    if (scan_number(obj, "m", &m) && scan_number(obj, "k", &k) && scan_number(obj, "n", &n) &&
        scan_number(obj, "threads", &threads) && scan_number(obj, "gflops", &gflops)) {
      BaselineEntry e;
      e.shape = {static_cast<std::size_t>(m), static_cast<std::size_t>(k),
                 static_cast<std::size_t>(n)};
      e.kind = scan_string(obj, "kind");
      e.threads = static_cast<int>(threads);
      e.gflops = gflops;
      entries.push_back(e);
    }
    pos = end + 1;
  }
  return entries;
}

/// Serial reference GFLOP/s for a shape in the baseline: the best "blocked"
/// 1-thread entry, falling back to any 1-thread entry (pre-blocking files had
/// no "kind" field).
double baseline_serial_gflops(const std::vector<BaselineEntry>& entries, const GemmShape& s) {
  double best = 0.0;
  for (const auto& e : entries) {
    if (e.shape.m != s.m || e.shape.k != s.k || e.shape.n != s.n || e.threads != 1) continue;
    if (!e.kind.empty() && e.kind != "blocked") continue;
    best = std::max(best, e.gflops);
  }
  return best;
}

std::vector<ForwardBaselineEntry> parse_forward_baseline(const std::string& path) {
  std::ifstream in(path);
  std::vector<ForwardBaselineEntry> entries;
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
    double threads = 0, sps = 0;
    const std::string net = scan_string(obj, "net");
    if (!net.empty() && scan_number(obj, "threads", &threads) &&
        scan_number(obj, "samples_per_s", &sps)) {
      entries.push_back({net, scan_string(obj, "kind"), static_cast<int>(threads), sps});
    }
    pos = end + 1;
  }
  return entries;
}

double baseline_forward_sps(const std::vector<ForwardBaselineEntry>& entries,
                            const std::string& net) {
  double best = 0.0;
  for (const auto& e : entries) {
    if (e.net == net && e.kind == "forward_plan" && e.threads == 1) {
      best = std::max(best, e.samples_per_s);
    }
  }
  return best;
}

/// Steady-state forward throughput: eager module walk vs compiled plan (the
/// default fusion passes, bit-checked against eager) vs the plan with the
/// rounding-changing BN fold on top (epsilon-checked — fold rows are excluded
/// from the bit-identity gate by contract).
void bench_forward(const std::string& net_name, pdnn::nn::Sequential& net, const Tensor& x,
                   int hw_threads, std::vector<ForwardResult>& out) {
  namespace exec = pdnn::exec;
  const std::size_t batch = x.shape()[0];
  const int reps = 20;
  pdnn::exec::FloatBackend backend = exec::FloatBackend::compile(net);
  backend.run(x);  // settle arena + scratch before timing
  const Tensor want = net.forward(x, false);
  const bool match =
      want.shape() == backend.run(x).shape() &&
      std::memcmp(want.data(), backend.run(x).data(), want.numel() * sizeof(float)) == 0;

  exec::PlanOptions fold_opts = exec::PlanOptions::defaults();
  fold_opts.fold_bn = true;
  exec::FloatBackend folded = exec::FloatBackend::compile(net, nullptr, fold_opts);
  const Tensor& fold_out = folded.run(x);
  bool fold_ok = want.shape() == fold_out.shape();
  for (std::size_t i = 0; fold_ok && i < want.numel(); ++i) {
    const float d = fold_out[i] - want[i];
    const float tol = 1e-4f + 1e-3f * std::fabs(want[i]);
    if (!(d <= tol && d >= -tol)) fold_ok = false;
  }

  for (const int threads : {1, hw_threads}) {
    set_threads(threads);
    const double t_eager =
        pdnn::benchutil::time_best([&] { net.forward(x, false); }, reps);
    const double t_plan = pdnn::benchutil::time_best([&] { backend.run(x); }, reps);
    const double t_fold = pdnn::benchutil::time_best([&] { folded.run(x); }, reps);
    out.push_back({net_name, "forward_eager", threads, batch, t_eager,
                   static_cast<double>(batch) / t_eager, 0, match});
    out.push_back({net_name, "forward_plan", threads, batch, t_plan,
                   static_cast<double>(batch) / t_plan, backend.arena_bytes(), match});
    out.push_back({net_name, "forward_plan_fold", threads, batch, t_fold,
                   static_cast<double>(batch) / t_fold, folded.arena_bytes(), fold_ok});
    if (threads == 1) {
      std::printf("%-3s forward b%-3zu  eager %8.1f samples/s  plan %8.1f samples/s (x%.2f)  "
                  "fold %8.1f samples/s  arena %zu B  %s%s\n",
                  net_name.c_str(), batch, batch / t_eager, batch / t_plan, t_eager / t_plan,
                  batch / t_fold, backend.arena_bytes(), match ? "bit-identical" : "MISMATCH",
                  fold_ok ? "" : " FOLD-EPSILON-FAIL");
    }
    if (hw_threads == 1) break;
  }
  set_threads(hw_threads);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_gemm.json";
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

  // Read the baseline up front: out_path may legally be the same file (the
  // README's `--check-regression BENCH_gemm.json` refreshes the baseline in
  // place), and a missing baseline should fail before minutes of timing.
  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    baseline = parse_baseline(baseline_path);
    if (baseline.empty()) {
      std::cerr << "FAIL: no parsable results in baseline " << baseline_path << "\n";
      return 2;
    }
  }

  const std::vector<GemmShape> shapes = {
      {128, 128, 128}, {256, 256, 256}, {512, 512, 512}, {1024, 1024, 1024},
      {64, 576, 1024},  // conv-lowered GEMM shape (3x3, 64-channel, 32x32 image)
  };
  const int hw_threads = max_threads();
  Rng rng(7);

  std::vector<Result> results;
  for (const auto& s : shapes) {
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor c({s.m, s.n});
    const double flops = 2.0 * static_cast<double>(s.m) * s.k * s.n;
    // Small shapes are noisy on shared runners; more reps tighten the best-of.
    const int reps = s.m * s.k * s.n >= (1u << 27) ? 3 : 15;

    const double t_naive = time_best([&] { matmul_naive(a, b, c); }, c, reps);
    Tensor c_naive = c;
    results.push_back({s, "naive", 1, t_naive, flops / t_naive * 1e-9, true});

    set_threads(1);
    const double t_serial =
        time_best([&] { pdnn::tensor::matmul_acc(a, b, c); }, c, reps);
    Tensor c_serial = c;
    const bool oracle_match =
        std::memcmp(c_serial.data(), c_naive.data(), c.numel() * sizeof(float)) == 0;
    results.push_back({s, "blocked", 1, t_serial, flops / t_serial * 1e-9, oracle_match});

    set_threads(hw_threads);
    const double t_par = time_best([&] { pdnn::tensor::matmul_acc(a, b, c); }, c, reps);
    const bool thread_match =
        std::memcmp(c.data(), c_serial.data(), c.numel() * sizeof(float)) == 0;
    results.push_back({s, "blocked", hw_threads, t_par, flops / t_par * 1e-9, thread_match});

    std::printf(
        "%4zu x %4zu x %4zu  naive %7.2f GF/s  blocked %7.2f GF/s (x%.2f)  %2d-thread %7.2f GF/s "
        "(x%.2f)  %s\n",
        s.m, s.k, s.n, flops / t_naive * 1e-9, flops / t_serial * 1e-9, t_naive / t_serial,
        hw_threads, flops / t_par * 1e-9, t_serial / t_par,
        oracle_match && thread_match ? "bit-identical" : "MISMATCH");
  }

  // Calling thread's packing-scratch footprint at the sweep's peak (the
  // 1024-wide shapes hold bp at its KC*NC cap) — the observable for the
  // bounded thread_local pack buffers.
  const std::size_t pack_bytes = pdnn::tensor::gemm_pack_bytes();
  std::printf("pack scratch after sweep: %zu B\n", pack_bytes);

  // ---- compiled float forward: eager module walk vs ExecPlan backend ------
  std::vector<ForwardResult> fwd;
  {
    pdnn::tensor::Rng frng(23);
    auto mlp = pdnn::nn::mlp(256, 512, 10, 2, frng);
    const Tensor mx = Tensor::randn({64, 256}, frng);
    bench_forward("mlp", *mlp, mx, hw_threads, fwd);

    auto cnn = pdnn::nn::plain_cnn(8, 10, frng);
    const Tensor cx = Tensor::randn({8, 3, 16, 16}, frng);
    cnn->forward(cx, /*training=*/true);  // settle BN running stats
    bench_forward("cnn", *cnn, cx, hw_threads, fwd);
  }

  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "FAIL: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n  \"bench\": \"gemm\",\n  "
      << pdnn::benchutil::host_json(pdnn::tensor::gemm_kernel_vectorized())
      << ",\n  \"threads_available\": " << hw_threads
      << ",\n  \"kernel_vectorized\": "
      << (pdnn::tensor::gemm_kernel_vectorized() ? "true" : "false")
      << ",\n  \"blocking\": {\"MR\": " << GemmBlocking::MR << ", \"NR\": " << GemmBlocking::NR
      << ", \"MC\": " << GemmBlocking::MC << ", \"KC\": " << GemmBlocking::KC
      << ", \"NC\": " << GemmBlocking::NC << "},\n  \"pack_scratch_bytes\": " << pack_bytes
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"m\": " << r.shape.m << ", \"k\": " << r.shape.k << ", \"n\": " << r.shape.n
        << ", \"kind\": \"" << r.kind << "\", \"threads\": " << r.threads
        << ", \"seconds\": " << r.seconds << ", \"gflops\": " << r.gflops
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false") << "}"
        << (i + 1 < results.size() || !fwd.empty() ? "," : "") << "\n";
  }
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    const auto& r = fwd[i];
    out << "    {\"net\": \"" << r.net << "\", \"kind\": \"" << r.kind
        << "\", \"threads\": " << r.threads << ", \"batch\": " << r.batch
        << ", \"seconds\": " << r.seconds << ", \"samples_per_s\": " << r.samples_per_s
        << ", \"arena_bytes\": " << r.arena_bytes
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false") << "}"
        << (i + 1 < fwd.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  bool mismatch = false;
  for (const auto& r : results) {
    if (!r.bit_identical) {
      std::cerr << "FAIL: " << r.kind << " matmul (" << r.threads
                << " threads) diverged from its reference\n";
      mismatch = true;
    }
  }
  for (const auto& r : fwd) {
    if (!r.bit_identical) {
      std::cerr << "FAIL: compiled " << r.net
                << " forward diverged from eager nn::Module::forward\n";
      mismatch = true;
    }
  }

  bool regressed = false;
  if (!baseline_path.empty()) {
    for (const auto& s : shapes) {
      const Result* serial = nullptr;
      for (const auto& r : results) {
        if (r.kind == "blocked" && r.threads == 1 && r.shape.m == s.m && r.shape.k == s.k &&
            r.shape.n == s.n) {
          serial = &r;
          break;
        }
      }
      if (serial == nullptr) continue;
      const double base = baseline_serial_gflops(baseline, s);
      if (base <= 0.0) continue;  // shape not in baseline; nothing to compare
      const double ratio = serial->gflops / base;
      std::printf("regression check %4zu x %4zu x %4zu: %7.2f GF/s vs baseline %7.2f (x%.2f)%s\n",
                  s.m, s.k, s.n, serial->gflops, base, ratio,
                  ratio < 0.8 ? "  REGRESSION" : "");
      if (ratio < 0.8) regressed = true;
    }
    const std::vector<ForwardBaselineEntry> fwd_baseline = parse_forward_baseline(baseline_path);
    for (const auto& r : fwd) {
      if (r.kind != "forward_plan" || r.threads != 1) continue;
      const double base = baseline_forward_sps(fwd_baseline, r.net);
      if (base <= 0.0) continue;  // net not in baseline; nothing to compare
      const double ratio = r.samples_per_s / base;
      std::printf("regression check %-3s forward plan: %8.1f samples/s vs baseline %8.1f (x%.2f)%s\n",
                  r.net.c_str(), r.samples_per_s, base, ratio, ratio < 0.8 ? "  REGRESSION" : "");
      if (ratio < 0.8) regressed = true;
    }
    if (regressed)
      std::cerr << "FAIL: serial GFLOP/s (or compiled-forward samples/s) dropped >20% vs "
                << baseline_path << "\n";
  }
  if (mismatch) return 1;
  return regressed ? 3 : 0;
}
