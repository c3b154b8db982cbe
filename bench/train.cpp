// train — training-path perf tracking. Times one optimizer step (forward +
// backward + SGD update) through the eager Module::backward path and through
// train::Trainer's compiled ExecPlan path, on the bench MLP and a ResNet-8
// CNN, recording steps/s, samples/s, and the training arena footprint per
// row, then writes BENCH_train.json.
//
// Before any timing, each net's determinism contract is bit-checked:
// a single-shard Trainer step must leave parameters bit-identical to the
// manual eager loop, and 1/2/4-worker Trainers at a fixed micro-batch must
// train bit-identical parameters. A violation is always a real failure.
//
// Usage:
//   bench_train [out.json]
//   bench_train --check-regression <baseline.json> [out.json]
//     also compares plan-path steps/s against the committed baseline.
//
// Exit codes: 0 ok; 1 correctness mismatch (plan diverged from eager, or
// worker counts disagree — always a real failure); 2 usage / unreadable
// baseline / unwritable output; 3 only a perf regression (>20% below
// baseline — CI treats this one as non-blocking).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace {

using pdnn::tensor::Rng;
using pdnn::tensor::Tensor;
using pdnn::benchutil::scan_number;
using pdnn::benchutil::scan_string;
using pdnn::benchutil::time_best;

struct Workload {
  std::string name;                                          // "mlp" | "resnet8"
  std::function<std::unique_ptr<pdnn::nn::Sequential>()> make;  // same seed each call
  Tensor bx;
  std::vector<int> by;
  int reps = 10;  // best-of repetitions per timed row
};

struct Row {
  std::string net;
  std::string path;  // "eager" | "plan"
  std::size_t workers = 1;
  std::size_t micro_batch = 0;
  std::size_t batch = 0;
  double steps_per_s = 0.0;
  double samples_per_s = 0.0;
  std::size_t arena_bytes = 0;
  bool bit_identical = true;
};

bool params_bit_identical(pdnn::nn::Module& a, pdnn::nn::Module& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto& va = pa[i]->value;
    const auto& vb = pb[i]->value;
    if (va.shape() != vb.shape() ||
        std::memcmp(va.data(), vb.data(), va.numel() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// One eager optimizer step: the reference numerics the plan path must hit.
float eager_step(pdnn::nn::Sequential& net, pdnn::nn::SgdMomentum& opt, const Tensor& bx,
                 const std::vector<int>& by) {
  opt.zero_grad();
  const Tensor logits = net.forward(bx, /*training=*/true);
  Tensor dlogits;
  const float loss = pdnn::tensor::cross_entropy(logits, by, &dlogits);
  net.backward(dlogits);
  opt.step();
  return loss;
}

/// Determinism contract for one workload: single-shard plan step bit-matches
/// the eager loop, and worker count never changes the trained bits.
bool check_bit_identity(const Workload& w, const pdnn::nn::SgdConfig& sgd) {
  auto eager_net = w.make();
  auto plan_net = w.make();
  pdnn::nn::SgdMomentum opt(eager_net->params(), sgd);

  pdnn::train::TrainerConfig cfg;
  cfg.batch_size = w.bx.shape()[0];
  cfg.workers = 1;
  cfg.sgd = sgd;
  pdnn::train::Trainer trainer(*plan_net, cfg);
  for (int s = 0; s < 2; ++s) {
    eager_step(*eager_net, opt, w.bx, w.by);
    trainer.step(w.bx, w.by);
    if (!params_bit_identical(*eager_net, *plan_net)) {
      std::cerr << "FAIL: " << w.name << " single-shard plan step " << s
                << " diverged from the eager loop\n";
      return false;
    }
  }

  auto n1 = w.make();
  auto n2 = w.make();
  auto n4 = w.make();
  const auto train_with = [&](pdnn::nn::Sequential& net, std::size_t workers) {
    pdnn::train::TrainerConfig mcfg;
    mcfg.batch_size = w.bx.shape()[0];
    mcfg.micro_batch = std::max<std::size_t>(1, w.bx.shape()[0] / 4);
    mcfg.workers = workers;
    mcfg.sgd = sgd;
    pdnn::train::Trainer t(net, mcfg);
    for (int s = 0; s < 2; ++s) t.step(w.bx, w.by);
  };
  train_with(*n1, 1);
  train_with(*n2, 2);
  train_with(*n4, 4);
  if (!params_bit_identical(*n1, *n2) || !params_bit_identical(*n1, *n4)) {
    std::cerr << "FAIL: " << w.name << " trained bits differ across 1/2/4 workers\n";
    return false;
  }
  return true;
}

Row time_eager(const Workload& w, const pdnn::nn::SgdConfig& sgd) {
  auto net = w.make();
  pdnn::nn::SgdMomentum opt(net->params(), sgd);
  eager_step(*net, opt, w.bx, w.by);  // warm caches and scratch
  const double best = time_best([&] { eager_step(*net, opt, w.bx, w.by); }, w.reps);
  Row r;
  r.net = w.name;
  r.path = "eager";
  r.batch = w.bx.shape()[0];
  r.steps_per_s = 1.0 / best;
  r.samples_per_s = static_cast<double>(r.batch) / best;
  return r;
}

Row time_plan(const Workload& w, const pdnn::nn::SgdConfig& sgd, std::size_t workers,
              std::size_t micro_batch) {
  auto net = w.make();
  pdnn::train::TrainerConfig cfg;
  cfg.batch_size = w.bx.shape()[0];
  cfg.micro_batch = micro_batch;
  cfg.workers = workers;
  cfg.sgd = sgd;
  pdnn::train::Trainer trainer(*net, cfg);
  trainer.step(w.bx, w.by);  // warm: bind panels, settle pack scratch
  const double best = time_best([&] { trainer.step(w.bx, w.by); }, w.reps);
  Row r;
  r.net = w.name;
  r.path = "plan";
  r.workers = workers;
  r.micro_batch = micro_batch == 0 ? static_cast<std::size_t>(w.bx.shape()[0]) : micro_batch;
  r.batch = w.bx.shape()[0];
  r.steps_per_s = 1.0 / best;
  r.samples_per_s = static_cast<double>(r.batch) / best;
  r.arena_bytes = trainer.arena_bytes();
  return r;
}

struct BaselineEntry {
  std::string net, path;
  std::size_t workers = 0;
  double steps_per_s = 0.0;
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
    double workers = 0, steps = 0;
    const std::string net = scan_string(obj, "net");
    if (!net.empty() && scan_number(obj, "workers", &workers) &&
        scan_number(obj, "steps_per_s", &steps)) {
      entries.push_back(
          {net, scan_string(obj, "path"), static_cast<std::size_t>(workers), steps});
    }
    pos = end + 1;
  }
  return entries;
}

double baseline_steps(const std::vector<BaselineEntry>& entries, const Row& r) {
  for (const auto& e : entries) {
    if (e.net == r.net && e.path == r.path && e.workers == r.workers) return e.steps_per_s;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
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
  if (out_path.empty()) out_path = "BENCH_train.json";
  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    baseline = parse_baseline(baseline_path);
    if (baseline.empty()) {
      std::cerr << "FAIL: no parsable results in baseline " << baseline_path << "\n";
      return 2;
    }
  }

  // Two workloads: the serving-bench MLP scaled up to training shape, and a
  // ResNet-8 matching the synth-Cifar task (16x16, base 8). Batches are one
  // optimizer step each; reps are best-of to shrug off scheduler noise.
  Rng rng(1234);
  std::vector<Workload> workloads;
  {
    Workload w;
    w.name = "mlp64x128x10";
    w.make = [] {
      Rng r(41);
      return pdnn::nn::mlp(64, 128, 10, 2, r);
    };
    w.bx = Tensor::randn({64, 64}, rng);
    for (std::size_t i = 0; i < 64; ++i) w.by.push_back(static_cast<int>(i % 10));
    w.reps = 30;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "resnet8c8";
    w.make = [] {
      Rng r(42);
      pdnn::nn::ResNetConfig rc;
      rc.blocks_per_stage = 1;
      rc.base_channels = 8;
      rc.classes = 10;
      return pdnn::nn::cifar_resnet(rc, r);
    };
    w.bx = Tensor::randn({16, 3, 16, 16}, rng);
    for (std::size_t i = 0; i < 16; ++i) w.by.push_back(static_cast<int>(i % 10));
    w.reps = 10;
    workloads.push_back(std::move(w));
  }

  pdnn::nn::SgdConfig sgd;
  sgd.lr = 0.05f;
  sgd.weight_decay = 1e-4f;

  bool mismatch = false;
  std::vector<Row> rows;
  for (const Workload& w : workloads) {
    const bool ok = check_bit_identity(w, sgd);
    if (!ok) mismatch = true;

    Row eager = time_eager(w, sgd);
    eager.bit_identical = ok;
    rows.push_back(eager);
    // Plan path: the apples-to-apples single-shard row first, then the
    // worker sweep at a fixed micro-batch (structural scaling on a 1-core
    // container: shards overlap only via OS scheduling, but the bits match).
    Row single = time_plan(w, sgd, /*workers=*/1, /*micro_batch=*/0);
    single.bit_identical = ok;
    rows.push_back(single);
    const std::size_t micro = std::max<std::size_t>(1, w.bx.shape()[0] / 4);
    for (const std::size_t workers : {2u, 4u}) {
      Row r = time_plan(w, sgd, workers, micro);
      r.bit_identical = ok;
      rows.push_back(r);
    }
  }

  for (const Row& r : rows) {
    std::printf("%-12s %-5s w%zu micro %2zu batch %2zu  %8.1f steps/s  %9.0f samples/s"
                "  arena %8zu B  %s\n",
                r.net.c_str(), r.path.c_str(), r.workers, r.micro_batch, r.batch, r.steps_per_s,
                r.samples_per_s, r.arena_bytes, r.bit_identical ? "bit-identical" : "MISMATCH");
  }

  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "FAIL: cannot open " << out_path << " for writing\n";
    return 2;
  }
  out << "{\n  \"bench\": \"train\",\n  "
      << pdnn::benchutil::host_json(pdnn::tensor::gemm_kernel_vectorized())
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"net\": \"" << r.net << "\", \"path\": \"" << r.path
        << "\", \"workers\": " << r.workers << ", \"micro_batch\": " << r.micro_batch
        << ", \"batch\": " << r.batch << ", \"steps_per_s\": " << r.steps_per_s
        << ", \"samples_per_s\": " << r.samples_per_s << ", \"arena_bytes\": " << r.arena_bytes
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  bool regressed = false;
  if (!baseline_path.empty()) {
    for (const Row& r : rows) {
      if (r.path != "plan") continue;
      const double base = baseline_steps(baseline, r);
      if (base <= 0.0) continue;  // row not in baseline; nothing to compare
      const double ratio = r.steps_per_s / base;
      std::printf("regression check %-12s w%zu: %8.1f steps/s vs baseline %8.1f (x%.2f)%s\n",
                  r.net.c_str(), r.workers, r.steps_per_s, base, ratio,
                  ratio < 0.8 ? "  REGRESSION" : "");
      if (ratio < 0.8) regressed = true;
    }
    if (regressed)
      std::cerr << "FAIL: plan-path steps/s dropped >20% vs " << baseline_path << "\n";
  }
  if (mismatch) return 1;
  return regressed ? 3 : 0;
}
