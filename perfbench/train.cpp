// train section — train::Trainer::fit in FP32 on the synth-Cifar Table III
// task (ResNet-8 base 8, 16x16, 900 train / 500 test, batch 50, SGD
// 0.1/0.9 with drops at 3/5 and 4/5 of the epochs), micro-batch 25.
//
// End-to-end: final_test_acc of one whole fit (deterministic per seed) and
// samples_per_s (training samples / fit wall time) of one-epoch fits timed
// in windows (see kWindowQuantile). Gates: 1 and 2 workers train
// bit-identical parameters over the opening steps, and repeated short fits
// of one seed end on the same parameter digest.
//
// Traced run: Trainer::step p50/p90, Trainer::evaluate, a compile_training
// backend's train_forward / run_backward at one 25-sample micro-batch,
// SgdMomentum::step, the step overhead left after the shard critical path,
// achieved GFLOP/s and the trainer's arena bytes.
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common.hpp"
#include "data/synthetic.hpp"
#include "exec/float_backend.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace perfbench {

namespace {

using pdnn::tensor::Tensor;

constexpr std::size_t kEpochs = 14;
constexpr std::size_t kBatch = 50;
constexpr std::size_t kMicro = 25;
constexpr std::size_t kGateSteps = 3;
/// Epochs of each short fit timed in a measurement window.
constexpr std::size_t kWindowEpochs = 1;

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Task {
  pdnn::data::SynthCifarConfig data;
  pdnn::nn::ResNetConfig net;
  pdnn::train::TrainerConfig train;
  std::uint64_t init_seed = 0;
};

Task make_task(std::uint64_t seed, std::size_t workers) {
  Task t;
  t.data.classes = 10;
  t.data.train_per_class = 90;
  t.data.test_per_class = 50;
  t.data.height = t.data.width = 16;
  t.data.noise = 0.75f;
  t.data.seed = mix(seed ^ 0xDA7AULL);
  t.net.blocks_per_stage = 1;
  t.net.base_channels = 8;
  t.net.classes = 10;
  t.net.bn_momentum = 0.3f;
  t.train.epochs = kEpochs;
  t.train.batch_size = kBatch;
  t.train.micro_batch = kMicro;
  t.train.workers = workers;
  t.train.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 1e-4f};
  t.train.schedule = {.base_lr = 0.1f, .drop_epochs = {kEpochs * 3 / 5, kEpochs * 4 / 5},
                      .factor = 10.0f};
  t.train.shuffle_seed = mix(seed ^ 0x5A0FULL);
  t.init_seed = mix(seed ^ 0x1417ULL);
  return t;
}

std::unique_ptr<pdnn::nn::Sequential> make_net(const Task& t) {
  pdnn::tensor::Rng rng(t.init_seed);
  return pdnn::nn::cifar_resnet(t.net, rng);
}

std::uint64_t param_digest(pdnn::nn::Module& net) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const pdnn::nn::Param* p : net.params()) {
    h = fnv1a(p->value.data(), p->value.numel() * sizeof(float), h);
  }
  return h;
}

bool params_equal(pdnn::nn::Module& a, pdnn::nn::Module& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!bits_equal(pa[i]->value, pb[i]->value)) return false;
  }
  return true;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// Batch `b` of the training set in storage order.
void batch_at(const pdnn::data::Dataset& d, std::size_t b, Tensor& x, std::vector<int>& y) {
  const std::size_t lo = (b * kBatch) % d.size();
  const std::size_t n = std::min(kBatch, d.size() - lo);
  pdnn::tensor::extract_span(d.images, lo, n, x);
  y.assign(d.labels.begin() + static_cast<long>(lo), d.labels.begin() + static_cast<long>(lo + n));
}

}  // namespace

void run_train(const Args& a, Result& r) {
  const Task task = make_task(a.seed, a.workers);

  // --- set-up: data, net, trainer compile, warm-up eval ----------------------
  std::vector<double> setup;
  pdnn::data::TrainTest data;
  std::unique_ptr<pdnn::nn::Sequential> net;
  std::unique_ptr<pdnn::train::Trainer> trainer;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    trainer.reset();
    const auto t0 = Clock::now();
    data = pdnn::data::make_synth_cifar(task.data);
    net = make_net(task);
    trainer = std::make_unique<pdnn::train::Trainer>(*net, task.train);
    trainer->evaluate(data.test.images, data.test.labels);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  r.set_setup_s(median(setup));

  // --- gate: 1 vs 2 workers at micro-batch 25, bit-identical parameters ------
  {
    const Task t1 = make_task(a.seed, 1);
    const Task t2 = make_task(a.seed, 2);
    auto n1 = make_net(t1);
    auto n2 = make_net(t2);
    pdnn::train::Trainer tr1(*n1, t1.train);
    pdnn::train::Trainer tr2(*n2, t2.train);
    Tensor bx;
    std::vector<int> by;
    for (std::size_t s = 0; s < kGateSteps; ++s) {
      batch_at(data.train, s, bx, by);
      tr1.step(bx, by);
      tr2.step(bx, by);
    }
    r.attempt(params_equal(*n1, *n2), "train gate: 1-worker and 2-worker parameters differ");
    r.meta_str("train_gate_digest", hex(param_digest(*n1)));
  }

  // --- measured: one whole fit for the accuracy and the digest --------------
  const std::size_t steps_per_epoch = (data.train.size() + kBatch - 1) / kBatch;
  const auto fit_once = [&](pdnn::train::Trainer& t, std::size_t epochs) {
    const auto t0 = Clock::now();
    const auto hist =
        t.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
    const double wall = seconds_between(t0, Clock::now());
    r.attempt_many(epochs * steps_per_epoch);
    std::size_t bad = 0;
    for (const auto& e : hist) bad += std::isfinite(e.train_loss) ? 0 : 1;
    r.fail_many(bad, "train: non-finite epoch loss");
    return std::make_pair(hist.back().test_acc, wall);
  };
  const auto [final_acc, full_wall] = fit_once(*trainer, kEpochs);
  const std::uint64_t digest = param_digest(*net);
  const double full_sps = static_cast<double>(kEpochs * data.train.size()) / full_wall;
  r.metric("final_test_acc", final_acc, "share");
  r.meta_str("train_param_digest", hex(digest));
  r.meta_num("train_full_fit_samples_per_s", full_sps);
  std::cerr << "train: full fit " << full_sps << " samples/s, final test acc " << final_acc
            << ", digest " << hex(digest) << "\n";

  // --- measured: windows of short fits, each from a fresh net and trainer.
  // A window's rate is its fits' samples over their wall time; every short
  // fit of one seed must end on the same digest.
  if (!a.trace) {
    Task short_task = task;
    short_task.train.epochs = kWindowEpochs;
    const double samples = static_cast<double>(kWindowEpochs * data.train.size());
    std::vector<double> rates;
    std::uint64_t short_digest = 0;
    std::size_t fits = 0;
    for (std::size_t w = 0; w < a.windows; ++w) {
      if (!await_window(a)) throw std::runtime_error("train: stdin closed before window start");
      double wall = 0.0, done = 0.0;
      for (const auto start = Clock::now();
           done == 0.0 || seconds_between(start, Clock::now()) < a.seconds / a.windows;) {
        auto short_net = make_net(short_task);
        pdnn::train::Trainer t(*short_net, short_task.train);
        wall += fit_once(t, kWindowEpochs).second;
        done += samples;
        const std::uint64_t d = param_digest(*short_net);
        if (fits++ == 0) short_digest = d;
        r.attempt(d == short_digest, "train: repeated fit of one seed diverged");
      }
      rates.push_back(done / wall);
    }
    const double sps = quantile(rates, kWindowQuantile);
    r.metric("samples_per_s", sps, "1/s");
    r.meta_num("train_short_fits", static_cast<double>(fits));
    r.meta("train_window_rates", json_list(rates));
    std::cerr << "train: " << fits << " short fit(s) in " << a.windows << " window(s), " << sps
              << " samples/s\n";
  }

  if (!a.trace) return;

  // --- traced: per-layer split around the public calls -----------------------
  SpanLog spans(Clock::now());
  const std::size_t reps = 24;
  Tensor bx;
  std::vector<int> by;
  std::vector<double> step_ms;
  for (std::size_t s = 0; s < 2 * reps; ++s) {
    batch_at(data.train, s, bx, by);
    const auto t0 = Clock::now();
    trainer->step(bx, by);
    const auto t1 = Clock::now();
    spans.add("train.step", t0, t1, -1, static_cast<long long>(s));
    step_ms.push_back(seconds_between(t0, t1) * 1e3);
  }
  std::vector<double> eval_ms;
  for (std::size_t s = 0; s < 5; ++s) {
    const auto t0 = Clock::now();
    trainer->evaluate(data.test.images, data.test.labels);
    const auto t1 = Clock::now();
    spans.add("train.eval", t0, t1, -1, static_cast<long long>(s));
    eval_ms.push_back(seconds_between(t0, t1) * 1e3);
  }

  auto backend = pdnn::exec::FloatBackend::compile_training(*net);
  Tensor x25, dlogits;
  pdnn::tensor::extract_span(data.train.images, 0, kMicro, x25);
  const std::vector<int> y25(data.train.labels.begin(),
                             data.train.labels.begin() + static_cast<long>(kMicro));
  std::vector<double> fwd_ms, bwd_ms;
  for (std::size_t s = 0; s < reps + 1; ++s) {
    backend.zero_grad();
    const auto t0 = Clock::now();
    const Tensor& logits = backend.train_forward(x25);
    const auto t1 = Clock::now();
    pdnn::tensor::cross_entropy(logits, y25, &dlogits);
    dlogits *= 0.5f;  // the trainer's n_s / N scale for 2 shards of 25
    const auto t2 = Clock::now();
    backend.run_backward(dlogits);
    const auto t3 = Clock::now();
    if (s == 0) continue;  // first run sizes the backward scratch
    const long parent = spans.add("exec.train_micro_batch", t0, t3, -1, static_cast<long long>(s));
    spans.add("exec.train_forward", t0, t1, parent, static_cast<long long>(s));
    spans.add("exec.run_backward", t2, t3, parent, static_cast<long long>(s));
    fwd_ms.push_back(seconds_between(t0, t1) * 1e3);
    bwd_ms.push_back(seconds_between(t2, t3) * 1e3);
  }

  pdnn::nn::SgdMomentum opt(net->params(), task.train.sgd);
  opt.set_lr(0.001f);
  std::vector<double> sgd_ms;
  for (std::size_t s = 0; s < reps; ++s) {
    const auto t0 = Clock::now();
    opt.step();
    const auto t1 = Clock::now();
    spans.add("train.sgd", t0, t1, -1, static_cast<long long>(s));
    sgd_ms.push_back(seconds_between(t0, t1) * 1e3);
  }

  const double fwd = median(fwd_ms), bwd = median(bwd_ms), sgd = median(sgd_ms);
  const double step_p50 = quantile(step_ms, 0.5);
  const std::size_t shards = kBatch / kMicro;
  const double waves = static_cast<double>((shards + a.workers - 1) / a.workers);
  const PlanMacs macs = plan_macs(backend.plan(), x25.shape());
  r.metric("train.step_ms.p50", step_p50, "ms");
  r.metric("train.step_ms.p90", quantile(step_ms, 0.9), "ms");
  r.metric("train.eval_ms", median(eval_ms), "ms");
  r.metric("exec.train_forward_ms", fwd, "ms");
  r.metric("exec.run_backward_ms", bwd, "ms");
  r.metric("train.sgd_ms", sgd, "ms");
  r.metric("train.overhead_ms", step_p50 - waves * (fwd + bwd) - sgd, "ms");
  r.metric("exec.train_gflops", 2.0 * (macs.forward + macs.backward) / ((fwd + bwd) * 1e-3) / 1e9,
           "GFLOP/s");
  r.metric("train.arena_bytes", static_cast<double>(trainer->arena_bytes()), "bytes");
  if (!a.trace_path.empty() && !spans.write(a.trace_path)) {
    std::cerr << "train: cannot write " << a.trace_path << "\n";
  }
}

}  // namespace perfbench
