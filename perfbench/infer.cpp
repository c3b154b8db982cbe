// infer section — offline posit(16,1) inference: quant::PositSession::run on
// batches of 8 synth-Cifar test images through ResNet-8 (base 8, 16x16), once
// with AccumMode::kQuire and once with kFma.
//
// End-to-end: quire_samples_per_s and fma_samples_per_s (8 / median batch
// time of each window, then kWindowQuantile over the windows; the modes
// alternate batch by batch). Gates, both modes: the whole
// session's output is bit-equal to chaining one-module sessions over the
// network's top-level children, and to batch-of-one runs of each image.
//
// Traced run: the chained one-module sessions give per-child time and
// MMAC/s (MACs from each child plan's step geometry), plus the session's
// compile time, panel, scratch and arena bytes.
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "quant/posit_session.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using pdnn::quant::AccumMode;
using pdnn::quant::PositSession;
using pdnn::tensor::Tensor;

constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kNetSeed = 0x1417;

struct Mode {
  const char* name;
  AccumMode mode;
};
constexpr Mode kModes[] = {{"quire", AccumMode::kQuire}, {"fma", AccumMode::kFma}};

pdnn::quant::SessionConfig session_config(AccumMode mode) {
  pdnn::quant::SessionConfig c;
  c.spec = {16, 1};
  c.mode = mode;
  return c;
}

/// One-module sessions over the top-level children, run back to back.
struct Chain {
  std::vector<pdnn::nn::Module*> children;
  std::vector<PositSession> sessions;

  Chain(pdnn::nn::Module& net, AccumMode mode) : children(net.children()) {
    for (auto* c : children) sessions.push_back(PositSession::compile(*c, session_config(mode)));
  }
  /// Runs the chain; `marks` (if non-null) receives the clock before each
  /// child and after the last one.
  const Tensor& run(const Tensor& x, std::vector<Clock::time_point>* marks) {
    const Tensor* cur = &x;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (marks != nullptr) (*marks)[i] = Clock::now();
      cur = &sessions[i].run(*cur);
    }
    if (marks != nullptr) marks->back() = Clock::now();
    return *cur;
  }
};

}  // namespace

void run_infer(const Args& a, Result& r) {
  pdnn::data::SynthCifarConfig dc;
  dc.classes = 10;
  dc.train_per_class = 1;
  dc.test_per_class = 50;
  dc.height = dc.width = 16;
  dc.noise = 0.75f;
  dc.seed = a.seed * 0x9E3779B97F4A7C15ULL + 0x1FE4ULL;
  pdnn::nn::ResNetConfig nc;
  nc.blocks_per_stage = 1;
  nc.base_channels = 8;
  nc.classes = 10;
  nc.bn_momentum = 0.3f;

  // --- set-up: data, net, compile both sessions, one warm-up batch each ------
  std::vector<double> setup, compile_ms;
  pdnn::data::TrainTest data;
  std::unique_ptr<pdnn::nn::Sequential> net;
  std::vector<PositSession> whole;
  Tensor x;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    whole.clear();
    const auto t0 = Clock::now();
    data = pdnn::data::make_synth_cifar(dc);
    // One fixed model; the seed picks the images. The cost of a kFma MAC
    // depends on its operands (a zero product skips the rounding, large
    // magnitudes take the 128-bit rounding path), and the weights set those
    // shares for every batch alike, so per-seed weights made fma samples/s
    // a property of the seed rather than of the code.
    pdnn::tensor::Rng rng(kNetSeed);
    net = pdnn::nn::cifar_resnet(nc, rng);
    const auto c0 = Clock::now();
    for (const Mode& m : kModes) whole.push_back(PositSession::compile(*net, session_config(m.mode)));
    compile_ms.push_back(seconds_between(c0, Clock::now()) * 1e3);
    pdnn::tensor::extract_span(data.test.images, 0, kBatch, x);
    for (auto& s : whole) s.run(x);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  r.set_setup_s(median(setup));
  const std::size_t batches = data.test.size() / kBatch;
  const auto batch = [&](std::size_t b, Tensor& out) {
    pdnn::tensor::extract_span(data.test.images, (b % batches) * kBatch, kBatch, out);
  };

  // --- gates: whole session == chained one-module sessions == batch of one --
  std::vector<Chain> chains;
  for (const Mode& m : kModes) chains.emplace_back(*net, m.mode);
  {
    Tensor one;
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string mode = kModes[k].name;
      batch(0, x);
      const Tensor want = whole[k].run(x);
      r.attempt(bits_equal(chains[k].run(x, nullptr), want),
                ("infer gate: chained sessions differ from the whole session, " + mode).c_str());
      bool solo_ok = true;
      for (std::size_t i = 0; i < kBatch; ++i) {
        pdnn::tensor::extract_span(x, i, 1, one);
        const Tensor& y = whole[k].run(one);
        const std::size_t row = y.numel();
        solo_ok = solo_ok && bits_equal(y.data(), want.data() + i * row, row);
      }
      r.attempt(solo_ok, ("infer gate: batch-of-one differs from batched, " + mode).c_str());
    }
  }

  // MACs per child, from each child plan's geometry at its input shape.
  const std::size_t nchild = chains[0].children.size();
  std::vector<double> macs(nchild, 0.0);
  {
    batch(0, x);
    const Tensor* cur = &x;
    for (std::size_t i = 0; i < nchild; ++i) {
      macs[i] = plan_macs(chains[0].sessions[i].plan(), cur->shape()).forward;
      cur = &chains[0].sessions[i].run(*cur);
    }
  }

  // --- measured: the modes alternate batch by batch. The traced run also
  // times the chained one-module sessions on the same batch, right after the
  // whole session, so both see the same speed of the host.
  SpanLog spans(Clock::now());
  std::vector<double> times[2];
  std::vector<std::vector<double>> child_ms[2];
  for (auto& c : child_ms) c.assign(nchild, {});
  std::vector<Clock::time_point> marks(nchild + 1);
  // Each window's rate is 8 / its median batch time.
  std::vector<double> rates[2];
  const double window_s = a.seconds / static_cast<double>(a.windows);
  for (std::size_t w = 0; w < a.windows; ++w) {
    if (!await_window(a)) throw std::runtime_error("infer: stdin closed before window start");
    const std::size_t first = times[1].size();
    const auto start = Clock::now();
    // Every window runs the same batches in the same order, so windows
    // differ only in the speed of the host.
    for (std::size_t b = 1;
         times[1].size() - first < 3 || seconds_between(start, Clock::now()) < window_s; ++b) {
      batch(b, x);
      for (std::size_t k = 0; k < 2; ++k) {
        const auto t0 = Clock::now();
        whole[k].run(x);
        times[k].push_back(seconds_between(t0, Clock::now()));
        r.attempt_many(1);
        if (!a.trace) continue;
        chains[k].run(x, &marks);
        const auto id = static_cast<long long>(b);
        const long root = spans.add(std::string("posit.batch.") + kModes[k].name, marks[0],
                                    marks[nchild], -1, id);
        for (std::size_t i = 0; i < nchild; ++i) {
          child_ms[k][i].push_back(seconds_between(marks[i], marks[i + 1]) * 1e3);
          spans.add("posit.module." + chains[k].children[i]->name(), marks[i], marks[i + 1], root,
                    id);
        }
      }
    }
    for (std::size_t k = 0; k < 2; ++k) {
      const std::vector<double> window(times[k].begin() + static_cast<long>(first), times[k].end());
      rates[k].push_back(kBatch / median(window));
    }
  }
  const double quire_sps = quantile(rates[0], kWindowQuantile);
  const double fma_sps = quantile(rates[1], kWindowQuantile);
  r.meta_num("infer_batches", static_cast<double>(times[0].size()));
  r.meta("infer_window_rates.quire", json_list(rates[0]));
  r.meta("infer_window_rates.fma", json_list(rates[1]));
  std::cerr << "infer: " << times[0].size() << " batches/mode in " << a.windows
            << " window(s), quire " << quire_sps << " samples/s, fma " << fma_sps << " samples/s\n";
  if (!a.trace) {
    r.metric("quire_samples_per_s", quire_sps, "1/s");
    r.metric("fma_samples_per_s", fma_sps, "1/s");
    return;
  }

  // --- traced: per-child split from the chained sessions ---------------------
  for (std::size_t k = 0; k < 2; ++k) {
    const std::string mode = kModes[k].name;
    double sum_ms = 0.0;
    for (std::size_t i = 0; i < nchild; ++i) {
      const std::string child = chains[k].children[i]->name();
      const double t = median(child_ms[k][i]);
      sum_ms += t;
      r.metric("posit.module_ms." + mode + "." + child, t, "ms");
      if (macs[i] > 0.0) {
        r.metric("posit.mmac_s." + mode + "." + child, macs[i] / (t * 1e-3) / 1e6, "MMAC/s");
      }
    }
    const double whole_ms = median(times[k]) * 1e3;
    r.metric("posit.split_overhead_pct." + mode, (sum_ms - whole_ms) / whole_ms * 100.0, "%");
  }
  r.metric("quant.compile_ms", median(compile_ms), "ms");
  r.metric("quant.panel_bytes", static_cast<double>(whole[0].panel_bytes()), "bytes");
  r.metric("quant.scratch_bytes", static_cast<double>(whole[0].panel_scratch_bytes()), "bytes");
  r.metric("quant.arena_bytes", static_cast<double>(whole[0].arena_bytes()), "bytes");
  if (!a.trace_path.empty() && !spans.write(a.trace_path)) {
    std::cerr << "infer: cannot write " << a.trace_path << "\n";
  }
}

}  // namespace perfbench
