#include "train/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace pdnn::train {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Rows of batch or dataset (x, y), which must be non-empty with one label
/// per row.
std::size_t checked_rows(const Tensor& x, const std::vector<int>& y, const char* who) {
  const std::size_t n = x.shape().rank() != 0 ? x.shape()[0] : 0;
  if (n == 0 || y.size() != n) {
    throw std::invalid_argument(std::string("train::Trainer::") + who + ": " +
                                std::to_string(y.size()) + " labels for " + std::to_string(n) +
                                " rows (need a non-empty set, one label per row)");
  }
  return n;
}

}  // namespace

Trainer::Trainer(nn::Module& net, TrainerConfig cfg)
    : net_(net),
      cfg_(std::move(cfg)),
      params_(net.params()),
      opt_(params_, cfg_.sgd, cfg_.policy) {
  if (cfg_.batch_size == 0) throw std::invalid_argument("train::Trainer: batch_size must be > 0");
  if (cfg_.micro_batch == 0) cfg_.micro_batch = cfg_.batch_size;
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.policy != nullptr && cfg_.workers > 1) {
    throw std::invalid_argument(
        "train::Trainer: a precision policy needs workers == 1 (its hook order must not depend "
        "on thread scheduling)");
  }
  backends_.reserve(cfg_.workers);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    backends_.push_back(exec::FloatBackend::compile_training(net_, cfg_.policy));
  }
  worker_x_.resize(cfg_.workers);
  worker_y_.resize(cfg_.workers);
  worker_dlogits_.resize(cfg_.workers);

  const std::size_t max_shards = (cfg_.batch_size + cfg_.micro_batch - 1) / cfg_.micro_batch;
  shard_grads_.resize(max_shards);
  for (auto& g : shard_grads_) {
    g.reserve(params_.size());
    for (const nn::Param* p : params_) g.emplace_back(p->value.shape());
  }
  shard_bn_.resize(max_shards);
  const std::size_t n_bn = backends_[0].bn_batch_stats().size();
  for (auto& s : shard_bn_) s.resize(n_bn);
  shard_loss_.resize(max_shards);
  shard_correct_.resize(max_shards);
  shard_count_.resize(max_shards);
}

std::size_t Trainer::arena_bytes() const {
  std::size_t total = 0;
  for (const auto& b : backends_) total += b.arena_bytes();
  return total;
}

void Trainer::run_worker(std::size_t w, std::size_t n_shards, const Tensor& bx,
                         const std::vector<int>& by) {
  exec::FloatBackend& backend = backends_[w];
  const std::size_t n = bx.shape()[0];
  for (std::size_t s = w; s < n_shards; s += backends_.size()) {
    const std::size_t lo = s * cfg_.micro_batch;
    const std::size_t hi = std::min(n, lo + cfg_.micro_batch);
    const std::size_t cnt = hi - lo;
    tensor::extract_span(bx, lo, cnt, worker_x_[w]);
    worker_y_[w].assign(by.begin() + static_cast<long>(lo), by.begin() + static_cast<long>(hi));

    backend.zero_grad();
    const Tensor& logits = backend.train_forward(worker_x_[w]);
    const float loss = tensor::cross_entropy(logits, worker_y_[w], &worker_dlogits_[w]);
    shard_correct_[s] = tensor::count_correct(logits, worker_y_[w]);
    // Scale d(mean loss over shard) to d(mean loss over batch): n_s / N.
    // With one shard the factor is exactly 1.0f, leaving the eager bits.
    worker_dlogits_[w] *= static_cast<float>(cnt) / static_cast<float>(n);
    backend.run_backward(worker_dlogits_[w]);

    std::vector<Tensor>& g = shard_grads_[s];
    const std::vector<Tensor>& src = backend.param_grads();
    for (std::size_t i = 0; i < src.size(); ++i) g[i] = src[i];
    const auto& stats = backend.bn_batch_stats();
    for (std::size_t j = 0; j < stats.size(); ++j) {
      shard_bn_[s][j].mean = stats[j].mean;
      shard_bn_[s][j].var = stats[j].var;
    }
    shard_loss_[s] = static_cast<double>(loss) * static_cast<double>(cnt);
    shard_count_[s] = cnt;
  }
}

StepStats Trainer::step(const Tensor& bx, const std::vector<int>& by) {
  const std::size_t n = checked_rows(bx, by, "step");
  const std::size_t n_shards = (n + cfg_.micro_batch - 1) / cfg_.micro_batch;
  if (n_shards > shard_grads_.size()) {
    throw std::invalid_argument("train::Trainer::step: batch of " + std::to_string(n) +
                                " exceeds configured batch_size " +
                                std::to_string(cfg_.batch_size));
  }

  const std::size_t active = std::min(backends_.size(), n_shards);
  if (active <= 1) {
    run_worker(0, n_shards, bx, by);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(active - 1);
    for (std::size_t w = 1; w < active; ++w) {
      pool.emplace_back([this, w, n_shards, &bx, &by] { run_worker(w, n_shards, bx, by); });
    }
    run_worker(0, n_shards, bx, by);
    for (auto& t : pool) t.join();
  }

  // BN running stats fold in shard order — the serial order a single worker
  // would have produced. bn pointers come from worker 0's backend; every
  // backend lowered the same module graph, so step order agrees.
  const auto& bn_entries = backends_[0].bn_batch_stats();
  for (std::size_t s = 0; s < n_shards; ++s) {
    for (std::size_t j = 0; j < bn_entries.size(); ++j) {
      bn_entries[j].bn->update_running_stats(shard_bn_[s][j].mean.data(),
                                             shard_bn_[s][j].var.data());
    }
  }

  // Serial fixed-order tree reduce over shard ids: G[i] += G[i + stride].
  for (std::size_t stride = 1; stride < n_shards; stride *= 2) {
    for (std::size_t i = 0; i + stride < n_shards; i += 2 * stride) {
      std::vector<Tensor>& dst = shard_grads_[i];
      const std::vector<Tensor>& add = shard_grads_[i + stride];
      for (std::size_t p = 0; p < dst.size(); ++p) {
        float* d = dst[p].data();
        const float* a = add[p].data();
        for (std::size_t e = 0; e < dst[p].numel(); ++e) d[e] += a[e];
      }
    }
  }

  opt_.zero_grad();
  for (std::size_t p = 0; p < params_.size(); ++p) {
    std::memcpy(params_[p]->grad.data(), shard_grads_[0][p].data(),
                params_[p]->grad.numel() * sizeof(float));
  }
  opt_.step();

  StepStats st;
  st.count = n;
  for (std::size_t s = 0; s < n_shards; ++s) {
    st.loss_sum += shard_loss_[s];
    st.correct += shard_correct_[s];
  }
  return st;
}

Tensor Trainer::gather(const Tensor& x, const std::vector<std::size_t>& idx, std::size_t lo,
                       std::size_t hi) const {
  const std::size_t count = hi - lo;
  const std::size_t row = x.numel() / x.shape()[0];
  Shape s;
  if (x.shape().rank() == 4) {
    s = Shape{count, x.shape()[1], x.shape()[2], x.shape()[3]};
  } else {
    s = Shape{count, x.shape()[1]};
  }
  Tensor out(s);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out.data() + i * row, x.data() + idx[lo + i] * row, row * sizeof(float));
  }
  return out;
}

std::vector<EpochResult> Trainer::fit(const Tensor& train_x, const std::vector<int>& train_y,
                                      const Tensor& test_x, const std::vector<int>& test_y) {
  const std::size_t n = checked_rows(train_x, train_y, "fit");
  checked_rows(test_x, test_y, "fit");
  tensor::Rng shuffle_rng(cfg_.shuffle_seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::vector<EpochResult> history;
  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    if (epoch == cfg_.warmup_epochs && cfg_.on_warmup_end) cfg_.on_warmup_end(net_);
    const float lr = cfg_.schedule.lr_at(epoch);
    opt_.set_lr(lr);

    // Fisher-Yates shuffle.
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[shuffle_rng.uniform_int(i + 1)]);
    }

    double loss_sum = 0.0;
    std::size_t correct = 0, seen = 0;
    for (std::size_t lo = 0; lo < n; lo += cfg_.batch_size) {
      const std::size_t hi = std::min(n, lo + cfg_.batch_size);
      const Tensor bx = gather(train_x, order, lo, hi);
      std::vector<int> by(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) by[i - lo] = train_y[order[i]];

      const StepStats st = step(bx, by);
      loss_sum += st.loss_sum;
      correct += st.correct;
      seen += st.count;
    }

    EpochResult r;
    r.epoch = epoch;
    r.lr = lr;
    r.train_loss = static_cast<float>(loss_sum / static_cast<double>(seen));
    r.train_acc = static_cast<float>(correct) / static_cast<float>(seen);
    r.test_acc = evaluate(test_x, test_y);
    r.quantized = cfg_.policy != nullptr && cfg_.policy->active();
    history.push_back(r);

    if (cfg_.verbose) {
      const char* tag = cfg_.policy == nullptr ? "" : r.quantized ? "  [quantized]" : "  [fp32]";
      std::printf("epoch %3zu  lr %.4f  loss %.4f  train %.4f  test %.4f%s\n", epoch, lr,
                  r.train_loss, r.train_acc, r.test_acc, tag);
      std::fflush(stdout);
    }
    if (cfg_.on_epoch_end) cfg_.on_epoch_end(epoch, net_);
  }
  return history;
}

float Trainer::evaluate(const Tensor& x, const std::vector<int>& y, std::size_t batch) {
  const std::size_t n = checked_rows(x, y, "evaluate");
  Tensor bx;
  std::size_t correct = 0;
  for (std::size_t lo = 0; lo < n; lo += batch) {
    const std::size_t hi = std::min(n, lo + batch);
    tensor::extract_span(x, lo, hi - lo, bx);
    std::vector<int> by(y.begin() + static_cast<long>(lo), y.begin() + static_cast<long>(hi));
    correct += tensor::count_correct(backends_[0].run(bx), by);
  }
  return static_cast<float>(correct) / static_cast<float>(n);
}

}  // namespace pdnn::train
