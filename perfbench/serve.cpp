// serve section — open-loop serving through serve::Engine.
//
// Target: an Engine with `workers` workers, max_batch 8, batch_timeout 100 us,
// over a FloatBackend of nn::mlp(64, 128, 10, 2) (OpenMP team 1). One pacer
// thread (this one) sends requests on a fixed schedule and one harvester
// thread collects the futures in send order. Latency runs from the intended
// send time to the moment the harvester holds the answer, so a stalled pacer
// or engine is charged to every request it delays.
//
// Three rungs of offered rate (low 500/s: each request waits out the batch
// timeout alone; mid 10k/s; high 40k/s: batches fill) give the end-to-end
// p50s: one p50 per rung and round, then the best round (see
// kWindowQuantile). The traced run adds the tails, the per-request split,
// and a fixed bisection schedule for the highest rate whose p90 stays
// <= 1 ms with
// >= 98 % of the offered rate achieved. Every answer is checked bit for bit
// against a solo (batch of one) FloatBackend run of the same sample.
//
// Request i sends pool sample i % kPool, whose feature 0 holds its pool
// index. The traced run wraps the backend in a timing decorator that reads
// those indices, so every request is matched to the backend run that carried
// it (the k-th run of pool sample p carried request k * kPool + p): queue
// wait (submit -> run start), run time, and handoff (run end -> harvester
// holds the value).
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "serve/engine.hpp"
#include "tensor/random.hpp"

namespace perfbench {

namespace {

using pdnn::exec::Backend;
using pdnn::serve::Engine;
using pdnn::serve::EngineConfig;
using pdnn::serve::EngineStats;
using pdnn::tensor::Tensor;

constexpr std::size_t kIn = 64, kHidden = 128, kClasses = 10, kDepth = 2;
constexpr std::size_t kPool = 1024;  // distinct samples, each with a solo reference
// The bisection's latency limit: p90 <= 1 ms. (p99 on a shared VM is set by
// host preemption stalls of 1-30 ms that come and go over tens of seconds,
// so it is reported per layer, where it has no regression bound.)
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kLimitQuantile = 0.90;
constexpr double kAchievedShare = 0.98;
constexpr double kAbortUs = 100000.0;  // a probe this far behind has failed; stop sending
constexpr double kLateBoundUs = 100.0;  // pacer slip (p99) that marks a rung invalid
constexpr std::size_t kSpanRequests = 2000;  // request spans kept per traced rung

/// One backend run as the decorator saw it.
struct RunRecord {
  Clock::time_point start, end;
  std::vector<std::uint32_t> pool_ids;  // feature 0 of each row
};

/// Shared by a TimedBackend and its clones. Each clone appends only to its
/// own record list (a backend is single-caller); the lists are read after
/// the engine has joined its workers.
struct RunLog {
  std::mutex mu;  // guards `lists` (clone registration only)
  std::vector<std::unique_ptr<std::vector<RunRecord>>> lists;

  std::vector<RunRecord>* new_list() {
    std::lock_guard<std::mutex> lock(mu);
    lists.push_back(std::make_unique<std::vector<RunRecord>>());
    return lists.back().get();
  }
};

/// Timing decorator over any backend, built like exec::FaultInjectingBackend:
/// clones wrap clones of the inner backend and share the log.
class TimedBackend final : public Backend {
 public:
  TimedBackend(std::unique_ptr<Backend> inner, RunLog* log)
      : inner_(std::move(inner)), log_(log), records_(log->new_list()) {}
  std::unique_ptr<Backend> clone() const override {
    return std::make_unique<TimedBackend>(inner_->clone(), log_);
  }
  const pdnn::exec::ExecPlan& plan() const override { return inner_->plan(); }
  std::size_t arena_bytes() const override { return inner_->arena_bytes(); }

 protected:
  const Tensor& run_impl(const Tensor& x) override {
    RunRecord rec;
    rec.start = Clock::now();
    const Tensor& y = inner_->run(x);
    rec.end = Clock::now();
    const std::size_t rows = x.shape()[0];
    rec.pool_ids.resize(rows);
    for (std::size_t b = 0; b < rows; ++b) {
      rec.pool_ids[b] = static_cast<std::uint32_t>(x.data()[b * kIn]);
    }
    records_->push_back(std::move(rec));
    return y;
  }

 private:
  std::unique_ptr<Backend> inner_;
  RunLog* log_;
  std::vector<RunRecord>* records_;
};

struct Fixture {
  std::vector<Tensor> pool;  // [kIn] samples, feature 0 = pool index
  std::vector<Tensor> want;  // solo-run answer of each pool sample
  std::unique_ptr<pdnn::nn::Sequential> net;
  std::unique_ptr<pdnn::exec::FloatBackend> proto;
};

/// Tail quantile robust to a short stall of the whole box: the sends are cut
/// into up to ten consecutive windows of at least 1000 requests (so a
/// window's p99 has ten samples beyond it) and the median of the window
/// quantiles is reported. A stall then moves a window or two, not the result.
double windowed_quantile(const std::vector<double>& v, double q) {
  const std::size_t w = std::max<std::size_t>(1, std::min<std::size_t>(10, v.size() / 1000));
  std::vector<double> per_window;
  for (std::size_t k = 0; k < w; ++k) {
    const auto lo = v.begin() + static_cast<long>(v.size() * k / w);
    const auto hi = v.begin() + static_cast<long>(v.size() * (k + 1) / w);
    per_window.push_back(quantile(std::vector<double>(lo, hi), q));
  }
  return median(per_window);
}

struct LoopResult {
  double offered = 0.0;
  double achieved = 0.0;
  bool aborted = false;
  std::vector<double> lat_us, late_us;
  EngineStats stats;
  std::uint64_t errors = 0, mismatches = 0;
  // traced only
  std::vector<double> queue_us, handoff_us, run_us;
  std::uint64_t unmatched = 0;

  double batch_mean() const {
    return stats.batches == 0
               ? 0.0
               : static_cast<double>(stats.completed) / static_cast<double>(stats.batches);
  }
  /// Pool a later segment of the same rung into this one.
  void append(const LoopResult& o) {
    const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(lat_us, o.lat_us);
    cat(late_us, o.late_us);
    cat(queue_us, o.queue_us);
    cat(handoff_us, o.handoff_us);
    cat(run_us, o.run_us);
    stats.completed += o.stats.completed;
    stats.batches += o.stats.batches;
    errors += o.errors;
    mismatches += o.mismatches;
    unmatched += o.unmatched;
  }

  bool passes() const {
    return !aborted && errors == 0 && mismatches == 0 &&
           windowed_quantile(lat_us, kLimitQuantile) <= kLatencyLimitUs &&
           achieved >= kAchievedShare * offered;
  }
};

/// Busy-wait: a sleeping pacer wakes late by the timer slack plus the
/// wake-up of an idle core, which would be charged to the engine.
void wait_until(Clock::time_point t) {
  while (Clock::now() < t) {
  }
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One open-loop run of `n` requests at `rate`. A probe (`may_abort`) stops
/// sending once a request is kAbortUs late: it has failed, and an engine
/// far past saturation would otherwise take seconds to drain.
LoopResult open_loop(const Fixture& f, const EngineConfig& cfg, double rate, std::size_t n,
                     bool traced, bool may_abort, SpanLog* spans, const std::string& rung) {
  LoopResult res;
  res.offered = rate;
  RunLog log;
  std::unique_ptr<Backend> timed;
  if (traced) timed = std::make_unique<TimedBackend>(f.proto->clone(), &log);
  Engine engine(traced ? *timed : static_cast<const Backend&>(*f.proto), cfg);
  {
    std::vector<std::future<Tensor>> warm;
    for (std::size_t i = 0; i < 2 * cfg.max_batch; ++i) warm.push_back(engine.submit(f.pool[i]));
    for (auto& w : warm) w.get();
  }
  if (traced) {
    for (auto& l : log.lists) l->clear();  // warm-up runs are not requests
  }

  std::vector<std::future<Tensor>> futures(n);
  std::vector<Clock::time_point> sent(n), seen(n);
  std::vector<unsigned char> ok(n, 0), match(n, 0);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> limit{n};
  std::atomic<bool> abort{false};
  const auto period =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(1.0 / rate));
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto intended = [&](std::size_t i) { return t0 + period * static_cast<long>(i); };

  std::thread harvester([&] {
    for (std::size_t i = 0; i < n; ++i) {
      // Caught up with the pacer: poll at a coarse grain instead of spinning,
      // so the harvester does not hold a core the pacer or a worker needs.
      bool stop = false;
      while (published.load(std::memory_order_acquire) <= i) {
        if (i >= limit.load(std::memory_order_acquire)) {
          stop = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      if (stop) break;
      try {
        if (futures[i].valid()) {
          const Tensor y = futures[i].get();
          ok[i] = 1;
          match[i] = bits_equal(y, f.want[i % kPool]) ? 1 : 0;
        }
      } catch (...) {
        // ok[i] stays 0: counted as an error below
      }
      seen[i] = Clock::now();
      if (may_abort && us_between(intended(i), seen[i]) > kAbortUs) {
        abort.store(true, std::memory_order_relaxed);
      }
    }
  });
  std::size_t sent_count = n;
  std::exception_ptr pacer_error;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      if (abort.load(std::memory_order_relaxed)) {
        sent_count = i;
        limit.store(i, std::memory_order_release);
        break;
      }
      Tensor s = f.pool[i % kPool];
      wait_until(intended(i));
      sent[i] = Clock::now();
      try {
        futures[i] = engine.submit(std::move(s));
      } catch (const std::exception&) {
        // no future: the harvester counts the request as failed
      }
      published.store(i + 1, std::memory_order_release);
    }
  } catch (...) {
    pacer_error = std::current_exception();
    limit.store(published.load(std::memory_order_relaxed), std::memory_order_release);
  }
  harvester.join();
  if (pacer_error) std::rethrow_exception(pacer_error);
  engine.shutdown();
  res.stats = engine.stats();
  n = sent_count;
  res.aborted = sent_count < futures.size();

  res.lat_us.resize(n);
  res.late_us.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.lat_us[i] = us_between(intended(i), seen[i]);
    res.late_us[i] = us_between(intended(i), sent[i]);
    if (!ok[i]) {
      ++res.errors;
    } else if (!match[i]) {
      ++res.mismatches;
    }
  }
  res.achieved = n == 0 ? 0.0 : static_cast<double>(n) / seconds_between(t0, seen[n - 1]);

  if (traced) {
    // Per pool sample, its runs in start order; the k-th carried request
    // k * kPool + p.
    std::vector<const RunRecord*> runs;
    for (const auto& l : log.lists) {
      for (const RunRecord& rec : *l) runs.push_back(&rec);
    }
    std::sort(runs.begin(), runs.end(),
              [](const RunRecord* x, const RunRecord* y) { return x->start < y->start; });
    std::vector<std::vector<const RunRecord*>> by_pool(kPool);
    for (const RunRecord* rec : runs) {
      res.run_us.push_back(us_between(rec->start, rec->end));
      for (const std::uint32_t p : rec->pool_ids) {
        if (p < kPool) by_pool[p].push_back(rec);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto& carriers = by_pool[i % kPool];
      const std::size_t k = i / kPool;
      if (k >= carriers.size()) {
        ++res.unmatched;
        continue;
      }
      const RunRecord& rec = *carriers[k];
      res.queue_us.push_back(us_between(sent[i], rec.start));
      res.handoff_us.push_back(us_between(rec.end, seen[i]));
      if (spans != nullptr && i < kSpanRequests) {
        const auto id = static_cast<long long>(i);
        const long root = spans->add("serve.request." + rung, intended(i), seen[i], -1, id);
        spans->add("serve.pacer_late", intended(i), sent[i], root, id);
        spans->add("serve.queue", sent[i], rec.start, root, id);
        spans->add("serve.run", rec.start, rec.end, root, id);
        spans->add("serve.handoff", rec.end, seen[i], root, id);
      }
    }
  }
  std::cerr << "serve: " << rung << (traced ? " traced" : "") << " offered " << rate
            << " achieved " << res.achieved << (res.aborted ? " ABORTED" : "") << " p50 "
            << quantile(res.lat_us, 0.5) << " us p90 " << windowed_quantile(res.lat_us, 0.9)
            << " us p99 " << windowed_quantile(res.lat_us, 0.99)
            << " us late p99 " << quantile(res.late_us, 0.99) << " us batch " << res.batch_mean()
            << " errors " << res.errors << " mismatches " << res.mismatches << "\n";
  return res;
}

struct Rung {
  const char* name;
  double rate;
  double share;  // of the section budget
};

}  // namespace

void run_serve(const Args& a, Result& r) {
  EngineConfig cfg;
  cfg.workers = a.workers;
  cfg.max_batch = 8;
  cfg.batch_timeout = std::chrono::microseconds(100);

  // --- set-up: inputs, net, compile, engine start, warm-up ------------------
  std::vector<double> setup;
  Fixture f;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    pdnn::tensor::Rng rng(a.seed * 0x9E3779B97F4A7C15ULL + 0x5E4EULL);
    f.pool.clear();
    for (std::size_t i = 0; i < kPool; ++i) {
      f.pool.push_back(Tensor::randn({kIn}, rng));
      f.pool.back().data()[0] = static_cast<float>(i);
    }
    f.net = pdnn::nn::mlp(kIn, kHidden, kClasses, kDepth, rng);
    f.proto =
        std::make_unique<pdnn::exec::FloatBackend>(pdnn::exec::FloatBackend::compile(*f.net));
    Engine engine(*f.proto, cfg);
    std::vector<std::future<Tensor>> warm;
    for (std::size_t i = 0; i < 4 * cfg.max_batch; ++i) warm.push_back(engine.submit(f.pool[i]));
    for (auto& w : warm) w.get();
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  r.set_setup_s(median(setup));

  // Solo references: each pool sample alone, a batch of one.
  {
    auto ref = f.proto->clone();
    Tensor one({1, kIn});
    f.want.clear();
    for (const Tensor& s : f.pool) {
      std::copy(s.data(), s.data() + kIn, one.data());
      const Tensor& y = ref->run(one);
      f.want.emplace_back(pdnn::tensor::Shape{kClasses});
      std::copy(y.data(), y.data() + kClasses, f.want.back().data());
    }
  }

  // Shares of the section budget. The traced run also spends kBisectShare
  // on the max-rate bisection and splits each rung segment into an untraced
  // and a traced half.
  const Rung rungs[] = {{"low", 500.0, 0.50}, {"mid", 10000.0, 0.25}, {"high", 40000.0, 0.25}};
  constexpr std::size_t kRungs = 3;
  // Rungs interleave, so a slow spell of the box hits all of them. A
  // windowed run makes one round per window.
  const std::size_t rounds = a.windows > 1 ? a.windows : 3;
  constexpr int kAttempts = 3;    // a segment whose pacer fell behind is measured again
  constexpr double kBisectShare = 0.40;
  constexpr int kProbes = 6;      // per bisection: 64x range to 6.7 % steps
  constexpr int kBisections = 2;  // the reported rate is their mean
  constexpr double kBisectLo = 10000.0, kBisectHi = 640000.0;

  std::uint64_t rejected = 0, shed = 0, expired = 0, retries = 0, errors = 0;
  const auto account = [&](const LoopResult& res) {
    r.attempt_many(res.lat_us.size());
    r.fail_many(res.errors, "serve: request failed");
    r.fail_many(res.mismatches, "serve: answer differs from the solo run");
    r.fail_many(res.unmatched, "serve: traced request matched no backend run");
    rejected += res.stats.rejected;
    shed += res.stats.shed;
    expired += res.stats.deadline_expired;
    retries += res.stats.retries;
    errors += res.errors + res.mismatches;
  };
  const auto requests = [&](double rate, double share) {
    return static_cast<std::size_t>(std::max(200.0, rate * a.seconds * share));
  };

  SpanLog spans(Clock::now());
  const double rung_budget = a.trace ? (1.0 - kBisectShare) / 2 : 1.0;
  LoopResult plain[kRungs], traced[kRungs];
  std::vector<double> round_p50[kRungs];
  std::uint64_t invalid_segments = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (!await_window(a)) throw std::runtime_error("serve: stdin closed before window start");
    for (std::size_t g = 0; g < kRungs; ++g) {
      const Rung& rung = rungs[g];
      const std::size_t n =
          requests(rung.rate, rung.share * rung_budget / static_cast<double>(rounds));
      // Open-loop hygiene: a segment whose pacer slipped (p99) past
      // kLateBoundUs measured the host, not the engine; it is measured
      // again, and the last attempt is kept either way.
      for (int attempt = 1;; ++attempt) {
        LoopResult seg = open_loop(f, cfg, rung.rate, n, false, false, nullptr, rung.name);
        account(seg);
        const bool valid = quantile(seg.late_us, 0.99) <= kLateBoundUs;
        if (valid || attempt == kAttempts) {
          round_p50[g].push_back(quantile(seg.lat_us, 0.5));
          plain[g].append(seg);
          break;
        }
        ++invalid_segments;
      }
      if (!a.trace) continue;
      LoopResult seg =
          open_loop(f, cfg, rung.rate, n, true, false, round == 0 ? &spans : nullptr, rung.name);
      account(seg);
      traced[g].append(seg);
    }
  }
  r.meta_num("serve_invalid_segments", static_cast<double>(invalid_segments));
  for (std::size_t g = 0; g < kRungs; ++g) {
    const std::string n = rungs[g].name;
    const LoopResult& p = plain[g];
    const double late99 = quantile(p.late_us, 0.99);
    r.meta_num("gen_late_us.p99." + n, late99);
    if (!a.trace) {
      // Lower is better, so the mirror of the rates' quantile.
      r.metric("p50_us." + n, quantile(round_p50[g], 1.0 - kWindowQuantile), "us");
      r.meta("serve_window_p50_us." + n, json_list(round_p50[g]));
      continue;
    }
    const LoopResult& t = traced[g];
    r.metric("serve.p90_us." + n, windowed_quantile(p.lat_us, 0.90), "us");
    r.metric("serve.p99_us." + n, windowed_quantile(p.lat_us, 0.99), "us");
    r.metric("serve.queue_wait_us.p50." + n, quantile(t.queue_us, 0.5), "us");
    r.metric("serve.queue_wait_us.p99." + n, quantile(t.queue_us, 0.99), "us");
    r.metric("serve.run_us.p50." + n, quantile(t.run_us, 0.5), "us");
    r.metric("serve.batch_mean." + n, t.batch_mean(), "requests");
    r.metric("serve.handoff_us.p50." + n, quantile(t.handoff_us, 0.5), "us");
    r.metric("serve.gen_late_us.p99." + n, std::max(late99, quantile(t.late_us, 0.99)), "us");
    r.metric("serve.trace_overhead_us.p50." + n,
             quantile(t.lat_us, 0.5) - quantile(p.lat_us, 0.5), "us");
  }
  if (!a.trace) return;

  // Fixed bisection schedule on a log scale between kBisectLo and kBisectHi.
  // A stall of the box can fail a probe but never pass one, so a failed rate
  // gets a second attempt before the bracket moves down. Near the knee a
  // probe's outcome is still a coin toss, so the schedule runs kBisections
  // times and the mean is reported.
  const double probe_share = kBisectShare / (kProbes * kBisections);
  double found = 0.0;
  for (int b = 0; b < kBisections; ++b) {
    double lo = kBisectLo, hi = kBisectHi;
    for (int k = 0; k < kProbes; ++k) {
      const double rate = std::sqrt(lo * hi);
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        const LoopResult probe = open_loop(f, cfg, rate, requests(rate, probe_share), false, true,
                                           nullptr, "probe" + std::to_string(k));
        account(probe);
        pass = probe.passes();
      }
      (pass ? lo : hi) = rate;
    }
    found += lo / kBisections;
  }
  r.metric("serve.max_rps_p90_1ms", found, "1/s");
  r.metric("serve.invalid_segments", static_cast<double>(invalid_segments), "count");
  r.metric("serve.rejected", static_cast<double>(rejected), "count");
  r.metric("serve.shed", static_cast<double>(shed), "count");
  r.metric("serve.deadline_expired", static_cast<double>(expired), "count");
  r.metric("serve.retries", static_cast<double>(retries), "count");
  r.metric("serve.errors", static_cast<double>(errors), "count");
  if (!a.trace_path.empty() && !spans.write(a.trace_path)) {
    std::cerr << "serve: cannot write " << a.trace_path << "\n";
  }
}

}  // namespace perfbench
