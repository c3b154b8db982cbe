// serve — serving-layer perf tracking. Drives serve::Engine (dynamic batching
// over cloned exec backends) with closed-loop clients (each waits for its
// answer before sending the next request) and an open-loop arrival process
// (requests paced at an offered QPS regardless of completions), recording
// p50/p99/p999 latency, achieved QPS, the dispatched batch-size histogram,
// the engine's own per-phase p50/p99 (queue wait, gather, backend run,
// copy-out) and its futile-wait early dispatches per row, then writes
// BENCH_serve.json.
//
// Every closed-loop float row also bit-checks each batched answer against the
// solo single-sample reference — the Engine's core correctness claim.
//
// Usage:
//   bench_serve [out.json]
//   bench_serve --check-regression <baseline.json> [out.json]
//     also compares closed-loop achieved QPS against the committed baseline.
//   bench_serve --chaos [out.json]
//     chaos-only rows: closed-loop clients against a pool where every worker
//     trips on a poison trigger value and one worker additionally throws on a
//     seeded schedule and dawdles (exec::FaultInjectingBackend). Checks the
//     overload/fault layer end-to-end: every future resolves, exceptions land
//     only on poison requests, healthy answers stay bit-identical to solo,
//     and the retry counters move. Defaults to BENCH_serve_chaos.json.
//
// Exit codes: 0 ok; 1 correctness mismatch (batched answer diverged from the
// solo run, a healthy request faulted, or a poison request slipped through —
// always a real failure); 2 usage / unreadable baseline / unwritable output;
// 3 only a perf regression (>20% below baseline — CI treats this one as
// non-blocking).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exec/fault_injection.hpp"
#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "posit/simd.hpp"
#include "quant/posit_session.hpp"
#include "serve/engine.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

using pdnn::exec::Backend;
using pdnn::serve::Engine;
using pdnn::serve::EngineConfig;
using pdnn::serve::EngineStats;
using pdnn::tensor::Rng;
using pdnn::tensor::Tensor;
using clock_type = std::chrono::steady_clock;

using pdnn::benchutil::scan_number;
using pdnn::benchutil::scan_string;

struct LatencyStats {
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
};

LatencyStats percentiles(std::vector<double>& lat_us) {
  LatencyStats s;
  if (lat_us.empty()) return s;
  std::sort(lat_us.begin(), lat_us.end());
  const auto at = [&](double q) {
    const std::size_t i = static_cast<std::size_t>(q * static_cast<double>(lat_us.size()));
    return lat_us[std::min(i, lat_us.size() - 1)];
  };
  s.p50_us = at(0.50);
  s.p99_us = at(0.99);
  s.p999_us = at(0.999);
  return s;
}

struct Row {
  std::string scenario;  // "closed" | "open" | "chaos"
  std::string backend;   // "float" | "posit"
  std::size_t workers = 1;
  std::size_t clients = 0;      // closed loop only
  double offered_qps = 0.0;     // open loop only
  std::size_t requests = 0;
  double achieved_qps = 0.0;
  LatencyStats lat;
  std::uint64_t batches = 0;
  double mean_batch = 0.0;
  std::string hist;  // "s:count|s:count|..." over dispatched batch sizes
  bool bit_identical = true;
  // Overload/fault-layer counters (EngineStats), plus the futures that
  // resolved with an exception on the client side.
  std::uint64_t rejected = 0, shed = 0, deadline_expired = 0;
  std::uint64_t retries = 0, quarantines = 0, rebuilds = 0;
  std::uint64_t errors = 0;
  // The engine's per-request phase histograms (EngineStats), as p50/p99 in
  // microseconds: queue wait, gather, backend run, copy-out.
  struct Phase {
    double p50_us = 0.0, p99_us = 0.0;
  };
  Phase queue, gather, run, copy;
  std::uint64_t early_dispatches = 0;
};

std::string render_hist(const EngineStats& stats) {
  std::string h;
  for (std::size_t s = 1; s < stats.batch_hist.size(); ++s) {
    if (stats.batch_hist[s] == 0) continue;
    if (!h.empty()) h += '|';
    h += std::to_string(s) + ":" + std::to_string(stats.batch_hist[s]);
  }
  return h.empty() ? "0" : h;
}

Row::Phase phase_of(const pdnn::serve::LatencyHistogram& h) {
  const auto us = [&](double q) {
    return std::chrono::duration<double, std::micro>(h.quantile(q)).count();
  };
  return {us(0.50), us(0.99)};
}

/// Everything a row reads off the engine after its drain.
void fill_engine_stats(Row& row, const EngineStats& stats) {
  row.batches = stats.batches;
  row.mean_batch =
      stats.batches == 0 ? 0.0
                         : static_cast<double>(stats.completed) / static_cast<double>(stats.batches);
  row.hist = render_hist(stats);
  row.queue = phase_of(stats.queue_wait);
  row.gather = phase_of(stats.gather);
  row.run = phase_of(stats.run);
  row.copy = phase_of(stats.copy_out);
  row.early_dispatches = stats.early_dispatches;
  row.rejected = stats.rejected;
  row.shed = stats.shed;
  row.deadline_expired = stats.deadline_expired;
  row.retries = stats.retries;
  row.quarantines = stats.quarantines;
  row.rebuilds = stats.rebuilds;
}

/// Solo reference: the sample alone, a batch of one, through `backend`.
Tensor solo_run(Backend& backend, const Tensor& sample) {
  const Tensor* one = &sample;
  Tensor batch;
  pdnn::tensor::stack_samples(&one, 1, batch);
  Tensor row;
  pdnn::tensor::extract_sample(backend.run(batch), 0, row);
  return row;
}

/// Closed loop: `clients` threads each send `per_client` requests
/// back-to-back, waiting for each answer before the next send. When `want` is
/// non-empty, every answer is bit-checked against want[sample index].
Row closed_loop(const std::string& backend_name, Backend& proto, const EngineConfig& cfg,
                const std::vector<Tensor>& samples, const std::vector<Tensor>& want,
                std::size_t clients, std::size_t per_client) {
  Engine engine(proto, cfg);
  std::vector<std::vector<double>> lat(clients);
  std::atomic<bool> identical{true};
  std::atomic<std::uint64_t> errors{0};

  const auto t0 = clock_type::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      lat[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t s = (c + i) % samples.size();
        const auto sent = clock_type::now();
        try {
          Tensor y = engine.submit(samples[s]).get();
          if (!want.empty() &&
              (y.shape() != want[s].shape() ||
               std::memcmp(y.data(), want[s].data(), y.numel() * sizeof(float)) != 0)) {
            identical = false;
          }
        } catch (const std::exception&) {
          // A faultless row must not see exceptions; counted and surfaced.
          ++errors;
        }
        lat[c].push_back(
            std::chrono::duration<double, std::micro>(clock_type::now() - sent).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = std::chrono::duration<double>(clock_type::now() - t0).count();
  engine.shutdown();

  Row row;
  row.scenario = "closed";
  row.backend = backend_name;
  row.workers = cfg.workers;
  row.clients = clients;
  row.requests = clients * per_client;
  row.achieved_qps = static_cast<double>(row.requests) / wall;
  std::vector<double> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  row.lat = percentiles(all);
  fill_engine_stats(row, engine.stats());
  row.bit_identical = identical.load() && errors.load() == 0;
  row.errors = errors.load();
  return row;
}

/// Open loop: one pacer submits at `offered_qps` on a fixed schedule (no
/// back-pressure from completions); latency is completion minus the
/// *intended* send time, so pacing slip counts against the engine
/// (coordinated-omission corrected). Futures are harvested in submission
/// order — FIFO batching keeps completions nearly ordered, so the harvest
/// skew is bounded by one in-flight batch per worker.
Row open_loop(const std::string& backend_name, Backend& proto, const EngineConfig& cfg,
              const std::vector<Tensor>& samples, double offered_qps, std::size_t requests) {
  Engine engine(proto, cfg);
  const auto period =
      std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(1.0 / offered_qps));

  std::vector<std::future<Tensor>> futures;
  std::vector<clock_type::time_point> intended(requests);
  std::vector<double> lat_us(requests);
  futures.reserve(requests);  // no reallocation: harvester holds references
  std::atomic<std::size_t> published{0};
  std::atomic<std::uint64_t> errors{0};

  const auto t0 = clock_type::now();
  std::thread harvester([&] {
    for (std::size_t i = 0; i < requests; ++i) {
      while (published.load(std::memory_order_acquire) <= i) std::this_thread::yield();
      try {
        futures[i].get();
      } catch (const std::exception&) {
        ++errors;
      }
      lat_us[i] =
          std::chrono::duration<double, std::micro>(clock_type::now() - intended[i]).count();
    }
  });
  for (std::size_t i = 0; i < requests; ++i) {
    intended[i] = t0 + period * static_cast<std::int64_t>(i);
    std::this_thread::sleep_until(intended[i]);
    futures.push_back(engine.submit(samples[i % samples.size()]));
    published.store(i + 1, std::memory_order_release);
  }
  harvester.join();
  const double wall = std::chrono::duration<double>(clock_type::now() - t0).count();
  engine.shutdown();

  Row row;
  row.scenario = "open";
  row.backend = backend_name;
  row.workers = cfg.workers;
  row.offered_qps = offered_qps;
  row.requests = requests;
  row.achieved_qps = static_cast<double>(requests) / wall;
  row.lat = percentiles(lat_us);
  fill_engine_stats(row, engine.stats());
  row.bit_identical = errors.load() == 0;  // faultless open loop: any error is real
  row.errors = errors.load();
  return row;
}

/// Chaos loop: closed-loop clients against a factory-built pool where every
/// worker throws on the poison trigger value and worker `flaky_ordinal`
/// additionally throws every `throw_every`-th run (seeded) and sleeps per
/// run. Each client sends poison at fixed positions. The acceptance bar:
/// every future resolves; poison requests (and only they) fail, with
/// exec::InjectedFault; healthy answers are bit-identical to solo.
Row chaos_loop(const std::string& backend_name, Backend& proto, const EngineConfig& cfg,
               const std::vector<Tensor>& samples, const std::vector<Tensor>& want,
               std::size_t clients, std::size_t per_client) {
  constexpr float kPoison = 1.0e30f;
  auto calls = std::make_shared<std::atomic<int>>(0);
  Engine::BackendFactory factory = [&proto, calls] {
    const int ordinal = ++*calls;
    pdnn::exec::FaultConfig fcfg;
    fcfg.has_trigger = true;
    fcfg.trigger = kPoison;
    fcfg.seed = 9000 + static_cast<std::uint64_t>(ordinal);
    if (ordinal == 2) {  // one flaky worker in the pool
      fcfg.throw_every = 7;
      fcfg.latency = std::chrono::microseconds(200);
    }
    return std::make_unique<pdnn::exec::FaultInjectingBackend>(proto.clone(), fcfg);
  };
  Engine engine(factory, cfg);
  const Tensor poison = Tensor::full({samples[0].shape()[0]}, kPoison);

  std::vector<std::vector<double>> lat(clients);
  std::atomic<bool> ok{true};
  std::atomic<std::uint64_t> errors{0};

  const auto t0 = clock_type::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      lat[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const bool is_poison = i % 10 == 7;
        const std::size_t s = (c + i) % samples.size();
        const auto sent = clock_type::now();
        try {
          Tensor y = engine.submit(is_poison ? poison : samples[s]).get();
          if (is_poison ||  // a poison request must not produce an answer
              y.shape() != want[s].shape() ||
              std::memcmp(y.data(), want[s].data(), y.numel() * sizeof(float)) != 0) {
            ok = false;
          }
        } catch (const pdnn::exec::InjectedFault&) {
          ++errors;
          if (!is_poison) ok = false;  // a healthy request must never fault
        } catch (const std::exception&) {
          ++errors;
          ok = false;  // only InjectedFault is in the chaos plan
        }
        lat[c].push_back(
            std::chrono::duration<double, std::micro>(clock_type::now() - sent).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = std::chrono::duration<double>(clock_type::now() - t0).count();
  engine.shutdown();

  Row row;
  row.scenario = "chaos";
  row.backend = backend_name;
  row.workers = cfg.workers;
  row.clients = clients;
  row.requests = clients * per_client;
  row.achieved_qps = static_cast<double>(row.requests) / wall;
  std::vector<double> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  row.lat = percentiles(all);
  const EngineStats stats = engine.stats();
  fill_engine_stats(row, stats);
  row.errors = errors.load();
  // Every admitted request must have resolved, and exactly the poison
  // requests must have faulted.
  const std::uint64_t poison_sent = row.requests / 10;  // i % 10 == 7 per client
  row.bit_identical = ok.load() && stats.completed == stats.submitted &&
                      row.errors == poison_sent;
  return row;
}

struct BaselineEntry {
  std::string scenario, backend;
  std::size_t workers = 0, clients = 0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
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
    double workers = 0, clients = 0, offered = 0, achieved = 0;
    const std::string scenario = scan_string(obj, "scenario");
    if (!scenario.empty() && scan_number(obj, "workers", &workers) &&
        scan_number(obj, "achieved_qps", &achieved)) {
      scan_number(obj, "clients", &clients);
      scan_number(obj, "offered_qps", &offered);
      entries.push_back({scenario, scan_string(obj, "backend"),
                         static_cast<std::size_t>(workers), static_cast<std::size_t>(clients),
                         offered, achieved});
    }
    pos = end + 1;
  }
  return entries;
}

double baseline_closed_qps(const std::vector<BaselineEntry>& entries, const Row& r) {
  for (const auto& e : entries) {
    if (e.scenario == "closed" && e.backend == r.backend && e.workers == r.workers &&
        e.clients == r.clients) {
      return e.achieved_qps;
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string baseline_path;
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check-regression") {
      if (i + 1 >= argc) {
        std::cerr << "FAIL: --check-regression needs a baseline path\n";
        return 2;
      }
      baseline_path = argv[++i];
    } else if (arg == "--chaos") {
      chaos = true;
    } else {
      out_path = arg;
    }
  }
  if (out_path.empty()) out_path = chaos ? "BENCH_serve_chaos.json" : "BENCH_serve.json";
  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    baseline = parse_baseline(baseline_path);
    if (baseline.empty()) {
      std::cerr << "FAIL: no parsable results in baseline " << baseline_path << "\n";
      return 2;
    }
  }

  // A small MLP keeps per-batch work in the tens of microseconds, so the
  // numbers measure the serving layer (queueing, coalescing, scatter), not
  // the GEMM.
  Rng rng(97);
  auto net = pdnn::nn::mlp(16, 32, 4, 1, rng);
  pdnn::exec::FloatBackend fproto = pdnn::exec::FloatBackend::compile(*net);
  pdnn::quant::SessionConfig scfg;
  scfg.spec = {8, 1};
  scfg.mode = pdnn::quant::AccumMode::kSerial;
  auto pproto = pdnn::quant::PositSession::compile_backend(*net, scfg);

  std::vector<Tensor> samples;
  for (int i = 0; i < 16; ++i) samples.push_back(Tensor::randn({16}, rng));
  std::vector<Tensor> fwant, pwant;
  for (const Tensor& s : samples) {
    fwant.push_back(solo_run(fproto, s));
    pwant.push_back(solo_run(*pproto, s));
  }

  EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.batch_timeout = std::chrono::microseconds(100);

  std::vector<Row> rows;
  if (chaos) {
    // Chaos-only rows: a 4-worker pool with one flaky worker (seeded
    // scheduled throws + injected latency) and a poison trigger armed on
    // every worker; clients mix poison requests into the traffic. The
    // quarantine knobs are tightened so the flaky worker's counters move.
    EngineConfig ccfg = cfg;
    ccfg.workers = 4;
    ccfg.max_batch = 4;
    ccfg.quarantine_threshold = 3;
    ccfg.rebuild_backoff = std::chrono::milliseconds(1);
    rows.push_back(chaos_loop("float", fproto, ccfg, samples, fwant, /*clients=*/4,
                              /*per_client=*/100));
    ccfg.workers = 1;  // every batch lands on the flaky trigger-armed worker
    rows.push_back(chaos_loop("float", fproto, ccfg, samples, fwant, /*clients=*/2,
                              /*per_client=*/100));
  } else {
  // Closed loop: worker sweep at a fixed client count (structural scaling on
  // a 1-core container: workers overlap batch assembly with execution), then
  // a client sweep at the worker count CI regresses on.
  for (const std::size_t workers : {1u, 2u, 4u}) {
    cfg.workers = workers;
    rows.push_back(closed_loop("float", fproto, cfg, samples, fwant, /*clients=*/4,
                               /*per_client=*/400));
  }
  cfg.workers = 2;
  for (const std::size_t clients : {1u, 2u, 8u}) {
    rows.push_back(closed_loop("float", fproto, cfg, samples, fwant, clients, 400));
  }
  rows.push_back(closed_loop("posit", *pproto, cfg, samples, pwant, /*clients=*/4,
                             /*per_client=*/100));

  // Open loop: offered-QPS sweep through saturation; the top rate is far past
  // what one core sustains, so the tail shows queueing, not a hang.
  for (const double qps : {2000.0, 8000.0, 20000.0}) {
    cfg.workers = 2;
    rows.push_back(open_loop("float", fproto, cfg, samples, qps,
                             static_cast<std::size_t>(qps * 0.25)));
  }
  }

  for (const Row& r : rows) {
    if (r.scenario == "chaos") {
      std::printf("chaos  %-5s w%zu c%zu  %8.0f req/s  p50 %7.1fus  p99 %7.1fus  "
                  "faults %llu  retries %llu  quarantines %llu  rebuilds %llu  %s\n",
                  r.backend.c_str(), r.workers, r.clients, r.achieved_qps, r.lat.p50_us,
                  r.lat.p99_us, static_cast<unsigned long long>(r.errors),
                  static_cast<unsigned long long>(r.retries),
                  static_cast<unsigned long long>(r.quarantines),
                  static_cast<unsigned long long>(r.rebuilds),
                  r.bit_identical ? "contained" : "MISMATCH");
    } else if (r.scenario == "closed") {
      std::printf("closed %-5s w%zu c%zu  %8.0f req/s  p50 %7.1fus  p99 %7.1fus  p999 %7.1fus  "
                  "mean batch %.2f  %s\n",
                  r.backend.c_str(), r.workers, r.clients, r.achieved_qps, r.lat.p50_us,
                  r.lat.p99_us, r.lat.p999_us, r.mean_batch,
                  r.bit_identical ? "bit-identical" : "MISMATCH");
    } else {
      std::printf("open   %-5s w%zu offered %7.0f  achieved %7.0f req/s  p50 %7.1fus  "
                  "p99 %8.1fus  p999 %8.1fus  mean batch %.2f\n",
                  r.backend.c_str(), r.workers, r.offered_qps, r.achieved_qps, r.lat.p50_us,
                  r.lat.p99_us, r.lat.p999_us, r.mean_batch);
    }
    std::printf("       engine p50/p99 us: queue %.1f/%.1f  gather %.1f/%.1f  run %.1f/%.1f  "
                "copy %.1f/%.1f  early dispatches %llu\n",
                r.queue.p50_us, r.queue.p99_us, r.gather.p50_us, r.gather.p99_us, r.run.p50_us,
                r.run.p99_us, r.copy.p50_us, r.copy.p99_us,
                static_cast<unsigned long long>(r.early_dispatches));
  }

  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "FAIL: cannot open " << out_path << " for writing\n";
    return 2;
  }
  // Both backends are timed: avx2 means the float GEMM and the posit
  // kernels both dispatched their AVX2 paths.
  out << "{\n  \"bench\": \"serve\",\n  "
      << pdnn::benchutil::host_json(pdnn::tensor::gemm_kernel_vectorized() &&
                                    pdnn::posit::simd::enabled())
      << ",\n  \"net\": \"mlp16x32x4\",\n  \"max_batch\": "
      << cfg.max_batch << ",\n  \"batch_timeout_us\": 100,\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"scenario\": \"" << r.scenario << "\", \"backend\": \"" << r.backend
        << "\", \"workers\": " << r.workers << ", \"clients\": " << r.clients
        << ", \"offered_qps\": " << r.offered_qps << ", \"requests\": " << r.requests
        << ", \"achieved_qps\": " << r.achieved_qps << ", \"p50_us\": " << r.lat.p50_us
        << ", \"p99_us\": " << r.lat.p99_us << ", \"p999_us\": " << r.lat.p999_us
        << ", \"batches\": " << r.batches << ", \"mean_batch\": " << r.mean_batch
        << ", \"hist\": \"" << r.hist << "\", \"rejected\": " << r.rejected
        << ", \"shed\": " << r.shed << ", \"deadline_expired\": " << r.deadline_expired
        << ", \"retries\": " << r.retries << ", \"quarantines\": " << r.quarantines
        << ", \"rebuilds\": " << r.rebuilds << ", \"errors\": " << r.errors
        << ", \"early_dispatches\": " << r.early_dispatches
        << ", \"queue_p50_us\": " << r.queue.p50_us << ", \"queue_p99_us\": " << r.queue.p99_us
        << ", \"gather_p50_us\": " << r.gather.p50_us << ", \"gather_p99_us\": " << r.gather.p99_us
        << ", \"run_p50_us\": " << r.run.p50_us << ", \"run_p99_us\": " << r.run.p99_us
        << ", \"copy_p50_us\": " << r.copy.p50_us << ", \"copy_p99_us\": " << r.copy.p99_us
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  bool mismatch = false;
  for (const Row& r : rows) {
    if (!r.bit_identical) {
      if (r.scenario == "chaos") {
        std::cerr << "FAIL: chaos (workers=" << r.workers << ") broke containment — a healthy "
                  << "request faulted, a poison request slipped through, diverged from solo, "
                  << "or a future never resolved\n";
      } else {
        std::cerr << "FAIL: " << r.backend << " batched answer (workers=" << r.workers
                  << ") diverged from the solo reference\n";
      }
      mismatch = true;
    }
  }

  bool regressed = false;
  if (!baseline_path.empty()) {
    for (const Row& r : rows) {
      if (r.scenario != "closed") continue;
      const double base = baseline_closed_qps(baseline, r);
      if (base <= 0.0) continue;  // row not in baseline; nothing to compare
      const double ratio = r.achieved_qps / base;
      std::printf("regression check closed %-5s w%zu c%zu: %8.0f req/s vs baseline %8.0f (x%.2f)%s\n",
                  r.backend.c_str(), r.workers, r.clients, r.achieved_qps, base, ratio,
                  ratio < 0.8 ? "  REGRESSION" : "");
      if (ratio < 0.8) regressed = true;
    }
    if (regressed)
      std::cerr << "FAIL: closed-loop achieved QPS dropped >20% vs " << baseline_path << "\n";
  }
  if (mismatch) return 1;
  return regressed ? 3 : 0;
}
