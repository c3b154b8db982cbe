// engine_test.cpp — serve::Engine concurrency and correctness: batched
// answers bit-identical to solo runs (float and posit backends, 1/2/4
// workers, many client threads), batch assembly under the size/timeout
// watermarks and the futile-wait rule, drain-on-shutdown with pending
// requests, N = 0 teardown, failed-batch exception routing, and the Backend
// output contract (stale-read guard, clone independence).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "quant/posit_session.hpp"
#include "serve/engine.hpp"
#include "support/bits.hpp"
#include "tensor/ops.hpp"

namespace pdnn::serve {
namespace {

using test_support::bit_identical;
using test_support::solo_run;
using exec::Backend;
using exec::FloatBackend;
using tensor::Rng;
using tensor::Tensor;

/// N client threads push `per_client` samples each through `engine`; every
/// future must come back bit-identical to the solo reference.
void stress_bit_identity(Engine& engine, Backend& reference, const std::vector<Tensor>& samples,
                         std::size_t clients) {
  std::vector<Tensor> want(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) want[i] = solo_run(reference, samples[i]);

  std::vector<std::vector<std::future<Tensor>>> futures(clients);
  std::vector<std::thread> threads;
  const std::size_t per_client = samples.size();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      futures[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) futures[c].push_back(engine.submit(samples[i]));
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t i = 0; i < per_client; ++i) {
      EXPECT_TRUE(bit_identical(futures[c][i].get(), want[i]))
          << "client " << c << " sample " << i;
    }
  }
}

TEST(ServeEngine, FloatBatchedBitIdenticalToSoloAcrossWorkerCounts) {
  Rng rng(301);
  auto net = nn::mlp(6, 12, 3, 2, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  std::vector<Tensor> samples;
  for (int i = 0; i < 24; ++i) samples.push_back(Tensor::randn({6}, rng));

  for (const std::size_t workers : {1u, 2u, 4u}) {
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.max_batch = 5;
    cfg.batch_timeout = std::chrono::microseconds(200);
    Engine engine(proto, cfg);
    stress_bit_identity(engine, proto, samples, /*clients=*/4);
    engine.shutdown();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.submitted, samples.size() * 4);
    EXPECT_EQ(stats.completed, stats.submitted);
    std::uint64_t hist_total = 0;
    for (std::size_t s = 0; s < stats.batch_hist.size(); ++s) {
      EXPECT_LE(s, cfg.max_batch);  // size watermark: no oversized batches
      hist_total += stats.batch_hist[s] * s;
    }
    EXPECT_EQ(hist_total, stats.completed);
  }
}

TEST(ServeEngine, CnnRankThreeSamplesBitIdenticalToSolo) {
  Rng rng(307);
  auto net = nn::plain_cnn(4, 10, rng);
  const Tensor warm = Tensor::randn({2, 3, 8, 8}, rng);
  net->forward(warm, /*training=*/true);  // settle BN running stats
  FloatBackend proto = FloatBackend::compile(*net);
  std::vector<Tensor> samples;
  for (int i = 0; i < 6; ++i) samples.push_back(Tensor::randn({3, 8, 8}, rng));

  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  Engine engine(proto, cfg);
  stress_bit_identity(engine, proto, samples, /*clients=*/2);
}

TEST(ServeEngine, PositBackendBatchedBitIdenticalToSolo) {
  Rng rng(311);
  auto net = nn::mlp(6, 10, 3, 1, rng);
  quant::SessionConfig scfg;
  scfg.spec = {8, 1};
  scfg.mode = quant::AccumMode::kSerial;  // the MulLut/AddLut hot path
  auto proto = quant::PositSession::compile_backend(*net, scfg);
  std::vector<Tensor> samples;
  for (int i = 0; i < 8; ++i) samples.push_back(Tensor::randn({6}, rng));

  for (const std::size_t workers : {1u, 2u, 4u}) {
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.max_batch = 3;
    Engine engine(*proto, cfg);
    stress_bit_identity(engine, *proto, samples, /*clients=*/2);
  }
}

TEST(ServeEngine, SizeWatermarkDispatchesFullBatchBeforeTimeout) {
  Rng rng(313);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.batch_timeout = std::chrono::seconds(30);  // timeout may never be the trigger
  Engine engine(proto, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(engine.submit(Tensor::randn({4}, rng)));
  for (auto& f : futures) f.get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10));  // full batch went at the size watermark

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batch_hist[4], 1u);
}

TEST(ServeEngine, TimeoutWatermarkDispatchesPartialBatch) {
  Rng rng(317);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;  // never fills
  cfg.batch_timeout = std::chrono::milliseconds(20);
  Engine engine(proto, cfg);

  auto f = engine.submit(Tensor::randn({4}, rng));
  EXPECT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  f.get();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batch_hist[1], 1u);
}

// Futile-wait rule: with arrivals spaced wider than batch_timeout, the gap
// estimate says no neighbour can arrive before the head's deadline, so
// every partial batch after the second arrival dispatches early. Counted,
// not timed, so sanitizer slowdowns cannot flake it.
TEST(ServeEngine, SparseTrafficDispatchesEarly) {
  Rng rng(383);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.batch_timeout = std::chrono::milliseconds(20);
  Engine engine(proto, cfg);

  constexpr std::uint64_t kRequests = 8;
  const Tensor sample = Tensor::randn({4}, rng);
  const Tensor want = solo_run(proto, sample);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    if (i != 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_TRUE(bit_identical(engine.submit(sample).get(), want)) << "request " << i;
  }
  engine.shutdown();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batch_hist[1], kRequests);
  // The first request has no gap estimate and waits out the timeout; the
  // rest go early (one spare for a worker that wakes past its deadline).
  EXPECT_GE(stats.early_dispatches, kRequests - 2);
  EXPECT_LT(stats.early_dispatches, kRequests);
}

// The estimate follows the latest gap down at once, so a sparse spell does
// not cost the dense burst after it its full batches. The sparse gaps are 8x
// batch_timeout: an EWMA alone would take ~16 close arrivals to fall back
// under the timeout and would send this whole burst out as singletons.
TEST(ServeEngine, DenseBurstAfterSparseSpellFormsFullBatches) {
  Rng rng(389);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.batch_timeout = std::chrono::milliseconds(50);
  Engine engine(proto, cfg);

  const Tensor sample = Tensor::randn({4}, rng);
  const Tensor want = solo_run(proto, sample);
  for (int i = 0; i < 3; ++i) {  // the sparse spell
    if (i != 0) std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_TRUE(bit_identical(engine.submit(sample).get(), want));
  }
  ASSERT_GE(engine.stats().early_dispatches, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // Burst, 1 ms apart: the first arrival still comes after a sparse gap and
  // goes alone; the second brings the estimate down, and the rest fill
  // max_batch batches.
  std::vector<std::future<Tensor>> burst;
  for (std::size_t i = 0; i < 3 * cfg.max_batch + 1; ++i) {
    if (i != 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    burst.push_back(engine.submit(sample));
  }
  for (auto& f : burst) EXPECT_TRUE(bit_identical(f.get(), want));
  engine.shutdown();
  EXPECT_GE(engine.stats().batch_hist[cfg.max_batch], 2u);
}

// No estimate before the second arrival: a cold engine's first request
// waits out batch_timeout exactly as the plain time watermark does.
TEST(ServeEngine, ColdEngineFirstRequestWaitsOutTimeout) {
  Rng rng(397);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.batch_timeout = std::chrono::milliseconds(20);
  Engine engine(proto, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  auto f = engine.submit(Tensor::randn({4}, rng));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, cfg.batch_timeout);
  f.get();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batch_hist[1], 1u);
  EXPECT_EQ(stats.early_dispatches, 0u);
}

TEST(ServeEngine, HeadOfLineBlockedQueueDispatchesLaterFullBatch) {
  Rng rng(379);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 3;
  cfg.batch_timeout = std::chrono::seconds(30);  // the head's deadline is far away
  Engine engine(proto, cfg);

  // An odd-shaped request parks at the head: its batchable prefix can never
  // fill. A full batch of the serving shape queues behind it.
  auto head = engine.submit(Tensor::randn({5}, rng));
  const Tensor sample = Tensor::randn({4}, rng);
  const Tensor want = solo_run(proto, sample);
  std::vector<std::future<Tensor>> good;
  for (int i = 0; i < 3; ++i) good.push_back(engine.submit(sample));

  // Relief valve: the full later-shape batch dispatches out of the middle
  // long before the head's timeout (a FIFO-only engine would sit on all
  // three until the head's 30 s deadline).
  for (auto& f : good) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    EXPECT_TRUE(bit_identical(f.get(), want));
  }
  EXPECT_EQ(engine.stats().batch_hist[3], 1u);
  // The head kept its place and its deadline: still pending, never dropped.
  EXPECT_EQ(head.wait_for(std::chrono::milliseconds(0)), std::future_status::timeout);

  engine.shutdown();  // drain dispatches the head; its shape fails its own batch
  EXPECT_THROW(head.get(), std::invalid_argument);
}

TEST(ServeEngine, ShutdownDrainsPendingRequestsWithoutLostFutures) {
  Rng rng(331);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.batch_timeout = std::chrono::seconds(30);  // drain must not wait for this
  Engine engine(proto, cfg);

  std::vector<Tensor> samples;
  std::vector<Tensor> want;
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 10; ++i) {
    samples.push_back(Tensor::randn({4}, rng));
    want.push_back(solo_run(proto, samples.back()));
    futures.push_back(engine.submit(samples.back()));
  }
  engine.shutdown();  // pending partial batches must drain, not deadlock
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(bit_identical(futures[i].get(), want[i])) << "sample " << i;
  }
  EXPECT_EQ(engine.stats().completed, futures.size());
}

TEST(ServeEngine, NoRequestsShutsDownCleanly) {
  Rng rng(337);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  for (const std::size_t workers : {1u, 4u}) {
    EngineConfig cfg;
    cfg.workers = workers;
    Engine engine(proto, cfg);
    // Destructor must join idle workers without a single submit.
  }
}

TEST(ServeEngine, SubmitAfterShutdownThrows) {
  Rng rng(347);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  Engine engine(proto, EngineConfig{});
  engine.shutdown();
  // The typed error (serve::ShutdownError) still derives from
  // std::runtime_error; old catch sites keep working.
  EXPECT_THROW(engine.submit(Tensor::randn({4}, rng)), ShutdownError);
  EXPECT_THROW(engine.submit(Tensor::randn({4}, rng)), std::runtime_error);
}

TEST(ServeEngine, DegenerateSubmitThrows) {
  Rng rng(349);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  Engine engine(proto, EngineConfig{});
  EXPECT_THROW(engine.submit(Tensor()), std::invalid_argument);
  EXPECT_THROW(engine.submit(Tensor::randn({1, 2, 2, 2}, rng)), std::invalid_argument);
}

TEST(ServeEngine, BadShapeFailsItsOwnBatchOnly) {
  Rng rng(353);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend proto = FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_timeout = std::chrono::milliseconds(5);
  Engine engine(proto, cfg);

  const Tensor good_sample = Tensor::randn({4}, rng);
  const Tensor want = solo_run(proto, good_sample);
  // Wrong-width samples batch separately (shape-pure batches), so their
  // plan-shape mismatch fails only their own futures.
  auto good1 = engine.submit(good_sample);
  auto bad = engine.submit(Tensor::randn({5}, rng));
  auto good2 = engine.submit(good_sample);
  EXPECT_TRUE(bit_identical(good1.get(), want));
  EXPECT_THROW(bad.get(), std::invalid_argument);
  EXPECT_TRUE(bit_identical(good2.get(), want));
}

// ---------------------------------------------------------------------------
// The Backend output contract (backend.hpp): run() returns into backend-owned
// storage that the next run() overwrites.
// ---------------------------------------------------------------------------

TEST(BackendContract, StaleCheckedOutputThrowsAfterNextRun) {
  Rng rng(359);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend backend = FloatBackend::compile(*net);
  const Tensor x = Tensor::randn({2, 4}, rng);

  exec::Backend::Output out = backend.run_checked(x);
  const Tensor copy = out.get();  // fresh: readable
  EXPECT_TRUE(bit_identical(copy, out.get()));

  backend.run(x);  // overwrites the buffer out points into
  EXPECT_THROW(out.get(), std::logic_error);
}

TEST(BackendContract, RunGenerationCountsRuns) {
  Rng rng(367);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend backend = FloatBackend::compile(*net);
  const Tensor x = Tensor::randn({1, 4}, rng);
  const std::uint64_t g0 = backend.run_generation();
  backend.run(x);
  backend.run(x);
  EXPECT_EQ(backend.run_generation(), g0 + 2);
}

TEST(BackendContract, CloneIsIndependentState) {
  Rng rng(373);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  FloatBackend backend = FloatBackend::compile(*net);
  const Tensor xa = Tensor::randn({1, 4}, rng);
  const Tensor xb = Tensor::randn({1, 4}, rng);
  const Tensor want_a = backend.run(xa);  // copy

  auto twin = backend.clone();
  // The clone's runs must not disturb an output held on the original.
  exec::Backend::Output held = backend.run_checked(xa);
  twin->run(xb);
  twin->run(xb);
  EXPECT_TRUE(bit_identical(held.get(), want_a));
  // And the clone computes the same plan: bit-identical on equal input.
  EXPECT_TRUE(bit_identical(twin->run(xa), want_a));
}

}  // namespace
}  // namespace pdnn::serve
