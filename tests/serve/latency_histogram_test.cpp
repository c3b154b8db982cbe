// latency_histogram_test.cpp — serve::LatencyHistogram, the engine's
// per-phase latency record: recording never allocates, quantiles are
// bucket-accurate on a known input, and after a drain every phase histogram
// in EngineStats has counted each completed request exactly once.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "serve/engine.hpp"
#include "serve/latency_histogram.hpp"
#include "support/heap_counter.hpp"

namespace pdnn::serve {
namespace {

using std::chrono::nanoseconds;
using test_support::g_heap_allocs;

TEST(LatencyHistogram, RecordingAllocatesNothing) {
  LatencyHistogram hist;
  const std::uint64_t before = g_heap_allocs.load();
  for (std::int64_t i = 0; i < 100000; ++i) hist.record(nanoseconds(i * 997));
  hist.record(nanoseconds(-1));        // counts as zero
  hist.record(std::chrono::hours(1));  // past the top bucket: clamps
  EXPECT_EQ(g_heap_allocs.load(), before);
  EXPECT_EQ(hist.count(), 100002u);
}

TEST(LatencyHistogram, QuantilesAreBucketAccurate) {
  LatencyHistogram hist;
  for (std::int64_t us = 1; us <= 1000; ++us) hist.record(std::chrono::microseconds(us));
  // The upper edge of the bucket holding the true quantile: never below it,
  // and above it by at most one bucket width (1/16 of the bucket's floor).
  const auto within = [](nanoseconds got, std::int64_t true_ns) {
    return got.count() >= true_ns && got.count() <= true_ns + true_ns / 16;
  };
  EXPECT_TRUE(within(hist.quantile(0.50), 500000)) << hist.quantile(0.50).count();
  EXPECT_TRUE(within(hist.quantile(0.99), 990000)) << hist.quantile(0.99).count();
  EXPECT_TRUE(within(hist.quantile(1.0), 1000000)) << hist.quantile(1.0).count();
  EXPECT_EQ(hist.quantile(0.50).count(), 507903);  // bucket [491520, 507903]

  LatencyHistogram small;  // below 16 ns every value has its own bucket
  for (std::int64_t ns = 0; ns < 16; ++ns) small.record(nanoseconds(ns));
  EXPECT_EQ(small.quantile(0.5).count(), 7);
  EXPECT_EQ(small.quantile(1.0).count(), 15);
  EXPECT_EQ(LatencyHistogram().quantile(0.5).count(), 0);

  // Bucket edges tile the range: each bucket starts one past the last one's
  // upper edge.
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t hi = LatencyHistogram::upper_edge(i);
    ASSERT_EQ(LatencyHistogram::bucket_of(hi), i);
    ASSERT_EQ(LatencyHistogram::bucket_of(hi + 1), i + 1);
  }
}

TEST(LatencyHistogram, EnginePhaseCountsMatchCompletedAfterDrain) {
  tensor::Rng rng(401);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  exec::FloatBackend proto = exec::FloatBackend::compile(*net);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.batch_timeout = std::chrono::microseconds(200);
  Engine engine(proto, cfg);

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&engine, c] {
      tensor::Rng local(500 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < 40; ++i) engine.submit(tensor::Tensor::randn({4}, local)).get();
    });
  }
  for (auto& t : clients) t.join();
  std::vector<std::future<tensor::Tensor>> pending;
  for (int i = 0; i < 10; ++i) pending.push_back(engine.submit(tensor::Tensor::randn({4}, rng)));
  engine.shutdown();
  for (auto& f : pending) f.get();

  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.completed, 130u);
  EXPECT_EQ(stats.queue_wait.count(), stats.completed);
  EXPECT_EQ(stats.gather.count(), stats.completed);
  EXPECT_EQ(stats.run.count(), stats.completed);
  EXPECT_EQ(stats.copy_out.count(), stats.completed);
  EXPECT_GT(stats.run.quantile(0.5).count(), 0);  // a backend run takes time
  EXPECT_LE(stats.early_dispatches, stats.batches);
}

}  // namespace
}  // namespace pdnn::serve
