// engine.hpp — the async serving front-end: many callers, one compiled plan.
//
// serve::Engine turns the single-caller exec::Backend contract into a
// many-caller service (cf. marian's background batch assembly and pisa's
// phased async queues). It owns a pool of worker threads, each with its own
// clone() of a prototype backend — independent weight panels, arenas, and
// scratch over the same read-only module graph — and a shared FIFO of
// single-sample requests:
//
//   * submit(sample) enqueues one sample (the plan's input shape without the
//     batch axis) and returns a std::future for its output row;
//     submit(sample, deadline) additionally bounds how long the request may
//     wait in the queue;
//   * workers coalesce requests into batches under two watermarks — dispatch
//     as soon as `max_batch` same-shape requests are queued, or when the
//     oldest pending request has waited `batch_timeout`, whichever first —
//     and one futile-wait rule: a partial batch goes early once the next
//     arrival is expected only after the head's deadline (below);
//   * a batch is gathered with tensor::stack_samples, run through the
//     worker's own backend, and scattered back with tensor::extract_sample —
//     each row is COPIED into its future before the worker's next run(), per
//     the Backend output contract;
//   * shutdown() (and the destructor) stops accepting, drains every pending
//     request to completion, and joins the workers — no lost futures.
//
// Correctness bar: because both backends compute every output row in a
// per-sample deterministic order (GEMM rows, conv per-image loops, and
// elementwise ops never mix batch rows), a batched answer is bit-identical
// to running the same sample alone through the same backend — whatever
// batch its neighbors landed in. serve.engine locks this in.
//
// Batching only coalesces requests whose sample shapes match. The head of
// the FIFO anchors dispatch: its shape selects the contiguous same-shape
// prefix and its arrival time the deadline, so no request ever waits past
// its own batch_timeout. One relief valve avoids head-of-line blocking: when
// the head's shape has NOT yet filled a batch but a full max_batch of some
// later shape is already queued behind it, that full batch dispatches
// immediately (first shape to fill wins, tallied in arrival order; the
// remaining queue keeps its relative order). An odd-shaped head therefore
// delays only itself — never a ready batch of the majority shape — and
// still cannot starve, because its time watermark is untouched.
//
// Futile waits: submit() keeps an O(1) estimate of the gap between
// arrivals — the smaller of an EWMA (weight 1/8) and the latest gap, so one
// close pair of arrivals ends a sparse spell's estimate at once. A worker
// dispatches the head's partial batch as soon as now + gap >= head arrival
// + batch_timeout: the next neighbour is expected after the deadline, so
// waiting is expected to add nobody. Before the second arrival there is no
// estimate (a zero gap), which is exactly the plain time watermark; so
// batch_timeout is an upper bound on the wait, and 0 is still greedy. Each
// worker also sets its Linux timer slack to 1 us, so the watermark wakes on
// time instead of up to the default 50 us late.
//
// Observability: every request is stamped at arrival, dequeue, gather-done,
// backend-done and promise-set, and the four phases between them are
// recorded into fixed-size LatencyHistograms in EngineStats, under the lock
// the worker already takes to count completions (no allocation, no new
// lock).
//
// ## Overload and failure containment (the degrade-gracefully layer)
//
//   * Bounded admission: with max_queue > 0, a full queue triggers the
//     configured OverloadPolicy — kReject fails submit() fast with
//     QueueFullError; kBlock applies backpressure (the submitter waits for
//     space, or for shutdown, which throws ShutdownError); kShedOldest
//     drops the oldest pending request (its future fails with ShedError)
//     to admit the new one. A saturated queue also releases the time
//     watermark: workers dispatch without waiting for batch_timeout.
//   * Deadlines: an expired request is failed with DeadlineExceededError at
//     batch-assembly time, before any backend work is spent on it, and is
//     never gathered into a batch — one stale request cannot poison a
//     fresh batch, and an expired odd-shape head stops blocking instantly.
//   * Fault isolation: a batch whose backend run throws is retried by
//     bisection — sub-batches that pass complete their futures normally,
//     and only the isolated poison sample(s) receive the exception. A
//     failed single-sample run is retried once more to absorb transient
//     faults before its future is failed. A worker whose backend throws
//     quarantine_threshold times consecutively (with no intervening
//     successful run) is quarantined: the worker backs off exponentially
//     (rebuild_backoff doubling per rebuild) and its backend is rebuilt
//     from the stored BackendFactory — a poisoned clone cannot degrade the
//     pool forever. All of it is counted in EngineStats and exercised by
//     exec::FaultInjectingBackend in tests/serve/fault_test.cpp and
//     bench_serve --chaos.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/backend.hpp"
#include "serve/errors.hpp"
#include "serve/latency_histogram.hpp"
#include "tensor/tensor.hpp"

namespace pdnn::serve {

/// What submit() does when the queue already holds max_queue requests.
enum class OverloadPolicy {
  kReject,     ///< fail fast: submit() throws QueueFullError
  kBlock,      ///< backpressure: submit() waits for space (or ShutdownError)
  kShedOldest  ///< drop the oldest pending request (its future: ShedError)
};

struct EngineConfig {
  /// Worker threads == backend clones. Each worker runs whole batches, so
  /// workers scale throughput across cores; on a single core they overlap
  /// batch assembly with execution.
  std::size_t workers = 1;
  /// Size watermark: dispatch immediately once this many same-shape requests
  /// are pending (also the gather buffer's steady-state capacity).
  std::size_t max_batch = 8;
  /// Time watermark, an upper bound on the coalescing wait: a partial batch
  /// dispatches once its oldest request has waited this long, or earlier
  /// once the estimated gap to the next arrival says waiting is futile
  /// (the futile-wait rule above). 0 disables coalescing delay (greedy
  /// dispatch).
  std::chrono::microseconds batch_timeout{200};
  /// Admission bound: maximum requests waiting in the queue (in-flight
  /// batches excluded). 0 = unbounded (the pre-overload behavior).
  std::size_t max_queue = 0;
  /// Applied when max_queue > 0 and the queue is full.
  OverloadPolicy overload = OverloadPolicy::kReject;
  /// Consecutive backend throws (no intervening successful run) before a
  /// worker is quarantined and its backend rebuilt. 0 disables quarantine.
  std::size_t quarantine_threshold = 3;
  /// Base backoff slept before a quarantined worker's backend is rebuilt;
  /// doubles per rebuild of that worker (capped at 2^10 x base). The sleep
  /// is interruptible by shutdown().
  std::chrono::milliseconds rebuild_backoff{1};
};

/// Counters for observability and the bench's batch-size histogram. A
/// consistent snapshot under the engine lock.
struct EngineStats {
  std::uint64_t submitted = 0;  ///< requests admitted to the queue
  std::uint64_t completed = 0;  ///< futures fulfilled (exceptions included)
  std::uint64_t batches = 0;
  std::uint64_t rejected = 0;          ///< submit() failed fast (kReject)
  std::uint64_t shed = 0;              ///< oldest-pending drops (kShedOldest)
  std::uint64_t deadline_expired = 0;  ///< failed at assembly, never ran
  std::uint64_t retries = 0;           ///< backend re-runs after a failed run
  std::uint64_t quarantines = 0;       ///< workers taken out for rebuild
  std::uint64_t rebuilds = 0;          ///< backends rebuilt from the factory
  /// Partial batches dispatched by the futile-wait rule, before their head
  /// had waited batch_timeout.
  std::uint64_t early_dispatches = 0;
  /// batch_hist[s] = batches dispatched with exactly s samples
  /// (index 0 unused; size max_batch + 1).
  std::vector<std::uint64_t> batch_hist;
  /// Per-request phase latencies of every request a worker dequeued into a
  /// batch (so each count is completed - shed - deadline_expired). A
  /// retried request's gather/run/copy-out stamps are its last attempt's.
  LatencyHistogram queue_wait;  ///< arrival -> dequeued into a batch
  LatencyHistogram gather;      ///< dequeue -> batch gathered (stack_samples)
  LatencyHistogram run;         ///< gathered -> backend run returned
  LatencyHistogram copy_out;    ///< run returned -> row copied, promise set
};

class Engine {
 public:
  using BackendFactory = std::function<std::unique_ptr<exec::Backend>()>;
  using Clock = std::chrono::steady_clock;

  /// Pool built by calling `factory` once per worker. The factory is stored:
  /// quarantine rebuilds call it again, so it must stay valid (and safe to
  /// call from a worker thread, serialized by the engine) for the engine's
  /// lifetime.
  Engine(const BackendFactory& factory, const EngineConfig& cfg);
  /// Pool built by clone()ing `prototype` once per worker. The engine keeps
  /// its own pristine clone as the rebuild source, so the prototype itself
  /// may go out of scope after construction.
  Engine(const exec::Backend& prototype, const EngineConfig& cfg);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Drains pending requests (shutdown()) before destruction.
  ~Engine();

  /// Enqueue one sample — the plan input without its batch axis (rank 1..3,
  /// non-empty) — and return the future for its output row. Thread-safe.
  /// Throws std::invalid_argument on a degenerate sample, ShutdownError
  /// after shutdown(), and QueueFullError when the queue is full under
  /// OverloadPolicy::kReject. The future resolves to the output copied out
  /// of the worker backend, or to the exception the backend threw for this
  /// sample (its healthy batch neighbors are unaffected — see the
  /// bisection-retry notes above), or to ShedError / DeadlineExceededError
  /// when the engine dropped the request before it ran.
  std::future<tensor::Tensor> submit(tensor::Tensor sample);
  /// As submit(sample), with a queue-residency bound: if `deadline` passes
  /// while the request is still waiting, its future fails with
  /// DeadlineExceededError and no backend work is spent on it.
  std::future<tensor::Tensor> submit(tensor::Tensor sample, Clock::time_point deadline);
  /// Convenience: deadline = now + budget.
  std::future<tensor::Tensor> submit(tensor::Tensor sample, std::chrono::microseconds budget);

  /// Stop accepting, wake any blocked submitters (they throw ShutdownError),
  /// drain every pending request to completion, join the workers.
  /// Idempotent and safe to call concurrently; called by the destructor.
  void shutdown();

  EngineStats stats() const;
  std::size_t workers() const { return backends_.size(); }
  const EngineConfig& config() const { return cfg_; }

 private:
  struct Request {
    tensor::Tensor sample;
    std::promise<tensor::Tensor> promise;
    Clock::time_point arrival;
    Clock::time_point deadline;  ///< time_point::max() = none
    // Phase stamps, set by the worker that dequeues the request.
    Clock::time_point dequeued, gathered, ran, resolved;
  };

  std::future<tensor::Tensor> submit_impl(tensor::Tensor sample, Clock::time_point deadline);
  /// Fold one admitted arrival into the inter-arrival gap estimate. Caller
  /// holds mu_.
  void note_arrival(Clock::time_point arrival);
  void worker_loop(std::size_t worker);
  /// Length of the contiguous same-shape prefix of the queue, capped at
  /// max_batch. Caller holds mu_.
  std::size_t batchable_prefix() const;
  /// Head-of-line relief: scan the whole queue tallying shapes in arrival
  /// order; if some shape has max_batch requests pending, fill `picks` with
  /// the queue indices of its first max_batch requests and return true.
  /// Caller holds mu_.
  bool scan_full_batch(std::vector<std::size_t>& picks) const;
  /// Move every request whose deadline has passed into `expired` (queue
  /// order preserved). Caller holds mu_.
  void reap_expired(Clock::time_point now, std::vector<Request>& expired);
  /// Earliest request deadline in the queue (time_point::max() if none).
  /// Caller holds mu_.
  Clock::time_point earliest_deadline() const;

  /// Run reqs[lo,hi) through `backend` and fulfil their promises. Returns
  /// true on success; on failure stores the exception in `err`. Never
  /// throws.
  bool try_run(exec::Backend& backend, std::vector<Request>& reqs, std::size_t lo,
               std::size_t hi, tensor::Tensor& batch, std::vector<const tensor::Tensor*>& gather,
               std::exception_ptr& err);
  /// Bisection fault isolation: run reqs[lo,hi); on failure split and retry
  /// each half (a singleton is retried once, then failed with the backend's
  /// exception). `retries` counts backend re-runs; `consecutive` tracks
  /// throws since the worker's last successful run (reset to 0 on success).
  void run_span(exec::Backend& backend, std::vector<Request>& reqs, std::size_t lo,
                std::size_t hi, tensor::Tensor& batch,
                std::vector<const tensor::Tensor*>& gather, std::uint64_t& retries,
                std::size_t& consecutive);
  /// Back off (exponential in this worker's rebuild count, interruptible by
  /// shutdown) and rebuild backends_[worker] from the stored factory. A
  /// factory failure keeps the old backend so the queue still drains.
  void quarantine_and_rebuild(std::size_t worker, std::size_t& worker_rebuilds);

  EngineConfig cfg_;
  BackendFactory factory_;  ///< stored for quarantine rebuilds
  std::vector<std::unique_ptr<exec::Backend>> backends_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool accepting_ = true;
  bool stopping_ = false;
  EngineStats stats_;
  // Inter-arrival gap estimate (guarded by mu_). gap_ stays zero — the plain
  // time watermark — until the second admitted arrival.
  Clock::time_point last_arrival_{};
  Clock::duration gap_ewma_{0};
  Clock::duration gap_{0};  ///< min(gap_ewma_, latest gap)

  /// Serializes quarantine rebuild factory calls (a prototype-clone factory
  /// shares one pristine backend; clone() on it must not race itself).
  std::mutex rebuild_mu_;
  /// Serializes the join loop: shutdown() is safe to call concurrently
  /// (destructor racing an explicit shutdown), and std::thread::join from
  /// two threads at once is not.
  std::mutex join_mu_;
};

}  // namespace pdnn::serve
