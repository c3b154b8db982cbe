#include "serve/engine.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/ops.hpp"

namespace pdnn::serve {

using tensor::Tensor;

Engine::Engine(const BackendFactory& factory, const EngineConfig& cfg)
    : cfg_(cfg), factory_(factory) {
  if (!factory_) throw std::invalid_argument("serve::Engine: BackendFactory is empty");
  if (cfg_.workers == 0) throw std::invalid_argument("serve::Engine: workers must be >= 1");
  if (cfg_.max_batch == 0) throw std::invalid_argument("serve::Engine: max_batch must be >= 1");
  stats_.batch_hist.assign(cfg_.max_batch + 1, 0);
  backends_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    backends_.push_back(factory_());
    if (!backends_.back()) {
      throw std::invalid_argument("serve::Engine: BackendFactory returned null");
    }
  }
  threads_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Engine::Engine(const exec::Backend& prototype, const EngineConfig& cfg)
    : Engine(BackendFactory([spare = std::shared_ptr<exec::Backend>(prototype.clone())] {
               return spare->clone();
             }),
             cfg) {}

Engine::~Engine() { shutdown(); }

std::future<Tensor> Engine::submit(Tensor sample) {
  return submit_impl(std::move(sample), Clock::time_point::max());
}

std::future<Tensor> Engine::submit(Tensor sample, Clock::time_point deadline) {
  return submit_impl(std::move(sample), deadline);
}

std::future<Tensor> Engine::submit(Tensor sample, std::chrono::microseconds budget) {
  return submit_impl(std::move(sample), Clock::now() + budget);
}

std::future<Tensor> Engine::submit_impl(Tensor sample, Clock::time_point deadline) {
  const std::size_t rank = sample.shape().rank();
  if (rank == 0 || rank > 3 || sample.numel() == 0) {
    throw std::invalid_argument("serve::Engine::submit: sample must be rank 1..3 and non-empty, "
                                "got " + sample.shape().to_string());
  }
  Request req;
  req.sample = std::move(sample);
  req.arrival = Clock::now();
  req.deadline = deadline;
  std::future<Tensor> future = req.promise.get_future();

  bool have_victim = false;
  Request victim;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!accepting_) throw ShutdownError("serve::Engine::submit: engine is shut down");
    if (cfg_.max_queue != 0 && queue_.size() >= cfg_.max_queue) {
      switch (cfg_.overload) {
        case OverloadPolicy::kReject:
          ++stats_.rejected;
          throw QueueFullError("serve::Engine::submit: queue full (max_queue = " +
                               std::to_string(cfg_.max_queue) + ", policy kReject)");
        case OverloadPolicy::kBlock:
          // Backpressure: wait for a worker to drain space. shutdown() wakes
          // every blocked submitter (accepting_ flips under mu_ before the
          // notify, so the wakeup cannot be lost) and they fail typed.
          cv_.wait(lock, [this] { return !accepting_ || queue_.size() < cfg_.max_queue; });
          if (!accepting_) {
            throw ShutdownError(
                "serve::Engine::submit: engine shut down while blocked on queue space");
          }
          break;
        case OverloadPolicy::kShedOldest:
          victim = std::move(queue_.front());
          queue_.pop_front();
          have_victim = true;
          ++stats_.shed;
          ++stats_.completed;  // its future resolves (with ShedError) below
          break;
      }
    }
    note_arrival(req.arrival);
    queue_.push_back(std::move(req));
    ++stats_.submitted;
  }
  cv_.notify_all();
  if (have_victim) {
    victim.promise.set_exception(std::make_exception_ptr(ShedError(
        "serve::Engine: request shed to admit a newer arrival (kShedOldest overload)")));
  }
  return future;
}

void Engine::note_arrival(Clock::time_point arrival) {
  // Concurrent submitters stamp arrival before taking mu_, so arrivals can
  // reach here slightly out of order: such a gap counts as zero.
  if (stats_.submitted != 0) {
    const Clock::duration gap = std::max(arrival - last_arrival_, Clock::duration::zero());
    gap_ewma_ = stats_.submitted == 1 ? gap : gap_ewma_ + (gap - gap_ewma_) / 8;
    // The latest gap alone ends a sparse spell: the second arrival of a
    // burst already brings the estimate down, so the burst still batches.
    gap_ = std::min(gap_ewma_, gap);
  }
  last_arrival_ = std::max(last_arrival_, arrival);
}

std::size_t Engine::batchable_prefix() const {
  const tensor::Shape& shape = queue_.front().sample.shape();
  std::size_t count = 0;
  for (const Request& r : queue_) {
    if (r.sample.shape() != shape) break;
    if (++count == cfg_.max_batch) break;
  }
  return count;
}

bool Engine::scan_full_batch(std::vector<std::size_t>& picks) const {
  // Only called when the head's own prefix hasn't filled a batch, so this is
  // the mixed-shape slow path; the common uniform-traffic case never scans.
  // The first shape to reach max_batch wins — tallying in arrival order
  // keeps relief batches FIFO-fair among themselves.
  std::vector<std::pair<const tensor::Shape*, std::vector<std::size_t>>> groups;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const tensor::Shape& shape = queue_[i].sample.shape();
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return *g.first == shape; });
    if (it == groups.end()) {
      groups.emplace_back(&shape, std::vector<std::size_t>{});
      it = std::prev(groups.end());
    }
    it->second.push_back(i);
    if (it->second.size() == cfg_.max_batch) {
      picks = it->second;
      return true;
    }
  }
  return false;
}

void Engine::reap_expired(Clock::time_point now, std::vector<Request>& expired) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline <= now) {
      expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

Engine::Clock::time_point Engine::earliest_deadline() const {
  auto earliest = Clock::time_point::max();
  for (const Request& r : queue_) earliest = std::min(earliest, r.deadline);
  return earliest;
}

bool Engine::try_run(exec::Backend& backend, std::vector<Request>& reqs, std::size_t lo,
                     std::size_t hi, Tensor& batch, std::vector<const Tensor*>& gather,
                     std::exception_ptr& err) {
  gather.clear();
  for (std::size_t i = lo; i < hi; ++i) gather.push_back(&reqs[i].sample);
  try {
    tensor::stack_samples(gather.data(), gather.size(), batch);
    const auto gathered = Clock::now();
    for (std::size_t i = lo; i < hi; ++i) reqs[i].gathered = gathered;
    const Tensor& out = backend.run(batch);
    const auto ran = Clock::now();
    // Copy each row out of the backend-owned buffer before this worker's
    // next run() (the Backend output contract).
    for (std::size_t i = lo; i < hi; ++i) {
      reqs[i].ran = ran;
      Tensor row;
      tensor::extract_sample(out, i - lo, row);
      try {
        reqs[i].promise.set_value(std::move(row));
        reqs[i].resolved = Clock::now();
      } catch (const std::future_error&) {
        // Already satisfied by an earlier partial scatter of a retried span.
      }
    }
    return true;
  } catch (...) {
    const auto failed = Clock::now();
    for (std::size_t i = lo; i < hi; ++i) reqs[i].ran = failed;
    err = std::current_exception();
    return false;
  }
}

void Engine::run_span(exec::Backend& backend, std::vector<Request>& reqs, std::size_t lo,
                      std::size_t hi, Tensor& batch, std::vector<const Tensor*>& gather,
                      std::uint64_t& retries, std::size_t& consecutive) {
  std::exception_ptr err;
  if (try_run(backend, reqs, lo, hi, batch, gather, err)) {
    consecutive = 0;
    return;
  }
  ++consecutive;
  if (hi - lo <= 1) {
    // One more chance absorbs a transient worker fault; a deterministic
    // failure (poison sample, plan-shape mismatch) fails again and the
    // exception goes to exactly this future.
    ++retries;
    if (try_run(backend, reqs, lo, hi, batch, gather, err)) {
      consecutive = 0;
      return;
    }
    ++consecutive;
    try {
      reqs[lo].promise.set_exception(err);
      reqs[lo].resolved = Clock::now();
    } catch (const std::future_error&) {
      // set_value already succeeded for this request; nothing to fail.
    }
    return;
  }
  // Bisect: healthy halves complete normally, the poison half keeps
  // splitting until the culprit stands alone.
  const std::size_t mid = lo + (hi - lo) / 2;
  retries += 2;
  run_span(backend, reqs, lo, mid, batch, gather, retries, consecutive);
  run_span(backend, reqs, mid, hi, batch, gather, retries, consecutive);
}

void Engine::quarantine_and_rebuild(std::size_t worker, std::size_t& worker_rebuilds) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.quarantines;
  }
  // Exponential backoff per rebuild of this worker, interruptible so
  // shutdown() never waits behind a quarantine sleep.
  const auto backoff =
      cfg_.rebuild_backoff * (1ULL << std::min<std::size_t>(worker_rebuilds, 10));
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, backoff, [this] { return stopping_; });
  }
  try {
    std::unique_ptr<exec::Backend> fresh;
    {
      std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
      fresh = factory_();
    }
    if (!fresh) throw std::runtime_error("serve::Engine: BackendFactory returned null");
    backends_[worker] = std::move(fresh);  // only this worker touches its slot
    ++worker_rebuilds;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rebuilds;
  } catch (...) {
    // Keep the old backend: it may yet recover, and the drain path must keep
    // resolving futures (with exceptions if need be) rather than wedge.
  }
}

void Engine::worker_loop(std::size_t worker) {
#ifdef __linux__
  // The default 50 us timer slack lets cv_.wait_until overshoot a 100 us
  // batch watermark by half again; 1 us makes the watermark fire on time.
  // Per-thread, so only the engine's own workers are affected.
  (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
  // Steady-state serving reuses these across batches (grow-only storage).
  Tensor batch;
  std::vector<Request> taken;
  std::vector<Request> expired;
  std::vector<const Tensor*> gather;
  taken.reserve(cfg_.max_batch);
  gather.reserve(cfg_.max_batch);

  std::vector<std::size_t> picks;
  std::size_t consecutive = 0;     // backend throws since the last clean run
  std::size_t worker_rebuilds = 0; // backoff exponent for this worker
  for (;;) {
    taken.clear();
    expired.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      Clock::time_point now;
      for (;;) {
        // Deadline reaping first: an expired request is failed before any
        // assembly decision, so it can neither join a fresh batch nor hold
        // the head slot. Delivery happens outside the lock, then this
        // worker comes straight back for a batch.
        now = Clock::now();
        reap_expired(now, expired);
        if (!expired.empty()) {
          stats_.deadline_expired += expired.size();
          break;
        }
        if (queue_.empty()) {
          if (stopping_) return;
          cv_.wait(lock);
          continue;
        }
        // The head request anchors this batch: its shape selects the
        // batchable prefix, its arrival time the dispatch deadline. Another
        // worker may steal the head while we wait, so every wake recomputes
        // from scratch. A saturated bounded queue releases the time
        // watermark — under admission pressure there is nothing to gain by
        // coalescing longer. Futile wait: once the next arrival is expected
        // after the deadline (now + gap_ >= deadline), waiting is expected
        // to add nobody; with no estimate yet gap_ is zero and this is the
        // plain time watermark.
        const std::size_t n = batchable_prefix();
        const auto batch_deadline = queue_.front().arrival + cfg_.batch_timeout;
        const bool saturated = cfg_.max_queue != 0 && queue_.size() >= cfg_.max_queue;
        const bool forced = n >= cfg_.max_batch || stopping_ || saturated;
        if (forced || now + gap_ >= batch_deadline) {
          if (!forced && now < batch_deadline) ++stats_.early_dispatches;
          for (std::size_t i = 0; i < n; ++i) {
            taken.push_back(std::move(queue_.front()));
            queue_.pop_front();
          }
          break;  // size watermark, drain, saturation, or time watermark
        }
        // Head-of-line relief: the head's shape can't fill a batch yet, but
        // a full batch of a later shape may be ready behind it. Take it out
        // of the middle — the rest of the queue keeps its relative order,
        // and the head keeps its deadline.
        if (queue_.size() > n && scan_full_batch(picks)) {
          for (const std::size_t idx : picks) taken.push_back(std::move(queue_[idx]));
          for (auto it = picks.rbegin(); it != picks.rend(); ++it) {
            queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*it));
          }
          break;
        }
        // Sleep to the nearest of the futile-wait point and the earliest
        // per-request deadline, so expiry is delivered on time even when
        // batch_timeout is far away. A new arrival (which may move gap_)
        // notifies.
        cv_.wait_until(lock, std::min(batch_deadline - gap_, earliest_deadline()));
      }
      if (!taken.empty()) {
        ++stats_.batches;
        ++stats_.batch_hist[taken.size()];
        // `gathered` too, in case no gather of this request ever succeeds.
        for (Request& r : taken) r.dequeued = r.gathered = now;
      }
    }
    // Queue shrank (batch taken or requests reaped): wake blocked kBlock
    // submitters and any worker waiting on the old head.
    cv_.notify_all();

    if (!expired.empty()) {
      const auto err = std::make_exception_ptr(DeadlineExceededError(
          "serve::Engine: request deadline expired while queued (never reached a backend)"));
      for (Request& r : expired) r.promise.set_exception(err);
      std::lock_guard<std::mutex> lock(mu_);
      stats_.completed += expired.size();
      continue;
    }

    std::uint64_t retries = 0;
    run_span(*backends_[worker], taken, 0, taken.size(), batch, gather, retries, consecutive);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.completed += taken.size();
      stats_.retries += retries;
      for (const Request& r : taken) {
        stats_.queue_wait.record(r.dequeued - r.arrival);
        stats_.gather.record(r.gathered - r.dequeued);
        stats_.run.record(r.ran - r.gathered);
        stats_.copy_out.record(r.resolved - r.ran);
      }
    }
    if (cfg_.quarantine_threshold != 0 && consecutive >= cfg_.quarantine_threshold) {
      consecutive = 0;
      quarantine_and_rebuild(worker, worker_rebuilds);
    }
  }
}

void Engine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    stopping_ = true;
  }
  // The flags flipped under mu_, so every cv_ waiter — draining workers,
  // quarantine sleeps, and kBlock-blocked submitters — re-checks them after
  // this notify: no lost wakeup, no future left hanging.
  cv_.notify_all();
  // Serialize the join loop: shutdown() may race itself (explicit call vs
  // destructor, or two owners), and std::thread::join is not.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pdnn::serve
