// latency_histogram.hpp — a fixed-size log-linear (HDR-style) histogram of
// durations, the engine's per-phase latency record.
//
// Values are nanoseconds. Below 16 ns every value has its own bucket; above,
// each power of two [2^e, 2^(e+1)) is split into 16 equal sub-buckets, so a
// bucket spans at most 1/16 of its lower edge (quantiles are accurate to
// 6.25 %). Values of 2^36 ns (~69 s) and more land in the last bucket. The
// buckets are a std::array: recording is a bit scan and an increment, never
// an allocation, and copying a snapshot copies ~4 KiB.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pdnn::serve {

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxExp = 36;  ///< values >= 2^kMaxExp ns clamp
  static constexpr std::size_t kBuckets = (kMaxExp - kSubBits + 1) * kSub;

  /// Count one duration; a negative one counts as zero.
  void record(std::chrono::nanoseconds d) {
    const std::int64_t ns = d.count();
    ++buckets_[bucket_of(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++count_;
  }

  std::uint64_t count() const { return count_; }

  /// The q-quantile (0 < q <= 1) as the upper edge of the bucket holding the
  /// ceil(q * count)-th smallest value: never below the true quantile, and
  /// above it by at most one bucket width. Zero when nothing was recorded.
  std::chrono::nanoseconds quantile(double q) const {
    if (count_ == 0) return std::chrono::nanoseconds(0);
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))), 1, count_);
    std::uint64_t seen = 0;
    std::size_t i = 0;
    for (; i + 1 < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) break;
    }
    return std::chrono::nanoseconds(static_cast<std::int64_t>(upper_edge(i)));
  }

  /// Bucket index of a value in nanoseconds.
  static std::size_t bucket_of(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const unsigned e = 63 - static_cast<unsigned>(__builtin_clzll(ns));  // ns >= 16: e >= 4
    if (e >= kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (ns >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
  }

  /// Largest value (ns) that lands in bucket `i`.
  static std::uint64_t upper_edge(std::size_t i) {
    if (i < kSub) return i;
    const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    const std::uint64_t sub = i % kSub;
    return ((kSub + sub + 1) << (e - kSubBits)) - 1;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace pdnn::serve
