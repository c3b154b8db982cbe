// common.hpp — shared pieces of the perfbench sections: command line, clock,
// order statistics, bit comparison, the span log and the one-line JSON result
// every section prints.
//
// A section measures one slice of the library from the outside, through the
// public APIs only (train::Trainer, serve::Engine, exec::FloatBackend,
// quant::PositSession, nn/data for set-up). perfbench/run.py starts one
// process per section with its OpenMP team pinned in the environment and
// merges the result lines.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/plan.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string section;
  std::uint64_t seed = 1;
  double seconds = 10.0;    ///< measurement budget of this section
  bool trace = false;
  std::size_t workers = 1;  ///< trainer / engine worker threads
  int team = 1;             ///< OpenMP team the section expects (OMP_NUM_THREADS)
  std::size_t windows = 1;  ///< measurement windows, each started by "go" on stdin when > 1
  std::string trace_path;   ///< where the span log goes (trace runs only)
};

/// Waits for the start of the next measurement window. With one window it
/// returns at once; with more it prints "perfbench-window-ready" and blocks
/// until stdin sends "go", so the caller can spread the windows over time.
/// False when stdin closes or sends anything else.
bool await_window(const Args& a);

/// What a section reports from its windows' rates: the quantile 1.0, the
/// best window; latencies use 1 - kWindowQuantile. Each window's value is
/// itself a median over many operations. On a shared virtual machine the
/// host has slow spells of seconds to tens of seconds that cost up to 40 %
/// of the speed and can cover all but one or two windows of a run, so any
/// lower quantile measured the host. A window outside the spells reads the
/// speed of the code, which is what a change to it moves.
constexpr double kWindowQuantile = 1.0;

/// A JSON list of numbers, for metadata.
std::string json_list(const std::vector<double>& v);

/// Set-up repetitions per section; setup_s is their median.
constexpr int kSetupReps = 3;

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty. Takes a copy so callers keep their order.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

bool bits_equal(const pdnn::tensor::Tensor& a, const pdnn::tensor::Tensor& b);
bool bits_equal(const float* a, const float* b, std::size_t n);

/// FNV-1a over raw bytes — the printed parameter digest.
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = 1469598103934665603ULL);

/// Multiply-accumulates of one plan run at input shape `in`, from the step
/// geometry: conv and linear steps only. `backward` (training plans) counts
/// dW for every such step and dX where the plan propagates past it.
struct PlanMacs {
  double forward = 0.0;
  double backward = 0.0;
};
PlanMacs plan_macs(const pdnn::exec::ExecPlan& plan, const pdnn::tensor::Shape& in);

/// One traced interval: a layer boundary crossed by the benchmark. `parent`
/// is the index of the enclosing span (-1 for a root); `id` ties the spans of
/// one request (or step, or batch) together.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  long parent = -1;
  long long id = -1;
};

/// In-memory span log, written out once when the section ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  long add(std::string name, Clock::time_point a, Clock::time_point b, long parent = -1,
           long long id = -1);
  /// JSON lines, one span per line. Returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The line a section prints last: correctness, operation counts, set-up
/// time, metrics by name with unit, and free-form metadata.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void meta(const std::string& key, const std::string& json_value) { meta_[key] = json_value; }
  void meta_str(const std::string& key, const std::string& s);
  void meta_num(const std::string& key, double v);
  /// Count one operation; a failed one also makes the result incorrect.
  void attempt(bool ok, const char* what = nullptr);
  void attempt_many(std::uint64_t n) { attempted_ += n; }
  void fail_many(std::uint64_t n, const char* what);
  bool correct() const { return failed_ == 0; }
  void set_setup_s(double s) { setup_s_ = s; }
  void print(const std::string& section) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> meta_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double setup_s_ = 0.0;
};

/// Host and build facts recorded with every result.
void record_host_meta(Result& r, const Args& a);

void run_train(const Args& a, Result& r);
void run_serve(const Args& a, Result& r);
void run_infer(const Args& a, Result& r);

}  // namespace perfbench
