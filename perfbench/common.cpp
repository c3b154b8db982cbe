#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "posit/simd.hpp"
#include "tensor/gemm_kernel.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

bool await_window(const Args& a) {
  if (a.windows <= 1) return true;
  std::cout << "perfbench-window-ready" << std::endl;
  std::string line;
  return std::getline(std::cin, line) && line == "go";
}

std::string json_list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << "]";
  return os.str();
}

bool bits_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool bits_equal(const pdnn::tensor::Tensor& a, const pdnn::tensor::Tensor& b) {
  return a.shape() == b.shape() && bits_equal(a.data(), b.data(), a.numel());
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

PlanMacs plan_macs(const pdnn::exec::ExecPlan& plan, const pdnn::tensor::Shape& in) {
  using pdnn::exec::OpKind;
  std::vector<pdnn::tensor::Shape> shapes(plan.slots.size());
  shapes[static_cast<std::size_t>(plan.input_slot)] = in;
  std::vector<bool> dx(plan.steps.size(), false);
  for (const auto& g : plan.grad_steps) dx[static_cast<std::size_t>(g.fwd_step)] = g.gout0 >= 0;
  PlanMacs m;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const auto& s = plan.steps[i];
    const auto& x = shapes[static_cast<std::size_t>(s.in0)];
    const pdnn::tensor::Shape* skip =
        s.in1 >= 0 ? &shapes[static_cast<std::size_t>(s.in1)] : nullptr;
    const pdnn::tensor::Shape out = pdnn::exec::infer_out_shape(s, x, skip, "perfbench");
    shapes[static_cast<std::size_t>(s.out)] = out;
    if (s.save >= 0) shapes[static_cast<std::size_t>(s.save)] = out;
    double macs = 0.0;
    if (s.op == OpKind::kConv2d) {
      macs = static_cast<double>(out.numel()) * static_cast<double>(s.in_c * s.kernel * s.kernel_w);
    } else if (s.op == OpKind::kLinear) {
      macs = static_cast<double>(out.numel()) * static_cast<double>(s.in_c);
    }
    m.forward += macs;
    if (plan.training()) m.backward += macs * (dx[i] ? 2.0 : 1.0);
  }
  return m;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string cpu_brand() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char text[sizeof(regs) + 1] = {};
  std::memcpy(text, regs, sizeof(regs));
  const std::string s(text);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

}  // namespace

long SpanLog::add(std::string name, Clock::time_point a, Clock::time_point b, long parent,
                  long long id) {
  spans_.push_back(Span{std::move(name), us(a), us(b), parent, id});
  return static_cast<long>(spans_.size()) - 1;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << json_escape(s.name) << "\",\"start_us\":"
        << num(s.start_us) << ",\"end_us\":" << num(s.end_us) << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}\n";
  }
  return out.good();
}

void Result::meta_str(const std::string& key, const std::string& s) {
  meta_[key] = "\"" + json_escape(s) + "\"";
}

void Result::meta_num(const std::string& key, double v) { meta_[key] = num(v); }

void Result::attempt(bool ok, const char* what) {
  ++attempted_;
  if (!ok) fail_many(1, what);
}

void Result::fail_many(std::uint64_t n, const char* what) {
  if (n == 0) return;
  failed_ += n;
  std::cerr << "perfbench: FAILED x" << n << ": " << (what ? what : "operation") << "\n";
}

void Result::print(const std::string& section) const {
  std::ostringstream os;
  os << "{\"section\": \"" << section << "\", \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"setup_s\": " << num(setup_s_) << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    os << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"value\": " << num(vu.first)
       << ", \"unit\": \"" << json_escape(vu.second) << "\"}";
    first = false;
  }
  os << "}, \"meta\": {";
  first = true;
  for (const auto& [k, v] : meta_) {
    os << (first ? "" : ", ") << "\"" << json_escape(k) << "\": " << v;
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void record_host_meta(Result& r, const Args& a) {
  r.meta_str("cpu", cpu_brand());
  r.meta_num("hardware_threads", std::thread::hardware_concurrency());
  r.meta_str("compiler", __VERSION__);
  r.meta("avx2_gemm", pdnn::tensor::gemm_kernel_vectorized() ? "true" : "false");
  r.meta("avx2_posit", pdnn::posit::simd::enabled() ? "true" : "false");
  const char* no_avx2 = std::getenv("PDNN_NO_AVX2");
  const char* passes = std::getenv("PDNN_PLAN_PASSES");
  r.meta_str("PDNN_NO_AVX2", no_avx2 ? no_avx2 : "");
  r.meta_str("PDNN_PLAN_PASSES", passes ? passes : "");
#ifdef _OPENMP
  r.meta_num("omp_max_threads", omp_get_max_threads());
#else
  r.meta_num("omp_max_threads", 1);
#endif
  r.meta_num("workers", static_cast<double>(a.workers));
  r.meta_num("team", a.team);
  r.meta_num("seed", static_cast<double>(a.seed));
}

}  // namespace perfbench
