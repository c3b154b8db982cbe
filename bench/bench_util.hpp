// bench_util.hpp — helpers shared by the perf-tracking benches
// (bench_gemm, bench_posit, bench_serve, bench_train): best-of timing,
// OpenMP thread control, host metadata for every BENCH header, and the
// minimal JSON readback used by --check-regression. The scanners only parse
// the flat one-object-per-line results arrays these benches themselves
// write; a structural change to that format must update every bench through
// this single header.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifdef _OPENMP
#include <omp.h>
#endif

namespace pdnn::benchutil {

template <typename Fn>
double time_best(Fn&& fn, int reps) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

inline void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// The CPU's brand string (cpuid leaves 0x80000002..4); "unknown" off x86.
inline std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
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
  if (b != std::string::npos) return s.substr(b);
#endif
  return "unknown";
}

/// `"host": {...}` for a BENCH header, so numbers recorded on different
/// machines can be told apart: CPU model, hardware threads, compiler, and
/// whether the timed kernels ran their AVX2 path (`avx2`, as the bench's
/// dispatcher reports it; PDNN_NO_AVX2=1 turns it off on AVX2 hosts).
inline std::string host_json(bool avx2) {
  return std::string("\"host\": {\"cpu\": \"") + cpu_brand() +
         "\", \"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + __VERSION__ + "\", \"avx2\": " + (avx2 ? "true" : "false") +
         "}";
}

/// Scan `"key": <number>` inside one serialized result object.
inline bool scan_number(const std::string& obj, const std::string& key, double* out) {
  const auto pos = obj.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  *out = std::strtod(obj.c_str() + pos + key.size() + 3, nullptr);
  return true;
}

/// Scan `"key": "<value>"` inside one serialized result object.
inline std::string scan_string(const std::string& obj, const std::string& key) {
  const auto pos = obj.find("\"" + key + "\": \"");
  if (pos == std::string::npos) return "";
  const auto start = pos + key.size() + 5;
  const auto end = obj.find('"', start);
  return end == std::string::npos ? "" : obj.substr(start, end - start);
}

}  // namespace pdnn::benchutil
