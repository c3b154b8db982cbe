// perfbench — one section of the repository benchmark per process.
//
//   perfbench <train|serve|infer> --seed N --seconds S --trace 0|1
//             --workers W --team T [--windows N] [--trace-path FILE]
//
// Prints progress on stderr and, as its last stdout line, one JSON object:
// {"section", "correct", "attempted", "failed", "setup_s", "metrics", "meta"}.
// Exit codes: 0 ok; 1 a correctness gate failed; 2 bad usage.
// perfbench/run.py is the entry point: it builds this binary, pins
// OMP_NUM_THREADS to --team, and merges the three sections.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

int usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench <train|serve|infer> --seed N --seconds S --trace 0|1 "
               "--workers W --team T [--windows N] [--trace-path FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Args;
  if (argc < 2) return usage("missing section");
  Args a;
  a.section = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else if (k == "--workers") {
      a.workers = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--team") {
      a.team = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--windows") {
      a.windows = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--trace-path") {
      a.trace_path = v;
      continue;
    } else {
      return usage("unknown option " + k);
    }
    if (end == nullptr || *end != '\0') return usage("bad value for " + k);
  }
  if (!(a.seconds > 0.0) || a.workers == 0 || a.team <= 0 || a.windows == 0) {
    return usage("--seconds, --workers, --team and --windows must be positive");
  }
  if (a.windows > 1 && a.trace) return usage("--windows is for untraced runs");
#ifdef _OPENMP
  if (omp_get_max_threads() != a.team) {
    return usage("OpenMP team is " + std::to_string(omp_get_max_threads()) + ", expected " +
                 std::to_string(a.team) + " (set OMP_NUM_THREADS)");
  }
#endif

  void (*run)(const Args&, perfbench::Result&) = nullptr;
  if (a.section == "train") {
    run = perfbench::run_train;
  } else if (a.section == "serve") {
    run = perfbench::run_serve;
  } else if (a.section == "infer") {
    run = perfbench::run_infer;
  } else {
    return usage("unknown section " + a.section);
  }

  perfbench::Result r;
  perfbench::record_host_meta(r, a);
  try {
    run(a, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.section << " threw: " << e.what() << "\n";
    r.fail_many(1, "uncaught exception");
  }
  r.print(a.section);
  return r.correct() ? 0 : 1;
}
