#!/usr/bin/env python3
"""Repository benchmark: compiled ResNet-8 training, open-loop serving and
posit(16,1) inference, measured through the library's public API.

    python3 perfbench/run.py --workload serial|parallel --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (a CMake project over the
repository's own sources) into $CARGO_TARGET_DIR or .bench_build, then runs
three sections in their own processes, with the OpenMP team pinned per
section. Untraced, each process stays up for the whole run and measures in
windows that alternate with those of the other two:

  train  train::Trainer::fit on the synth-Cifar Table III task
  serve  serve::Engine under an open-loop pacer at three offered rates
  infer  quant::PositSession::run at posit(16,1), quire and fma

A workload is a thread layout (see layouts()). --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer split and writes the
span logs under <build dir>/perfbench-trace/. The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
holds host/build metadata. Exit 0 when every correctness gate passed,
1 when one failed, 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SECTIONS = ("train", "serve", "infer")
# Share of --seconds each section measures for. train also runs one whole
# 14-epoch fit for final_test_acc before its windows, outside this budget.
BUDGET = {"train": 0.25, "serve": 0.25, "infer": 0.40}
# The host's speed drifts by up to 40 % for seconds to tens of seconds on a
# shared virtual machine. Untraced, every section therefore measures in
# WINDOWS windows interleaved over the whole run (see WindowedSection) and
# reports its best window (kWindowQuantile in common.hpp).
WINDOWS = 10
SECTION_TIMEOUT_S = 170

END_TO_END = [
    "setup_s", "samples_per_s", "final_test_acc",
    "p50_us.low", "p50_us.mid", "p50_us.high", "quire_samples_per_s", "fma_samples_per_s",
]

_CHILDREN = ["conv1", "bn1", "relu1", "stage1.block0", "stage2.block0", "stage3.block0",
             "gap", "fc"]
_MAC_CHILDREN = ["conv1", "stage1.block0", "stage2.block0", "stage3.block0", "fc"]
_RUNGS = ["low", "mid", "high"]
PER_LAYER = (
    ["train.step_ms.p50", "train.step_ms.p90", "train.eval_ms", "exec.train_forward_ms",
     "exec.run_backward_ms", "train.sgd_ms", "train.overhead_ms", "exec.train_gflops",
     "train.arena_bytes"]
    + [f"serve.{m}.{r}" for r in _RUNGS for m in (
        "p90_us", "p99_us", "queue_wait_us.p50", "queue_wait_us.p99", "run_us.p50", "batch_mean",
        "handoff_us.p50", "gen_late_us.p99", "trace_overhead_us.p50")]
    + [f"serve.{c}" for c in ("max_rps_p90_1ms", "invalid_segments", "rejected", "shed",
                              "deadline_expired", "retries", "errors")]
    + [f"posit.module_ms.{m}.{c}" for m in ("quire", "fma") for c in _CHILDREN]
    + [f"posit.mmac_s.{m}.{c}" for m in ("quire", "fma") for c in _MAC_CHILDREN]
    + ["posit.split_overhead_pct.quire", "posit.split_overhead_pct.fma"]
    + ["quant.compile_ms", "quant.panel_bytes", "quant.scratch_bytes", "quant.arena_bytes"]
)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def layouts(nproc):
    """Per-section (workers, OpenMP team) for each workload.

    `parallel` keeps at most nproc // 2 worker threads per section and
    every OpenMP team at 1. On a shared virtual machine a posit GEMM team
    waits at each barrier for whichever thread the host slows down: on a
    4-core VM a team of 2 ran posit(16,1) fma batches 60 % slower for
    40 s at a time while one thread stayed within 5 %, and the run-to-run
    spread of fma samples/s over ten seeds was 0.30. So `infer` runs one
    thread in both workloads. The serve pacer and harvester are two more
    threads, so serve keeps its OpenMP team at 1 too.
    """
    half = max(1, nproc // 2)
    return {
        "serial": {"train": (1, 1), "serve": (1, 1), "infer": (1, 1)},
        # A 50-sample batch at micro-batch 25 has two shards: more trainer
        # workers would idle.
        "parallel": {"train": (min(2, half), 1), "serve": (half, 1), "infer": (1, 1)},
    }


def build(build_dir):
    """Configure (once) and build the perfbench binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no repository sources next to {HERE}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(usable_cpus())], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_section(binary, section, args, workers, team, trace_dir):
    """Runs one section in one go (the traced run) and returns its result."""
    seconds = max(1.0, args.seconds * BUDGET[section])
    cmd = [binary, section, "--seed", str(args.seed), "--seconds", f"{seconds:.3f}",
           "--trace", str(args.trace), "--workers", str(workers), "--team", str(team)]
    if args.trace:
        cmd += ["--trace-path",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-{section}.jsonl")]
    env = dict(os.environ, OMP_NUM_THREADS=str(team), OMP_DYNAMIC="false")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=SECTION_TIMEOUT_S)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError(f"{section}: no result (exit {proc.returncode})")
    res = json.loads(lines[-1])
    res["exit_code"] = proc.returncode
    log(f"{section}: {time.monotonic() - t0:.1f} s, workers {workers}, team {team}, "
        f"exit {proc.returncode}")
    return res


class WindowedSection:
    """A section process that stays up for the whole run and measures in
    windows. It does its set-up and gates once, then runs one window each
    time window() sends "go" on its stdin, and prints its result after the
    last. Slow spells of the host last from seconds to tens of seconds, so
    windows spread between the other sections sample more of them than one
    block of the same length would."""

    READY = "perfbench-window-ready"

    def __init__(self, binary, section, args, workers, team, windows):
        self.section, self.workers, self.team = section, workers, team
        self.left = windows
        seconds = max(1.0, args.seconds * BUDGET[section])
        cmd = [binary, section, "--seed", str(args.seed), "--seconds", f"{seconds:.3f}",
               "--trace", "0", "--workers", str(workers), "--team", str(team),
               "--windows", str(windows)]
        env = dict(os.environ, OMP_NUM_THREADS=str(team), OMP_DYNAMIC="false")
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=sys.stderr, text=True)
        self.timer = threading.Timer(SECTION_TIMEOUT_S, self.proc.kill)
        self.timer.start()
        self.lines = []
        self._await_ready()

    def _await_ready(self):
        for line in iter(self.proc.stdout.readline, ""):
            if line.strip() == self.READY:
                return
            self.lines.append(line)
        raise RuntimeError(f"{self.section}: exited before its next window")

    def window(self):
        """Runs one window; after the last, returns the section's result."""
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        self.left -= 1
        if self.left > 0:
            self._await_ready()
            return None
        self.lines += self.proc.stdout.read().splitlines()
        code = self.proc.wait()
        lines = [ln for ln in self.lines if ln.strip()]
        if not lines:
            raise RuntimeError(f"{self.section}: no result (exit {code})")
        res = json.loads(lines[-1])
        res["exit_code"] = code
        log(f"{self.section}: {time.monotonic() - self.t0:.1f} s over the run, workers "
            f"{self.workers}, team {self.team}, exit {code}")
        return res

    def close(self):
        """Stops the process if it still runs and waits for it."""
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["serial", "parallel"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # section process it is waiting on instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build_dir = os.path.abspath(os.path.join(
        os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    trace_dir = os.path.join(os.path.dirname(build_dir), "perfbench-trace")
    nproc = usable_cpus()
    layout = layouts(nproc)[args.workload]
    sections = {}
    windowed = []
    try:
        binary = build(build_dir)
        if args.trace:
            os.makedirs(trace_dir, exist_ok=True)
            for s in SECTIONS:
                sections[s] = run_section(binary, s, args, *layout[s], trace_dir)
        else:
            # Set-up one section after the other, then windows in turn:
            # train, serve, infer, train, serve, infer, ...
            for s in SECTIONS:
                windowed.append(WindowedSection(binary, s, args, *layout[s], WINDOWS))
            for _ in range(WINDOWS):
                for sec in windowed:
                    res = sec.window()
                    if res is not None:
                        sections[sec.section] = res
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    finally:
        for sec in windowed:
            sec.close()

    metrics = {}
    for res in sections.values():
        metrics.update(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": sum(r["setup_s"] for r in sections.values()),
                              "unit": "s"}
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in wanted if m not in metrics]
    if missing:
        log(f"error: sections did not report {missing}")
        return 2
    correct = all(r["correct"] and r["exit_code"] == 0 for r in sections.values())
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "windows": 1 if args.trace else WINDOWS,
        "layout": {s: {"workers": w, "omp_team": t} for s, (w, t) in layout.items()},
        "sections": {s: r["meta"] for s, r in sections.items()},
        "setup_s": {s: r["setup_s"] for s, r in sections.items()},
    }
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in sections.values()),
        "failed": sum(r["failed"] for r in sections.values()),
        "metrics": {m: metrics[m] for m in wanted},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
