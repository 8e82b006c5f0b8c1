"""qndsim benchmark: time qnd jobs end to end, check every output.

    python3 bench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Run from a source checkout; nothing needs to be installed.  Every job is a
fresh interpreter started the way a user starts qnd, ``python -m
qndsim.cli ...`` with src on PYTHONPATH, BLAS pinned to one thread and
QND_THREADS unset.  The jobs of a workload (workloads.py) run one after
another; one pass over them is one sample.  Passes repeat until
``--seconds`` is used up, and every job's CSV is checked against an
independent oracle (oracles.py): the first pass fully, with a self-test
that the check rejects a tampered copy, later passes by comparing bytes
with the first.

Times are scaled to a reference machine speed.  On a shared 2-vCPU host
the same job drifts by up to a third over minutes, so a fixed calibration
kernel (calibrate()) runs in this process before and after every job, and
each job's times are multiplied by CAL_REF_S / (mean of the two).  A run
on a machine as fast as the reference reads plain seconds; the raw wall
times are in the info line.

--trace 0 reports the end-to-end metrics:
  setup_s      median time for a fresh interpreter to import qndsim.cli
  wall_s       median over passes of the summed job wall times
  cpu_s        median over passes of the summed job user+sys CPU
  peak_rss_mb  median over passes of the largest job resident set
  ok_ratio     jobs that exited 0 and passed their check / jobs attempted
--trace 1 alternates untraced passes with passes run through
trace_job.py, which records spans at qndsim's layer entry points, and
reports per-layer metrics from the spans plus the tracing overhead.

The last stdout line is the result JSON; the line before it records the
run's environment and raw samples.  Scratch files live in .bench_work/ and
are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)   # before numpy loads, here and in the jobs

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "qndsim" / "cli.py", oracles.GOLDEN_DIR / "fig2_golden.csv",
            oracles.GOLDEN_DIR / "fig3_golden.csv")
SETUP_SAMPLES = 7
JOB_TIMEOUT_S = 60.0
# median calibrate() time on the reference machine (2-vCPU x86_64 VM)
CAL_REF_S = 0.065


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, interpreter failure)."""


@dataclass
class Sample:
    """One job process.  speed multiplies its times to reference speed."""

    rc: int
    wall: float
    cpu: float
    rss_mb: float
    speed: float = 1.0


_CAL_MATRIX = np.random.default_rng(0).standard_normal((24, 24)) * (1 + 1j)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and the small complex
    matmuls the master equation is made of (about 0.08 s)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(900_000):
        x += i * i
    for _ in range(1800):
        _CAL_MATRIX @ _CAL_MATRIX
    return time.perf_counter() - t0


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    env.pop("QND_THREADS", None)
    return env


class Launcher:
    """The launcher.py process that starts every job (see its docstring).
    It runs in its own process group, so leaving the context early can stop
    it together with the job it is running."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     cwd=ROOT, env=job_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     start_new_session=True)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S if exc[0] is None else 1.0)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        finally:
            self.proc.stdout.close()

    def spawn(self, argv: list, log: Path) -> Sample:
        request = {"argv": [sys.executable, *argv], "log": str(log),
                   "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("launcher exited")
        return Sample(**json.loads(reply))


def timed(launcher: Launcher, argv: list, log: Path, before: float) -> tuple:
    """A job bracketed by calibrations; returns (sample, calibration after)."""
    sample = launcher.spawn(argv, log)
    after = calibrate()
    sample.speed = 2.0 * CAL_REF_S / (before + after)
    return sample, after


def measure_setup(launcher: Launcher, work: Path) -> float:
    """Median import time of qndsim.cli in a fresh interpreter.  The first
    import is discarded: it writes the bytecode cache, which users pay once."""
    log = work / "setup.log"
    if launcher.spawn(["-c", "import qndsim.cli"], log).rc != 0:
        raise BenchError("cannot import qndsim.cli: " + log.read_text()[-400:])
    times, cal = [], calibrate()
    for _ in range(SETUP_SAMPLES):
        sample, cal = timed(launcher, ["-c", "import qndsim.cli"], log, cal)
        times.append(sample.wall * sample.speed)
    return statistics.median(times)


class Runner:
    """Runs passes over one workload's jobs and checks their outputs."""

    def __init__(self, launcher: Launcher, jobs: list, work: Path) -> None:
        self.launcher = launcher
        self.jobs = jobs
        self.work = work
        self.digests: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.cal = calibrate()   # the latest calibration, shared across passes

    def run_pass(self, index: int, traced: bool) -> tuple:
        """Returns (one Sample per job, span files or None)."""
        samples, spans = [], []
        for job in self.jobs:
            out = self.work / f"{job.name}.csv"
            out.unlink(missing_ok=True)
            argv = [str(out) if a == "OUT" else a for a in job.argv]
            if traced:
                span_file = self.work / f"{job.name}.spans.npz"
                argv = ["bench/trace_job.py", str(span_file), f"{job.name}#{index}",
                        "--", *argv]
                spans.append(span_file)
            sample, self.cal = timed(self.launcher, argv, self.work / f"{job.name}.log",
                                     self.cal)
            samples.append(sample)
            self.attempted += 1
            problem = self._verify(job, out, sample)
            if problem:
                self.failures.append(f"pass {index} {job.name}: {problem}")
        return samples, (spans if traced else None)

    def _verify(self, job, out: Path, sample: Sample) -> str:
        if sample.rc != 0:
            log = (self.work / f"{job.name}.log").read_text(errors="replace")
            return f"exit {sample.rc}: {log[-400:]}"
        if not out.is_file():
            return "no output file"
        data = out.read_bytes()
        if job.name in self.digests:
            return "" if data == self.digests[job.name] else "output differs from first pass"
        try:
            table = oracles.read_table(data.decode())
            job.check(table)
            oracles.self_test(job.check, table)
        except (oracles.CheckFailed, ValueError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        self.digests[job.name] = data
        return ""


def layer_metrics(span_files: list, speeds: list) -> dict:
    """Per-layer counts and times for one traced pass, times at reference
    speed.  A span's self time is its duration minus the durations of the
    spans it directly caused.  Spans from fig2's worker threads have no
    parent, and their .s sums busy time over both threads."""
    calls, total, own, counters = {}, {}, {}, {}
    for path, speed in zip(span_files, speeds):
        if not path.is_file():   # the job failed before writing spans
            continue
        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            name, parent = z["name"], z["parent"]
            dur = (z["end"] - z["start"]) * (speed / 1e9)
            counts = json.loads(str(z["counters"]))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        for i, n in enumerate(names):
            mask = name == i
            calls[n] = calls.get(n, 0) + int(mask.sum())
            total[n] = total.get(n, 0.0) + float(dur[mask].sum())
            own[n] = own.get(n, 0.0) + float((dur[mask] - child[mask]).sum())
        for k, v in counts.items():
            counters[k] = counters.get(k, 0) + v

    def c(n):
        return calls.get(n, 0)

    def s(n):
        return total.get(n, 0.0)

    n_apply, apply_s = c("lindblad.apply"), s("lindblad.apply")
    return {
        "core.integrate.calls": c("core.integrate"),
        "core.integrate.s": s("core.integrate"),
        "core.integrate.self_s": own.get("core.integrate", 0.0),
        "core.density_matrix.calls": c("core.density_matrix"),
        "core.density_matrix.s": s("core.density_matrix"),
        "lindblad.build_liouvillian.s": s("lindblad.build_liouvillian"),
        "lindblad.apply.calls": n_apply,
        "lindblad.apply.s": apply_s,
        "lindblad.apply.us_per_call": 1e6 * apply_s / n_apply if n_apply else 0.0,
        "lindblad.apply.gflops": (counters.get("lindblad.apply.flops", 0) / apply_s / 1e9
                                  if apply_s else 0.0),
        "lindblad.evolve.calls": c("lindblad.evolve"),
        "lindblad.evolve.self_s": own.get("lindblad.evolve", 0.0),
        "analytic.outcome_probability.calls": c("analytic.outcome_probability"),
        "analytic.outcome_probability.s": s("analytic.outcome_probability"),
        "analytic.gamma_m.calls": c("analytic.gamma_m"),
        "analytic.gamma_m.s": s("analytic.gamma_m"),
        "backaction.rates.calls": c("backaction.rates"),
        "backaction.rates.s": s("backaction.rates"),
        "backaction.memory_kernel.calls": c("backaction.memory_kernel"),
        "backaction.memory_kernel.s": s("backaction.memory_kernel"),
        "backaction.evolve_reduced.s": s("backaction.evolve_reduced"),
        "cli.parse_config.s": s("cli.parse_config"),
        "cli.run.s": s("cli.run"),
        "cli.emit_csv.s": s("cli.emit_csv"),
        "cli.emit_csv.bytes": counters.get("cli.emit_csv.bytes", 0),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
        caches = {k: int(v) for k, _, v in (ln.partition(" ") for ln in conf.splitlines())
                  if "CACHE_SIZE" in k and v.strip()}
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "caches_bytes": caches,
        "pinned_env": PINNED_ENV,
        "git_commit": commit,
        "cal_ref_s": CAL_REF_S,
        "gflops_note": "lindblad.apply.gflops is computed from matrix shapes "
                       "(8 n^3 flops per complex n x n matmul) over traced apply time",
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    jobs = workloads.build(workload, seed)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    passes = {False: [], True: []}     # traced? -> list of per-job Sample lists
    layers = []
    try:
        with Launcher() as launcher:
            setup_s = measure_setup(launcher, work)
            runner = Runner(launcher, jobs, work)
            start, longest = time.perf_counter(), 0.0
            while True:
                traced = trace and len(passes[False]) > len(passes[True])
                t0 = time.perf_counter()
                samples, spans = runner.run_pass(sum(map(len, passes.values())), traced)
                longest = max(longest, time.perf_counter() - t0)
                passes[traced].append(samples)
                if traced:
                    layers.append(layer_metrics(spans, [s.speed for s in samples]))
                done = passes[True] or not trace
                if done and time.perf_counter() - start + longest > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    def median_sum(which, attr):
        return statistics.median(sum(getattr(s, attr) * s.speed for s in p)
                                 for p in passes[which])

    failures = list(runner.failures)
    if trace:
        counts = [{k: v for k, v in m.items() if k.endswith((".calls", ".bytes"))}
                  for m in layers]
        if any(c != counts[0] for c in counts):
            failures.append(f"counts differ between traced passes: {counts}")
        metrics = {k: counts[0][k] if k in counts[0]
                   else statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = median_sum(True, "wall") - median_sum(False, "wall")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": median_sum(False, "wall"),
            "cpu_s": median_sum(False, "cpu"),
            "peak_rss_mb": statistics.median(max(s.rss_mb for s in p)
                                             for p in passes[False]),
            "ok_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
        }
    info = {"workload": workload, "seed": seed, "trace": int(trace),
            "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
            "raw_job_wall_s": {j.name: [p[k].wall for p in passes[False]]
                               for k, j in enumerate(jobs)},
            "speed": [[s.speed for s in p] for p in passes[False]],
            "failures": failures, "env": environment()}
    result = {"correct": not failures, "attempted": runner.attempted,
              "failed": len(runner.failures)}
    return info, result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a qndsim source checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        info, result, metrics = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in info["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
