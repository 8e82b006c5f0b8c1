"""Run one benchmark job with spans around qndsim's layer entry points.

    PYTHONPATH=src python bench/trace_job.py SPANS.npz JOB_ID -- ARGV...

ARGV is what the untraced job passes to the interpreter: ``-m qndsim.cli
ARGS`` or ``SCRIPT ARGS``.  Before the job starts, the module attributes and
methods in TRACED are replaced by wrappers that record one span each call
(name, start and end in ns, parent span, job id); nothing under src/
changes.  Spans stay in memory and are written to SPANS.npz when the job
ends, with the counters that need call arguments (apply flops, CSV bytes).

The qnd entry point is called as qndsim.cli.main(ARGS) rather than through
runpy, because runpy would execute a second copy of the cli module whose
run_* and emit_csv functions the wrappers could not reach.
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
import threading
import time

import numpy as np

from qndsim import analytic, backaction, cli, core, lindblad

# span name -> (owner, attribute) pairs; the owner is the namespace its
# callers resolve the name in (lindblad and backaction import integrate
# into their own globals, so core.integrate is wrapped there)
TRACED = {
    "core.integrate": [(lindblad, "integrate"), (backaction, "integrate")],
    "core.density_matrix": [(core.DensityMatrix, "__post_init__")],
    "lindblad.build_liouvillian": [(lindblad, "build_liouvillian")],
    "lindblad.apply": [(lindblad.Liouvillian, "apply")],
    "lindblad.evolve": [(lindblad, "evolve")],
    "analytic.outcome_probability": [(analytic, "outcome_probability")],
    "analytic.gamma_m": [(analytic, "gamma_m")],
    "backaction.rates": [(backaction, "rates")],
    "backaction.memory_kernel": [(backaction, "_memory_kernel")],
    "backaction.evolve_reduced": [(backaction, "evolve_reduced")],
    "cli.parse_config": [(cli, "parse_config")],
    "cli.run": [(cli, name) for name in ("run_sweep", "run_fig2", "run_fig3",
                                         "run_lindblad", "run_repeat")],
    "cli.emit_csv": [(cli, "emit_csv")],
}


def _apply_flops(args, _result):
    # complex n x n matmul = 8 n^3 real flops; apply does 2 for [H, rho] and
    # 4 per dissipator; elementwise work is O(n^2) and left out
    liou = args[0]
    n = 2 * liou.space.dim
    return "lindblad.apply.flops", 8.0 * n ** 3 * (2 + 4 * len(liou.dissipators))


def _csv_bytes(_args, result):
    return "cli.emit_csv.bytes", len(result.encode())


COUNTERS = {"lindblad.apply": _apply_flops, "cli.emit_csv": _csv_bytes}


class Tracer:
    """In-memory span recorder.  The open-span stack is per thread, so a
    span started in a worker thread of the fig2 pool has no parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start ns, end ns, parent span]
        self.counters: dict[str, float] = {}
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        spans, local, counters = self.spans, self._local, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [index, clock(), 0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                key, amount = count(args, result)
                counters[key] = counters.get(key, 0) + amount
            return result

        return traced

    def install(self) -> None:
        for name, targets in TRACED.items():
            for owner, attr in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                               COUNTERS.get(name)))

    def save(self, path: str, job_id: str) -> None:
        position = {id(s): i for i, s in enumerate(self.spans)}
        table = np.array([(s[0], s[1], s[2], -1 if s[3] is None else position[id(s[3])])
                          for s in self.spans], dtype=np.int64).reshape(-1, 4)
        np.savez(path, name=table[:, 0], start=table[:, 1], end=table[:, 2],
                 parent=table[:, 3], job=np.full(len(table), job_id),
                 names=np.array(self.names), counters=json.dumps(self.counters))


def _run(argv: list) -> int:
    if argv[:2] == ["-m", "qndsim.cli"]:
        sys.argv = ["qnd", *argv[2:]]
        return cli.main(argv[2:])
    sys.argv = list(argv)
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[3] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    path, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    tracer = Tracer()
    tracer.install()
    try:
        return _run(argv)
    finally:
        tracer.save(path, job_id)


if __name__ == "__main__":
    sys.exit(main())
