"""The four benchmark workloads as fixed job lists drawn from a seed.

A job is one fresh interpreter, run the way a user runs qnd
(``python -m qndsim.cli SUBCOMMAND ...``), or the library script
reduced_job.py for the one path without a subcommand.  Every job passes an
explicit config that exits 0.

The seed draws physical parameters only.  Each range keeps the quantity
that sets the RK4 step (the largest of |epsilon|, |delta_omega| + |g|,
kappa, f) pinned, and leaves grid length, fock_dim and branch count alone,
so a job's work, and every ``.calls`` count, is the same for every seed.
The fig2 and fig3 jobs keep their pinned defaults so they can be compared
with the golden grids.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import oracles as o

@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple          # interpreter arguments; OUT is replaced by the CSV path
    check: o.Check


def _cli(sub: str, settings: dict, *extra: str) -> tuple:
    argv = ["-m", "qndsim.cli", sub, *extra]
    for key, value in settings.items():
        text = value if isinstance(value, str) else repr(value)
        argv += ["--set", f"{key}={text}"]
    return tuple(argv + ["-o", "OUT"])


def _draw(rng: random.Random, **ranges) -> dict:
    return {k: rng.uniform(lo, hi) for k, (lo, hi) in ranges.items()}


def sweeps(rng: random.Random) -> list:
    """Closed-form only: no master-equation work at all."""
    ana = _draw(rng, kappa=(0.08, 0.12), g=(0.25, 0.35), f=(0.8, 1.2))
    ana_sweep = dict(start=-1.0, stop=1.0, count=201)
    ba = _draw(rng, epsilon=(0.8, 1.2), g=(0.01, 0.03), kappa=(0.08, 0.12),
               f=(0.2, 0.4), delta_omega=(0.9, 1.1))
    ba_sweep = dict(start=0.05, stop=0.5, count=201)

    def sweep_keys(param, s):
        return dict(sweep_param=param, sweep_start=s["start"],
                    sweep_stop=s["stop"], sweep_count=s["count"])

    return [
        Job("fig2", _cli("fig2", {}, "--threads", "1"),
            o.Check(o.check_fig2, ("p_backaction", 1e-9))),
        Job("fig2_threads2", _cli("fig2", {}, "--threads", "2"),
            o.Check(o.check_fig2, ("p_backaction", 1e-9))),
        Job("fig3", _cli("fig3", {}), o.Check(o.check_fig3, ("gamma_m", 1e-9))),
        Job("analytic", _cli("analytic", {**ana, **sweep_keys("delta_omega", ana_sweep)}),
            o.Check(o.check_analytic_sweep, ("n_plus", 1e-9), {**ana, **ana_sweep})),
        Job("backaction", _cli("backaction", {**ba, **sweep_keys("delta", ba_sweep)}),
            o.Check(o.check_backaction_sweep, ("gamma_up", 1e-9), {**ba, **ba_sweep})),
    ]


def trajectory(rng: random.Random) -> list:
    """A constant generator reported at many nodes, plus the one
    time-dependent integration (the reduced memory kernel)."""
    # README example: epsilon = 10 sets the step (20,000 RK4 steps, 81 rows);
    # one sector stays resonant (delta_omega = g) and the drive keeps the
    # 12-level truncation valid
    readme = dict(g=0.3, delta_omega=0.3, t_max=40.0, t_step=0.5,
                  **_draw(rng, f=(0.045, 0.055), kappa=(0.095, 0.105)))
    # sigma_n with intrinsic decay: epsilon = 1 sets the step 0.02, so each
    # of the 400 intervals of 0.05 takes 3 substeps
    sn = dict(epsilon=1.0, t_max=20.0, t_step=0.05,
              **_draw(rng, delta=(0.08, 0.12), g=(0.015, 0.025), kappa=(0.08, 0.12),
                      f=(0.25, 0.35), delta_omega=(0.9, 0.95),
                      gamma1=(0.04, 0.06), gamma2=(0.01, 0.03)))
    reduced = _draw(rng, g=(0.04, 0.06), f=(0.8, 1.2))
    return [
        Job("lindblad_readme", _cli("lindblad", readme),
            o.Check(o.check_sigma_z_run, ("re_a", 1e-3),
                    {k: readme[k] for k in ("kappa", "g", "f", "delta_omega",
                                            "t_max", "t_step")})),
        Job("lindblad_sigma_n", _cli("lindblad", sn),
            o.Check(o.check_sigma_n_run, ("sigma_z", 2e-2),
                    {k: sn[k] for k in ("gamma1", "gamma2", "t_max", "t_step")})),
        Job("reduced_time_dependent",
            ("bench/reduced_job.py", "-o", "OUT", "--g", repr(reduced["g"]),
             "--f", repr(reduced["f"])),
            o.Check(o.check_reduced_relaxation, ("p_excited", 1e-3),
                    dict(epsilon=0.05, delta=1.0, kappa=1.0, t_max=40.0, **reduced))),
    ]


def repeat(rng: random.Random) -> list:
    """Branching repeated measurement: 7 evolutions of one 40 ns window in
    sigma_n mode (criterion-6 operating point), 3 in the QND run."""
    sn = dict(epsilon=1.0, delta=0.1, g=0.02, delta_omega=math.hypot(1.0, 0.1),
              t_max=40.0, **_draw(rng, f=(0.25, 0.35), kappa=(0.08, 0.12)))
    # QND: the resonator is never reset, so keep n <= 1 over all 3 windows
    qnd = dict(epsilon=0.0, g=0.3, delta_omega=0.3, t_max=20.0,
               **_draw(rng, f=(0.045, 0.05), kappa=(0.1, 0.11)))
    return [
        Job("repeat_sigma_n", _cli("repeat", sn),
            o.Check(o.check_repeat_sigma_n, ("agreement", -1e-2),
                    {k: sn[k] for k in ("epsilon", "delta", "g", "kappa", "f",
                                        "delta_omega", "t_max")})),
        Job("repeat_qnd", _cli("repeat", qnd),
            o.Check(o.check_repeat_qnd, ("agreement", -1e-5))),
    ]


def large_fock(rng: random.Random) -> list:
    """sigma_z runs at fock_dim 44 and 48: the drive brings the mean photon
    number to the mid-teens within the 4 ns window (still ringing up, so no
    overshoot), which needs the space while the top two levels stay below
    the 1e-6 threshold.  epsilon = 2 sets the step 0.01."""
    phys = dict(epsilon=2.0, t_max=4.0, t_step=0.1,
                **_draw(rng, f=(1.05, 1.12), kappa=(0.09, 0.11), g=(0.02, 0.04),
                        delta_omega=(-0.05, 0.05)))
    params = {k: phys[k] for k in ("kappa", "g", "f", "delta_omega", "t_max", "t_step")}
    return [Job(f"lindblad_fock{d}", _cli("lindblad", {**phys, "fock_dim": d}),
                o.Check(o.check_sigma_z_run, ("re_a", 1e-3), params))
            for d in (44, 48)]


WORKLOADS = {"sweeps": sweeps, "trajectory": trajectory, "repeat": repeat,
             "large_fock": large_fock}


def build(name: str, seed: int) -> list:
    """The jobs of one workload; the same seed gives the same jobs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
