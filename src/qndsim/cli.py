"""Deterministic command-line front end.

Subcommands run closed-form sweeps (analytic, backaction), the figure
grids (fig2, fig3), the master-equation integrator (lindblad) and the
repeated-measurement experiment (repeat), emitting CSV whose float fields
are shortest round-trip reprs: identical inputs give byte-identical files.

Config files are line-oriented ``key = value`` with ``#`` comments; unknown
keys are rejected.  The run mode is always given on the command line.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import analytic, backaction, lindblad
from .core import (DensityMatrix, FockSpace, NumericsError, SystemParams,
                   fock_vacuum)

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepSpec",
    "SweepResult",
    "parse_config",
    "emit_csv",
    "parse_csv",
    "run_fig2",
    "run_fig3",
    "run_sweep",
    "run_lindblad",
    "run_repeat",
    "main",
]

MODES = ("analytic", "lindblad", "backaction", "fig2", "fig3", "repeat")

# fixed measurement time for the detuning-sweep probability maps
MEASURE_TIME = 0.1
FIG3_KAPPAS = (0.1, 0.2, 0.3, 0.4)

_PARAM_KEYS = ("epsilon", "delta", "g", "kappa", "gamma1", "gamma2", "f",
               "delta_omega", "s_ii")
_FLOAT_KEYS = _PARAM_KEYS + ("t_max", "t_step", "sweep_start", "sweep_stop")
_INT_KEYS = ("fock_dim", "sweep_count")
_STR_KEYS = ("output", "sweep_param")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    count: int


@dataclass(frozen=True)
class RunConfig:
    """One validated run: physical parameters, time grid, sweep and output.

    s_ii = None means 2/kappa of the kappa in use, resolved by
    system_params after its replacements, so a swept kappa gets its own
    floor; run_fig3 always sets 2/kappa per linewidth.
    """

    epsilon: float = 10.0
    delta: float = 0.0
    g: float = 0.3
    kappa: float = 0.1
    gamma1: float = 0.0
    gamma2: float = 0.0
    f: float = 1.0
    delta_omega: float = 0.0
    s_ii: Optional[float] = None
    fock_dim: int = 12
    t_max: float = 2.0
    t_step: float = 0.01
    sweep: Optional[SweepSpec] = None
    mode: str = ""
    output: Optional[str] = None

    @property
    def resolved_s_ii(self) -> float:
        return self.system_params().s_ii

    def system_params(self, **replacements) -> SystemParams:
        kw = {k: getattr(self, k) for k in _PARAM_KEYS}
        kw.update(replacements)
        # kappa <= 0 is left for SystemParams to reject
        if kw["s_ii"] is None and kw["kappa"] > 0.0:
            kw["s_ii"] = 2.0 / kw["kappa"]
        return SystemParams(**kw)


@dataclass(frozen=True)
class SweepResult:
    columns: tuple
    rows: list


def _parse_kv_lines(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = (lineno, value)
    return values


def _convert(key: str, value: str, where: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key not in _FLOAT_KEYS:
            return value
        number = float(value)
    except ValueError:
        kind = "integer" if key in _INT_KEYS else "number"
        raise ConfigError(f"{where}: malformed {kind} for {key!r}: {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}: non-finite number for {key!r}: {value!r}")
    return number


def parse_config(text: str, mode: str,
                 overrides: Optional[dict] = None) -> RunConfig:
    """Parse and validate a config; mode comes from the command line.

    overrides (key -> value, from --set, then -o) apply after the file
    text.  Raises ConfigError naming the offending line/key.
    """
    raw = _parse_kv_lines(text)
    converted = {k: _convert(k, v, f"line {ln}") for k, (ln, v) in raw.items()}
    for key, value in (overrides or {}).items():
        if key not in _ALL_KEYS:
            raise ConfigError(f"override: unknown key {key!r}")
        converted[key] = _convert(key, str(value), "override")

    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")

    sweep_keys = {k: converted.pop(k) for k in
                  ("sweep_param", "sweep_start", "sweep_stop", "sweep_count")
                  if k in converted}
    sweep = None
    if sweep_keys:
        missing = [k for k in ("sweep_param", "sweep_start", "sweep_stop",
                               "sweep_count") if k not in sweep_keys]
        if missing:
            raise ConfigError(f"incomplete sweep: missing {', '.join(missing)}")
        if sweep_keys["sweep_param"] not in _PARAM_KEYS:
            raise ConfigError(f"sweep_param must be one of {_PARAM_KEYS}, "
                              f"got {sweep_keys['sweep_param']!r}")
        if sweep_keys["sweep_count"] < 2:
            raise ConfigError(f"sweep_count must be >= 2, got {sweep_keys['sweep_count']}")
        sweep = SweepSpec(param=sweep_keys["sweep_param"],
                          start=sweep_keys["sweep_start"],
                          stop=sweep_keys["sweep_stop"],
                          count=sweep_keys["sweep_count"])

    cfg = RunConfig(**converted, sweep=sweep, mode=mode)
    if cfg.t_step <= 0.0:
        raise ConfigError(f"t_step must be > 0, got {cfg.t_step}")
    if cfg.t_max < cfg.t_step:
        raise ConfigError(f"t_max must be >= t_step, got {cfg.t_max}")
    if mode == "lindblad":
        nearest = _grid_intervals(cfg) * cfg.t_step
        if abs(nearest - cfg.t_max) > 1e-9 * cfg.t_max:
            raise ConfigError(f"t_max = {cfg.t_max:g} is not a multiple of "
                              f"t_step = {cfg.t_step:g}; nearest valid t_max "
                              f"is {nearest:.12g}")
    if cfg.fock_dim < 2:
        raise ConfigError(f"fock_dim must be >= 2, got {cfg.fock_dim}")
    try:
        cfg.system_params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def emit_csv(result: SweepResult, path: Optional[str] = None) -> str:
    """Serialize with LF endings and shortest round-trip floats.

    Returns the text; writes it to path when given.
    """
    lines = [",".join(result.columns)]
    lines.extend(",".join(map(repr, map(float, row))) for row in result.rows)
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def parse_csv(text: str) -> SweepResult:
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise ConfigError("empty CSV")
    columns = tuple(lines[0].split(","))
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    return SweepResult(columns=columns, rows=rows)


def run_fig2(cfg: RunConfig, n_detuning: int = 201, n_time: int = 200) -> SweepResult:
    """Outcome-probability map over (detuning, time) for both noise models.

    p_zero_point uses the vacuum quadrature variance 1/2; p_backaction the
    integrated detector noise S_II * t.  Initial polarization +1, outcome +1.
    Each detuning evaluates its whole time row in one call per model.
    """
    times = (np.arange(1, n_time + 1) * cfg.t_max / n_time).tolist()
    rows = []
    for dw in np.linspace(-1.0, 1.0, n_detuning).tolist():
        p = cfg.system_params(delta_omega=dw)
        pz = analytic.outcome_probability(p, 1.0, times, +1, variance=0.5)
        pb = analytic.outcome_probability(p, 1.0, times, +1)
        rows.extend(zip([dw] * n_time, times, pz.tolist(), pb.tolist()))
    return SweepResult(columns=("delta_omega", "t", "p_zero_point", "p_backaction"),
                       rows=rows)


def run_fig3(cfg: RunConfig, n_detuning: int = 201) -> SweepResult:
    """Detuning sweeps of P(measure 0) and gamma_m for the four linewidths.

    Each kappa uses its matched noise floor S_II = 2/kappa and the fixed
    measurement time MEASURE_TIME.
    """
    def row(kappa: float, dw: float) -> tuple:
        p = cfg.system_params(kappa=kappa, s_ii=2.0 / kappa, delta_omega=dw)
        return (kappa, dw, analytic.outcome_probability(p, 1.0, MEASURE_TIME, +1),
                analytic.gamma_m(p))

    detunings = np.linspace(-1.0, 1.0, n_detuning).tolist()
    return SweepResult(columns=("kappa", "delta_omega", "p_measure_0", "gamma_m"),
                       rows=[row(kappa, dw) for kappa in FIG3_KAPPAS
                             for dw in detunings])


def run_sweep(cfg: RunConfig) -> SweepResult:
    """One-parameter closed-form sweep (modes analytic and backaction)."""
    if cfg.sweep is None:
        raise ConfigError(f"mode {cfg.mode!r} requires sweep_* keys")
    grid = np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.count)

    if cfg.mode == "analytic":
        def per_value(v: float) -> tuple:
            p = cfg.system_params(**{cfg.sweep.param: float(v)})
            sa = analytic.steady_amplitudes(p)
            return (float(v),
                    analytic.outcome_probability(p, 1.0, MEASURE_TIME, +1),
                    analytic.gamma_m(p), sa.n_plus, sa.n_minus)

        columns = (cfg.sweep.param, "p_measure_0", "gamma_m", "n_plus", "n_minus")
    elif cfg.mode == "backaction":
        def per_value(v: float) -> tuple:
            p = cfg.system_params(**{cfg.sweep.param: float(v)})
            basis = backaction.eigenbasis(p.epsilon, p.delta)
            rs = backaction.rates(p, basis)
            return (float(v), rs.gamma_up, rs.gamma_down, rs.gamma_phi,
                    rs.gamma_phi_pure, rs.t_eff,
                    backaction.spectral_density(p, 0.0))

        columns = (cfg.sweep.param, "gamma_up", "gamma_down", "gamma_phi",
                   "gamma_phi_pure", "t_eff", "s_nn_zero")
    else:
        raise ConfigError(f"mode {cfg.mode!r} does not take a sweep")

    try:
        rows = [per_value(v) for v in grid]
    except ValueError as exc:
        raise ConfigError(f"sweep left the valid parameter domain: {exc}") from exc
    return SweepResult(columns=columns, rows=rows)


def _grid_intervals(cfg: RunConfig) -> int:
    # parse_config guarantees t_max >= t_step, so this is >= 1
    return int(round(cfg.t_max / cfg.t_step))


def _time_grid(cfg: RunConfig) -> np.ndarray:
    n = _grid_intervals(cfg)
    return np.linspace(0.0, n * cfg.t_step, n + 1)


def run_lindblad(cfg: RunConfig):
    """Master-equation run from (|0> + |1>)/sqrt(2) times vacuum.

    Returns (SweepResult, truncation): truncation is None when the top two
    Fock levels stayed under the threshold at every node, else a message
    with their peak population, its time and the first time it was exceeded.
    """
    liou = lindblad.build_liouvillian(cfg.system_params(), FockSpace(cfg.fock_dim))
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    rho0 = DensityMatrix.from_product(liou.space, plus, fock_vacuum(liou.space))
    rec = lindblad.evolve(liou, rho0, _time_grid(cfg))
    rows = [(float(t), rec.sigma_z[k], rec.sigma_x[k], rec.a_mean[k].real,
             rec.a_mean[k].imag, rec.n_mean[k], rec.coherence01[k],
             rec.top_fock[k]) for k, t in enumerate(rec.t_grid)]
    result = SweepResult(columns=("t", "sigma_z", "sigma_x", "re_a", "im_a",
                                  "n_photon", "coherence01", "top_fock"),
                         rows=rows)
    if rec.valid:
        return result, None
    threshold = liou.space.top_population_threshold
    peak = int(np.argmax(rec.top_fock))
    first = int(np.argmax(rec.top_fock > threshold))
    return result, (f"peak top-two-level population {rec.top_fock[peak]:.2e} "
                    f"at t = {rec.t_grid[peak]:g}, threshold {threshold:g}, "
                    f"first exceeded at t = {rec.t_grid[first]:g}")


def run_repeat(cfg: RunConfig):
    """Three consecutive qubit measurements separated by t_max windows.

    Returns (SweepResult, truncation) like run_lindblad; the message names
    the measurement round of the peak top-two-level population.
    """
    liou = lindblad.build_liouvillian(cfg.system_params(), FockSpace(cfg.fock_dim))
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    rho0 = DensityMatrix.from_product(liou.space, ground, fock_vacuum(liou.space))
    stats = lindblad.repeatability_experiment(liou, rho0, t_meas=cfg.t_max,
                                              n_meas=3)
    rows = [(float(i + 1), float(p)) for i, p in enumerate(stats.pair_agreement)]
    result = SweepResult(columns=("pair", "agreement"), rows=rows)
    if stats.valid:
        return result, None
    return result, (f"peak top-two-level population {stats.peak_top_fock:.2e} "
                    f"in measurement round {stats.peak_round}, threshold "
                    f"{liou.space.top_population_threshold:g}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnd",
        description="Dispersive qubit readout: closed-form sweeps, "
                    "master-equation runs and figure grids as CSV.")
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.set_defaults(mode=mode)
        p.add_argument("-c", "--config", help="path to key = value config file")
        p.add_argument("-o", "--output", help="CSV output path (default stdout)")
        # ignored: runs are single-threaded, but bench/workloads.py passes it
        p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        text = ""
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        overrides = {}
        for item in args.set:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            overrides[key.strip()] = value.strip()
        if args.output:
            overrides["output"] = args.output

        cfg = parse_config(text, args.mode, overrides)

        truncation = None
        if cfg.mode in ("analytic", "backaction"):
            result = run_sweep(cfg)
        elif cfg.mode == "fig2":
            result = run_fig2(cfg)
        elif cfg.mode == "fig3":
            result = run_fig3(cfg)
        elif cfg.mode == "lindblad":
            result, truncation = run_lindblad(cfg)
        else:
            result, truncation = run_repeat(cfg)

        out = emit_csv(result, cfg.output)
        if cfg.output is None:
            sys.stdout.write(out)
        if truncation is not None:
            print(f"error: top Fock levels exceeded the truncation threshold "
                  f"({truncation}); increase fock_dim", file=sys.stderr)
            return 3
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
