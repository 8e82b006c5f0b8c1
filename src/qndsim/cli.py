"""Deterministic command-line front end.

Subcommands run closed-form sweeps (analytic, backaction), the figure
grids (fig2, fig3), the exact master-equation run (lindblad) and the
repeated-measurement experiment (repeat), emitting CSV whose float fields
are shortest round-trip reprs: identical inputs give byte-identical files.

Config files are line-oriented ``key = value`` with ``#`` comments; unknown
keys are rejected.  The run mode is always given on the command line.

Every runner returns a SweepResult: main writes its CSV, then exits 3 if
its truncation (a master-equation run's Fock verdict) is set.  The
computing modules load inside the runners that use them, and the grids
are plain lists, so fig2, fig3 and analytic run without numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from .params import NumericsError, SystemParams, eigenbasis

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepResult",
    "parse_config",
    "emit_csv",
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

# every config key and the type its value parses as; the physics keys are
# SystemParams' fields, whose defaults are the config's
_PHYSICS_KEYS = tuple(fld.name for fld in fields(SystemParams))
_KEY_TYPES = {**dict.fromkeys(_PHYSICS_KEYS, float), "t_max": float,
              "t_step": float, "fock_dim": int, "sweep_param": str,
              "sweep_start": float, "sweep_stop": float, "sweep_count": int}
_SWEEP_KEYS = tuple(k for k in _KEY_TYPES if k.startswith("sweep_"))


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One validated run: the mode, the physics keys the config set, the
    time grid, Fock truncation and sweep.

    physics holds only the keys given; system_params fills the rest from
    SystemParams' defaults, except that an unset s_ii is 2/kappa of the
    kappa in use, resolved after the replacements so a swept kappa gets
    its own floor (run_fig3 always sets 2/kappa per linewidth).  The
    sweep_* fields are all None or all set.
    """

    mode: str
    physics: dict = field(default_factory=dict)
    fock_dim: int = 12
    t_max: float = 2.0
    t_step: float = 0.01
    sweep_param: Optional[str] = None
    sweep_start: Optional[float] = None
    sweep_stop: Optional[float] = None
    sweep_count: Optional[int] = None

    def system_params(self, **replacements) -> SystemParams:
        kw = {**self.physics, **replacements}
        kappa = kw.get("kappa", SystemParams.kappa)
        # a kappa <= 0 has no 2/kappa floor: s_ii keeps its default and
        # SystemParams rejects the kappa
        if "s_ii" not in kw and kappa > 0.0:
            kw["s_ii"] = 2.0 / kappa
            if kw["s_ii"] == math.inf:
                raise ValueError(f"kappa = {kappa} overflows the default s_ii = 2/kappa")
        return SystemParams(**kw)


@dataclass(frozen=True)
class SweepResult:
    columns: tuple
    rows: list
    truncation: Optional[str] = None    # a master-equation run's Fock verdict


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
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = (lineno, value)
    return values


def _convert(key: str, value: str, where: str):
    kind = _KEY_TYPES[key]
    try:
        converted = kind(value)
    except ValueError:
        name = "integer" if kind is int else "number"
        raise ConfigError(f"{where}: malformed {name} for {key!r}: {value!r}") from None
    if kind is float and not math.isfinite(converted):
        raise ConfigError(f"{where}: non-finite number for {key!r}: {value!r}")
    return converted


def parse_config(text: str, mode: str,
                 overrides: Optional[dict] = None) -> RunConfig:
    """Parse and validate a config; mode comes from the command line.

    overrides (key -> value, from --set) apply after the file text.  The
    grid keys are checked only for the modes that read them: t_max by
    fig2, lindblad and repeat, t_step by lindblad, fock_dim by lindblad
    and repeat.  Raises ConfigError naming the offending line/key.
    """
    raw = _parse_kv_lines(text)
    converted = {k: _convert(k, v, f"line {ln}") for k, (ln, v) in raw.items()}
    for key, value in (overrides or {}).items():
        if key not in _KEY_TYPES:
            raise ConfigError(f"override: unknown key {key!r}")
        converted[key] = _convert(key, str(value), "override")

    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")

    if any(k in converted for k in _SWEEP_KEYS):
        missing = [k for k in _SWEEP_KEYS if k not in converted]
        if missing:
            raise ConfigError(f"incomplete sweep: missing {', '.join(missing)}")
        if converted["sweep_param"] not in _PHYSICS_KEYS:
            raise ConfigError(f"sweep_param must be one of {_PHYSICS_KEYS}, "
                              f"got {converted['sweep_param']!r}")
        if converted["sweep_count"] < 2:
            raise ConfigError(f"sweep_count must be >= 2, got {converted['sweep_count']}")

    physics = {k: converted.pop(k) for k in _PHYSICS_KEYS if k in converted}
    cfg = RunConfig(mode=mode, physics=physics, **converted)
    if mode == "lindblad":
        if cfg.t_step <= 0.0:
            raise ConfigError(f"t_step must be > 0, got {cfg.t_step}")
        if cfg.t_max < cfg.t_step:
            raise ConfigError(f"t_max must be >= t_step, got {cfg.t_max}")
        nearest = _grid_intervals(cfg) * cfg.t_step
        if abs(nearest - cfg.t_max) > 1e-9 * cfg.t_max:
            raise ConfigError(f"t_max = {cfg.t_max:g} is not a multiple of "
                              f"t_step = {cfg.t_step:g}; nearest valid t_max "
                              f"is {nearest:.12g}")
    elif mode in ("fig2", "repeat") and cfg.t_max <= 0.0:
        raise ConfigError(f"t_max must be > 0, got {cfg.t_max}")
    if mode in ("lindblad", "repeat") and cfg.fock_dim < 2:
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
    # the final "" ends the text with a newline without a second copy of
    # it, and the line list is freed before the write encodes the text
    text = "\n".join([",".join(result.columns),
                      *(",".join(map(repr, map(float, row)))
                        for row in result.rows), ""])
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def run_fig2(cfg: RunConfig, n_detuning: int = 201, n_time: int = 200) -> SweepResult:
    """Outcome-probability map over (detuning, time) for both noise models.

    p_zero_point uses the vacuum quadrature variance 1/2; p_backaction the
    integrated detector noise S_II * t.  Initial polarization +1, outcome +1.
    Each detuning evaluates its whole time row in one call per model.
    """
    from . import analytic

    if not math.isfinite(n_time * cfg.t_max):
        raise ValueError(f"t_max = {cfg.t_max:g} overflows the fig2 time grid")
    times = [k * cfg.t_max / n_time for k in range(1, n_time + 1)]
    rows = []
    for dw in _linspace(-1.0, 1.0, n_detuning):
        p = cfg.system_params(delta_omega=dw)
        pz = analytic.outcome_probability(p, 1.0, times, +1, variance=0.5)
        pb = analytic.outcome_probability(p, 1.0, times, +1)
        rows.extend(zip([dw] * n_time, times, pz, pb))
    return SweepResult(columns=("delta_omega", "t", "p_zero_point", "p_backaction"),
                       rows=rows)


def run_fig3(cfg: RunConfig, n_detuning: int = 201) -> SweepResult:
    """Detuning sweeps of P(measure 0) and gamma_m for the four linewidths.

    Each kappa uses its matched noise floor S_II = 2/kappa and the fixed
    measurement time MEASURE_TIME.
    """
    from . import analytic

    def row(kappa: float, dw: float) -> tuple:
        p = cfg.system_params(kappa=kappa, s_ii=2.0 / kappa, delta_omega=dw)
        return (kappa, dw, analytic.outcome_probability(p, 1.0, MEASURE_TIME, +1),
                analytic.gamma_m(p))

    detunings = _linspace(-1.0, 1.0, n_detuning)
    return SweepResult(columns=("kappa", "delta_omega", "p_measure_0", "gamma_m"),
                       rows=[row(kappa, dw) for kappa in FIG3_KAPPAS
                             for dw in detunings])


def run_sweep(cfg: RunConfig) -> SweepResult:
    """One-parameter closed-form sweep (modes analytic and backaction)."""
    if cfg.sweep_param is None:
        raise ConfigError(f"mode {cfg.mode!r} requires sweep_* keys")
    grid = _linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)

    if cfg.mode == "analytic":
        from . import analytic

        def per_value(v: float) -> tuple:
            p = cfg.system_params(**{cfg.sweep_param: v})
            return (v,
                    analytic.outcome_probability(p, 1.0, MEASURE_TIME, +1),
                    analytic.gamma_m(p), *analytic.photon_numbers(p))

        columns = (cfg.sweep_param, "p_measure_0", "gamma_m", "n_plus", "n_minus")
    elif cfg.mode == "backaction":
        from . import backaction

        def per_value(v: float) -> tuple:
            p = cfg.system_params(**{cfg.sweep_param: v})
            basis = eigenbasis(p.epsilon, p.delta)
            rs = backaction.rates(p, basis)
            return (v, rs.gamma_up, rs.gamma_down, rs.gamma_phi,
                    rs.gamma_phi_pure, rs.t_eff,
                    backaction.spectral_density(p, 0.0))

        columns = (cfg.sweep_param, "gamma_up", "gamma_down", "gamma_phi",
                   "gamma_phi_pure", "t_eff", "s_nn_zero")
    else:
        raise ConfigError(f"mode {cfg.mode!r} does not take a sweep")

    try:
        rows = [per_value(v) for v in grid]
    except ValueError as exc:
        raise ConfigError(f"sweep left the valid parameter domain: {exc}") from exc
    return SweepResult(columns=columns, rows=rows)


def _linspace(start: float, stop: float, count: int) -> list:
    """np.linspace(start, stop, count).tolist() for count >= 2, bit for
    bit, in plain floats: k*step + start with the last point set to stop,
    or (k/(count - 1))*span + start where the step underflows to 0."""
    div = count - 1
    span = stop - start
    step = span / div
    if step == 0.0:
        points = [k / div * span + start for k in range(count)]
    else:
        points = [k * step + start for k in range(count)]
    points[-1] = stop
    return points


def _grid_intervals(cfg: RunConfig) -> int:
    # for lindblad, parse_config guarantees t_max >= t_step, so this is >= 1
    return int(round(cfg.t_max / cfg.t_step))


def _time_grid(cfg: RunConfig) -> list:
    n = _grid_intervals(cfg)
    return _linspace(0.0, n * cfg.t_step, n + 1)


def _start(cfg: RunConfig, qubit: list):
    # the generator and rho0 = qubit (x) vacuum of a master-equation run
    from . import lindblad
    from .core import DensityMatrix, fock_vacuum, tensor

    d = cfg.fock_dim
    liou = lindblad.build_liouvillian(cfg.system_params(), d)
    return liou, DensityMatrix(tensor(qubit, fock_vacuum(d)))


def run_lindblad(cfg: RunConfig) -> SweepResult:
    """Master-equation run from (|0> + |1>)/sqrt(2) times vacuum."""
    from . import lindblad

    liou, rho0 = _start(cfg, [[0.5, 0.5], [0.5, 0.5]])
    rec = lindblad.evolve(liou, rho0, _time_grid(cfg))
    rows = [(float(t), rec.sigma_z[k], rec.sigma_x[k], rec.a_mean[k].real,
             rec.a_mean[k].imag, rec.n_mean[k], rec.coherence01[k],
             rec.top_fock[k]) for k, t in enumerate(rec.t_grid)]
    return SweepResult(columns=("t", "sigma_z", "sigma_x", "re_a", "im_a",
                                "n_photon", "coherence01", "top_fock"),
                       rows=rows, truncation=rec.truncation)


def run_repeat(cfg: RunConfig) -> SweepResult:
    """Three consecutive qubit measurements separated by t_max windows,
    from |0> times vacuum."""
    from . import lindblad

    liou, rho0 = _start(cfg, [[1.0, 0.0], [0.0, 0.0]])
    stats = lindblad.repeatability_experiment(liou, rho0, t_meas=cfg.t_max,
                                              n_meas=3)
    rows = [(float(i + 1), float(p)) for i, p in enumerate(stats.pair_agreement)]
    return SweepResult(columns=("pair", "agreement"), rows=rows,
                       truncation=stats.truncation)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnd",
        description="Dispersive qubit readout: closed-form sweeps, "
                    "master-equation runs and figure grids as CSV.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("-c", "--config", help="path to key = value config file")
    parser.add_argument("-o", "--output", help="CSV output path (default stdout)")
    # ignored: runs are single-threaded, but bench/workloads.py passes it
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
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

        cfg = parse_config(text, args.mode, overrides)
        # built at each call: a runner replaced on the module after import
        # (a tracer's wrapper, a test's stub) is the one that runs
        runners = {"analytic": run_sweep, "backaction": run_sweep,
                   "fig2": run_fig2, "fig3": run_fig3,
                   "lindblad": run_lindblad, "repeat": run_repeat}
        result = runners[cfg.mode](cfg)

        # an empty -o, like none, means stdout
        out = emit_csv(result, args.output or None)
        if not args.output:
            sys.stdout.write(out)
        if result.truncation is not None:
            return _fail(f"top Fock levels exceeded the truncation threshold "
                         f"({result.truncation}); increase fock_dim", 3)
        return 0
    except (ConfigError, ValueError) as exc:
        return _fail(exc, 2)
    except ArithmeticError:
        # a float power or conversion out of range (g ** 2 at g = 1e200), or
        # numpy overflow or invalid arithmetic building a generator
        return _fail("a result overflows a float; a parameter is too large", 2)
    except MemoryError:
        return _fail("the run needs more memory than is available", 2)
    except NumericsError as exc:
        return _fail(exc, 3)
    except OSError as exc:
        return _fail(exc, 4)


def _fail(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
