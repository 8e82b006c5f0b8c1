"""Unit tests for config parsing, CSV emission and the CLI entry point.

Golden files under tests/data pin the figure grids; they were generated
with emit_csv and are compared after a parse round-trip so the check is
insensitive to platform-specific float formatting of the last digit.
"""

import io
import math
import os
import string
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qndsim import analytic, backaction, cli, lindblad
from qndsim.cli import (
    MODES,
    ConfigError,
    SweepResult,
    _time_grid,
    emit_csv,
    main,
    parse_config,
    run_fig2,
    run_fig3,
    run_lindblad,
    run_repeat,
    run_sweep,
)
from qndsim.core import SystemParams

DATA = Path(__file__).parent / "data"


def parse_csv(text: str) -> SweepResult:
    lines = [ln for ln in text.split("\n") if ln]
    columns = tuple(lines[0].split(","))
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    return SweepResult(columns=columns, rows=rows)


SWEEP_CFG = """
# one-parameter closed-form sweep
g = 0.3
kappa = 0.2
f = 0.5
sweep_param = delta_omega
sweep_start = -1.0
sweep_stop = 1.0
sweep_count = 11
"""


# ---------------------------------------------------------------- config parsing

def test_parse_config_defaults_and_comments():
    cfg = parse_config("", mode="fig3")
    assert cfg.physics == {} and cfg.fock_dim == 12 and cfg.mode == "fig3"
    assert cfg.system_params().kappa == 0.1
    assert cfg.system_params().s_ii == pytest.approx(20.0)
    cfg2 = parse_config("kappa = 0.4   # wider line\n\ns_ii = 7.5\n",
                        mode="fig2")
    assert cfg2.physics == {"kappa": 0.4, "s_ii": 7.5}
    assert cfg2.system_params().s_ii == 7.5


def test_parse_config_sweep_block():
    cfg = parse_config(SWEEP_CFG, mode="analytic")
    assert cfg.sweep_param == "delta_omega"
    assert cfg.sweep_count == 11
    assert cfg.physics["g"] == 0.3 and cfg.physics["kappa"] == 0.2


@pytest.mark.parametrize("text, mode, fragment", [
    ("", None, "unknown mode"),
    ("", "spectral", "unknown mode"),
    ("q = 1\n", "fig2", "line 1: unknown key 'q'"),
    ("kappa = 0.1\nkappa = 0.2\n", "fig2", "line 2: duplicate key"),
    ("kappa =\n", "fig2", "empty value"),
    ("kappa\n", "fig2", "expected 'key = value'"),
    ("kappa = fast\n", "fig2", "malformed number"),
    ("fock_dim = 2.5\n", "fig2", "malformed integer"),
    ("sweep_param = g\n", "analytic", "incomplete sweep"),
    ("sweep_param = t_max\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 3\n",
     "analytic", "sweep_param must be one of"),
    ("sweep_param = g\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 1\n",
     "analytic", "sweep_count must be >= 2"),
    ("t_step = 0\n", "lindblad", "t_step must be > 0"),
    ("t_max = 0.001\nt_step = 0.01\n", "lindblad", "t_max must be >="),
    ("fock_dim = 1\n", "lindblad", "fock_dim must be >= 2"),
    ("threads = 2\n", "fig3", "line 1: unknown key 'threads'"),
    ("kappa = -1\n", "fig3", "kappa must be > 0"),
    ("kappa = 0\n", "fig3", "kappa must be > 0"),
    ("g = nan\n", "fig3", "line 1: non-finite number for 'g'"),
    ("t_step = 0.01\nt_max = inf\n", "fig2", "line 2: non-finite number for 't_max'"),
    ("output = x.csv\n", "fig3", "line 1: unknown key 'output'"),
    ("t_max = 0\n", "fig2", "t_max must be > 0"),
    ("t_max = 0\n", "repeat", "t_max must be > 0"),
    ("t_max = -1\n", "repeat", "t_max must be > 0"),
    ("fock_dim = 1\n", "repeat", "fock_dim must be >= 2"),
])
def test_parse_config_rejections(text, mode, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text, mode=mode)


def test_parse_config_overrides():
    cfg = parse_config("kappa = 0.1\n", mode="fig3",
                       overrides={"kappa": "0.3", "fock_dim": "16"})
    assert cfg.physics["kappa"] == 0.3 and cfg.fock_dim == 16
    with pytest.raises(ConfigError, match="override: unknown key"):
        parse_config("", mode="fig3", overrides={"qqq": "1"})
    with pytest.raises(ConfigError, match="override: non-finite number for 'sweep_stop'"):
        parse_config(SWEEP_CFG, mode="analytic", overrides={"sweep_stop": "-inf"})


# valid values for every key that parse_config takes; the sweep block is
# all-or-none and t_max >= t_step is kept by drawing t_max as a multiple
_CONFIG_VALUES = {
    "epsilon": (-20.0, 20.0), "delta": (0.0, 5.0), "g": (-1.0, 1.0),
    "kappa": (1e-3, 2.0), "gamma1": (0.0, 1.0), "gamma2": (0.0, 1.0),
    "f": (0.0, 3.0), "delta_omega": (-3.0, 3.0), "s_ii": (1e-3, 50.0),
    "fock_dim": (2, 64),
}
_T_STEP, _T_MAX_STEPS = (1e-3, 1.0), (1, 50)
_SWEEP_PARAMS = ("g", "kappa", "delta_omega")
_SWEEP_BOUNDS, _SWEEP_COUNTS = (-1.0, 1.0), (2, 50)
_OVERRIDE_MODES = ("analytic", "backaction", "fig2", "fig3", "repeat")


def _subset(rng, names):
    # a random subset, in random order
    order = rng.permutation(len(names))[:rng.integers(0, len(names), endpoint=True)]
    return [names[i] for i in order]


def _drawn_config(rng):
    keys = {k: (int(rng.integers(lo, hi, endpoint=True)) if k == "fock_dim"
                else float(rng.uniform(lo, hi)))
            for k, (lo, hi) in _CONFIG_VALUES.items() if rng.random() < 0.5}
    t_step = float(rng.uniform(*_T_STEP))
    keys.update(t_step=t_step,
                t_max=t_step * int(rng.integers(*_T_MAX_STEPS, endpoint=True)))
    if rng.random() < 0.5:
        keys.update(sweep_param=str(rng.choice(_SWEEP_PARAMS)),
                    sweep_start=float(rng.uniform(*_SWEEP_BOUNDS)),
                    sweep_stop=float(rng.uniform(*_SWEEP_BOUNDS)),
                    sweep_count=int(rng.integers(*_SWEEP_COUNTS, endpoint=True)))
    moved = _subset(rng, sorted(keys))
    return keys, moved, _subset(rng, moved), str(rng.choice(_OVERRIDE_MODES))


def _every_key(end):
    # all 16 keys, each at the lower (end 0) or upper (end 1) end of its range
    keys = {k: r[end] for k, r in _CONFIG_VALUES.items()}
    keys.update(t_step=_T_STEP[end], t_max=_T_STEP[end] * _T_MAX_STEPS[end],
                sweep_param=_SWEEP_PARAMS[end], sweep_start=_SWEEP_BOUNDS[end],
                sweep_stop=_SWEEP_BOUNDS[end], sweep_count=_SWEEP_COUNTS[end])
    return keys


def _override_cases(seed, n):
    # n cases: the empty config and every key moved and stale, at both
    # ends of its range, in each mode; then draws
    cases = []
    for mode in _OVERRIDE_MODES:
        cases.append(pytest.param({}, [], [], mode, id=f"empty-{mode}"))
        for end, name in enumerate(("lo", "hi")):
            keys = _every_key(end)
            cases.append(pytest.param(keys, sorted(keys), sorted(keys), mode,
                                      id=f"all-moved-stale-{name}-{mode}"))
    rng = np.random.default_rng(seed)
    return cases + [pytest.param(*_drawn_config(rng), id=str(k))
                    for k in range(n - len(cases))]


def _config_text(keys):
    return "".join(f"{k} = {v!r}\n" if not isinstance(v, str) else f"{k} = {v}\n"
                   for k, v in keys.items())


@pytest.mark.parametrize("keys, moved, stale, mode", _override_cases(2741, 100))
def test_parse_config_overrides_equal_text(keys, moved, stale, mode):
    # --set KEY=VALUE applied over a config file gives the config that
    # writing the same value into the file gives, for any split of the keys,
    # whether the file leaves an overridden key out or holds another value
    text_keys = {k: v for k, v in keys.items() if k not in moved}
    text_keys.update({k: "stale" if isinstance(keys[k], str) else keys[k] + 1
                      for k in stale})
    overrides = {k: (keys[k] if isinstance(keys[k], str) else repr(keys[k]))
                 for k in moved}
    via_set = parse_config(_config_text(text_keys), mode=mode,
                           overrides=overrides)
    assert via_set == parse_config(_config_text(keys), mode=mode)


@pytest.mark.parametrize("mode", MODES)
def test_cli_defaults_are_system_params_defaults(mode):
    # the config writes no physics default of its own: an empty config is
    # SystemParams' defaults with the 2/kappa noise floor
    assert parse_config("", mode=mode).system_params() == \
        SystemParams(s_ii=2.0 / SystemParams.kappa)


def test_config_physics_keys_are_system_params_fields():
    names = [fld.name for fld in fields(SystemParams)]
    grid_and_sweep = {"t_max", "t_step", "fock_dim", "sweep_param",
                      "sweep_start", "sweep_stop", "sweep_count"}
    assert sorted(set(cli._KEY_TYPES) - grid_and_sweep) == sorted(names)
    for name in names:
        cfg = parse_config(f"{name} = 0.5\n", mode="fig3")
        assert cfg.physics == {name: 0.5}
        assert getattr(cfg.system_params(), name) == 0.5


def test_grid_keys_checked_only_for_modes_that_read_them():
    # t_step is read by lindblad only, t_max by fig2, lindblad and repeat,
    # fock_dim by lindblad and repeat
    default = io.StringIO()
    with redirect_stdout(default):
        assert main(["fig3"]) == 0
    for mode in ("fig3", "analytic", "backaction"):
        parse_config("t_step = 5\nt_max = 0\nfock_dim = 1\n", mode=mode)
    parse_config("t_max = 0.005\nt_step = 0\nfock_dim = 1\n", mode="fig2")
    parse_config("t_max = 0.005\nt_step = 0\n", mode="repeat")
    wide_step = io.StringIO()
    with redirect_stdout(wide_step):
        assert main(["fig3", "--set", "t_step=5"]) == 0
    assert wide_step.getvalue() == default.getvalue()


def test_system_params_resolution():
    cfg = parse_config("kappa = 0.5\n", mode="fig3")
    p = cfg.system_params(delta_omega=0.25)
    assert p.kappa == 0.5 and p.delta_omega == 0.25
    assert p.s_ii == pytest.approx(4.0)


# ---------------------------------------------------------------- CSV plumbing

def test_csv_round_trip(tmp_path):
    res = run_sweep(parse_config(SWEEP_CFG, mode="analytic"))
    path = tmp_path / "sweep.csv"
    text = emit_csv(res, str(path))
    assert path.read_bytes().decode() == text
    assert "\r" not in text
    back = parse_csv(text)
    assert back.columns == res.columns
    for got, want in zip(back.rows, res.rows):
        # shortest-repr floats survive the round trip exactly
        assert got == tuple(want)


def test_csv_round_trips_infinity():
    cfg = parse_config("epsilon = 1.0\ndelta = 0.1\ng = 0.05\nkappa = 0.1\n"
                       "f = 0.3\nsweep_param = delta_omega\nsweep_start = 0\n"
                       "sweep_stop = 0\nsweep_count = 2\n", mode="backaction")
    res = run_sweep(cfg)
    # symmetric spectrum at zero detuning: infinite effective temperature
    t_eff = res.rows[0][res.columns.index("t_eff")]
    assert math.isinf(t_eff)
    back = parse_csv(emit_csv(res))
    assert math.isinf(back.rows[0][res.columns.index("t_eff")])


_NAME_START = string.ascii_lowercase + "_"
_NAME_REST = _NAME_START + string.digits


def _column_name(rng):
    # [a-z_][a-z0-9_]{0,11}
    rest = rng.choice(list(_NAME_REST), int(rng.integers(0, 11, endpoint=True)))
    return str(rng.choice(list(_NAME_START))) + "".join(rest)


def _finite_double(rng):
    # a random 64-bit pattern, redrawn until finite: every exponent,
    # subnormals included
    x = math.inf
    while not math.isfinite(x):
        x = struct.unpack("<d", rng.bytes(8))[0]
    return x


def _drawn_table(rng):
    columns = tuple(_column_name(rng)
                    for _ in range(rng.integers(1, 6, endpoint=True)))
    rows = [tuple(_finite_double(rng) for _ in columns)
            for _ in range(rng.integers(0, 8, endpoint=True))]
    return SweepResult(columns=columns, rows=rows)


# each with its negation: zero, the smallest subnormal, the largest
# subnormal, the smallest normal, the largest double, and each side of
# the two points where repr switches between fixed and exponent notation
_EDGES = (0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
          1.7976931348623157e308, 9.999999999999999e-05, 1e-4,
          9999999999999998.0, 1e16)


def _table_cases(seed, n):
    # n cases: the edges, an earlier example, then draws
    rng = np.random.default_rng(seed)
    cases = [
        pytest.param(SweepResult(columns=("x", "z_0123456789"),
                                 rows=[(v, -v) for v in _EDGES]), id="edges"),
        pytest.param(SweepResult(columns=("x", "y"),
                                 rows=[(-0.0, 0.0), (5e-324, -2.225073858507201e-308),
                                       (2.2250738585072014e-308, -1.7976931348623157e308)]),
                     id="example"),
    ]
    return cases + [pytest.param(_drawn_table(rng), id=str(k))
                    for k in range(n - len(cases))]


def _bits(rows):
    return [[struct.pack("<d", v) for v in row] for row in rows]


@pytest.mark.parametrize("table", _table_cases(2742, 200))
def test_csv_round_trip_property(table):
    back = parse_csv(emit_csv(table))
    assert back.columns == table.columns
    # bit for bit: keeps the sign of zero and every subnormal
    assert _bits(back.rows) == _bits(table.rows)


# ---------------------------------------------------------------- runners

def test_run_fig2_grid_shape_and_zero_point_rule():
    cfg = parse_config("", mode="fig2")
    res = run_fig2(cfg, n_detuning=21, n_time=20)
    assert res.columns == ("delta_omega", "t", "p_zero_point", "p_backaction")
    assert len(res.rows) == 21 * 20
    rows = np.array(res.rows)
    sel = rows[:, 1] * cfg.system_params().s_ii > 0.5
    assert sel.any()
    assert np.all(rows[sel, 3] <= rows[sel, 2])


@pytest.mark.parametrize("text", ("", "t_max = 0.7\ns_ii = 3.0\n"))
def test_run_fig2_equals_scalar_loop(text):
    cfg = parse_config(text, mode="fig2")
    res = run_fig2(cfg, n_detuning=7, n_time=9)
    rows = []
    for dw in np.linspace(-1.0, 1.0, 7):
        p = cfg.system_params(delta_omega=float(dw))
        for k in range(1, 10):
            t = (k * cfg.t_max) / 9
            rows.append((float(dw), t,
                         analytic.outcome_probability(p, 1.0, t, +1, variance=0.5),
                         analytic.outcome_probability(p, 1.0, t, +1)))
    assert res.rows == rows
    assert emit_csv(res) == emit_csv(SweepResult(columns=res.columns, rows=rows))


def test_run_fig3_matches_direct_evaluation():
    cfg = parse_config("", mode="fig3")
    res = run_fig3(cfg, n_detuning=5)
    assert res.columns == ("kappa", "delta_omega", "p_measure_0", "gamma_m")
    assert len(res.rows) == 4 * 5
    for kappa, dw, p0, gm in res.rows:
        p = cfg.system_params(kappa=kappa, s_ii=2.0 / kappa, delta_omega=dw)
        assert p0 == pytest.approx(
            analytic.outcome_probability(p, 1.0, 0.1, +1), rel=1e-14)
        assert gm == pytest.approx(analytic.gamma_m(p), rel=1e-14)


def test_run_sweep_analytic_columns_and_values():
    res = run_sweep(parse_config(SWEEP_CFG, mode="analytic"))
    assert res.columns == ("delta_omega", "p_measure_0", "gamma_m",
                           "n_plus", "n_minus")
    assert len(res.rows) == 11
    assert [r[0] for r in res.rows] == pytest.approx(
        list(np.linspace(-1.0, 1.0, 11)))
    mid = res.rows[5]
    p = parse_config(SWEEP_CFG, mode="analytic").system_params(delta_omega=0.0)
    assert mid[2] == pytest.approx(analytic.gamma_m(p), rel=1e-14)
    # n_plus and n_minus are f^2/(kappa^2/4 + (delta_omega +- g)^2)
    for row in (mid, res.rows[8]):
        for col, det in ((3, row[0] + p.g), (4, row[0] - p.g)):
            assert row[col] == pytest.approx(
                p.f ** 2 / (p.kappa ** 2 / 4.0 + det ** 2), rel=1e-14)


def test_run_sweep_backaction_values():
    cfg = parse_config("epsilon = 1.0\ndelta = 0.1\ng = 0.05\nkappa = 0.1\n"
                       "f = 0.3\nsweep_param = g\nsweep_start = 0.01\n"
                       "sweep_stop = 0.05\nsweep_count = 3\n",
                       mode="backaction")
    res = run_sweep(cfg)
    assert res.columns[:3] == ("g", "gamma_up", "gamma_down")
    basis = backaction.eigenbasis(1.0, 0.1)
    for row in res.rows:
        p = cfg.system_params(g=row[0])
        rs = backaction.rates(p, basis)
        assert row[1] == pytest.approx(rs.gamma_up, rel=1e-14)
        assert row[5] == rs.t_eff or row[5] == pytest.approx(rs.t_eff)


def test_run_sweep_requires_sweep_and_valid_domain():
    with pytest.raises(ConfigError, match="requires sweep"):
        run_sweep(parse_config("", mode="analytic"))
    bad = parse_config("sweep_param = kappa\nsweep_start = -0.5\n"
                       "sweep_stop = 0.5\nsweep_count = 3\n", mode="analytic")
    with pytest.raises(ConfigError, match="left the valid parameter domain"):
        run_sweep(bad)


def test_swept_kappa_uses_its_own_noise_floor():
    # s_ii unset is 2/kappa of the kappa in use, so a kappa sweep point
    # equals the fig3 row at the same (kappa, delta_omega)
    fig3 = run_fig3(parse_config("", mode="fig3"))
    kappa, dw, p0, gm = next(r for r in fig3.rows
                             if r[0] == 0.2 and abs(r[1] - 0.3) < 1e-9)
    cfg = parse_config(f"delta_omega = {dw!r}\nsweep_param = kappa\n"
                       "sweep_start = 0.2\nsweep_stop = 0.4\nsweep_count = 2\n",
                       mode="analytic")
    assert run_sweep(cfg).rows[0][:3] == (kappa, p0, gm)
    assert p0 == pytest.approx(0.5555, abs=1e-4)


def test_kappa_sweep_from_zero_exits_2():
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        assert main(["analytic", "--set", "sweep_param=kappa",
                     "--set", "sweep_start=0", "--set", "sweep_stop=0.4",
                     "--set", "sweep_count=5"]) == 2
    assert "kappa must be > 0" in err.getvalue()


def test_repeat_whose_span_overflows_exits_2():
    # norm * t_max overflows the Taylor step plan: a named error, not a
    # traceback
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        assert main(["repeat", "--set", "t_max=1e300",
                     "--set", "fock_dim=3"]) == 2
    assert "span 1e+300 is too long to propagate" in err.getvalue()


@pytest.mark.parametrize("argv, fragment", [
    (["fig3", "--set", "f=1e300"],
     "error: steady photon number overflows a float at f = 1e+300"),
    (["backaction", "--set", "f=1e300", "--set", "delta=0.1",
      "--set", "sweep_param=g", "--set", "sweep_start=0.01",
      "--set", "sweep_stop=0.05", "--set", "sweep_count=3"],
     "error: sweep left the valid parameter domain: steady photon number "
     "overflows a float at f = 1e+300"),
    (["fig2", "--set", "t_max=1e308"],
     "error: t_max = 1e+308 overflows the fig2 time grid"),
], ids=["fig3_f", "backaction_f", "fig2_t_max"])
def test_extreme_finite_inputs_exit_2(argv, fragment):
    # a result that overflows a float is a named input error: not an
    # OverflowError traceback (|alpha|^2 at f = 1e300), nor rows with
    # t = inf and nan probabilities under exit 0 (fig2's time grid)
    err, out = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(out):
        assert main(argv) == 2
    assert err.getvalue() == fragment + "\n"
    assert out.getvalue() == ""


@pytest.mark.parametrize("argv", [
    ["fig3", "--set", "g=1e200"],
    ["analytic", "--set", "sweep_param=kappa", "--set", "sweep_start=1",
     "--set", "sweep_stop=1e200", "--set", "sweep_count=3"],
    ["backaction", "--set", "delta=0.1", "--set", "sweep_param=g",
     "--set", "sweep_start=0.01", "--set", "sweep_stop=1e200",
     "--set", "sweep_count=3"],
    ["lindblad", "--set", "t_max=1e308", "--set", "t_step=1e-10"],
], ids=["fig3_g", "analytic_kappa", "backaction_g", "lindblad_grid"])
def test_overflowing_results_exit_2(argv):
    # g ** 2 or kappa ** 2 of a huge parameter (gamma_m, rates), or a grid
    # of t_max / t_step = inf intervals, raise OverflowError: exit 2 with
    # one error line, not a traceback
    err, out = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(out):
        assert main(argv) == 2
    assert err.getvalue() == ("error: a result overflows a float; "
                              "a parameter is too large\n")
    assert out.getvalue() == ""


def test_repeat_whose_span_needs_too_many_steps_exits_2(monkeypatch):
    # a finite plan of ~1e11 Taylor steps would run for days: refused
    # with exit 2 before the first step, not left running; an apply call
    # fails the test at once instead
    def refused(self, rho, out=None):
        raise AssertionError("apply ran for a plan over the step budget")

    monkeypatch.setattr(lindblad.Liouvillian, "apply", refused)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        assert main(["repeat", "--set", "t_max=1e12",
                     "--set", "fock_dim=3"]) == 2
    assert "span 1e+12 is too long to propagate" in err.getvalue()
    assert "Taylor steps, limit 1e+06" in err.getvalue()


def test_run_lindblad_quick():
    cfg = parse_config("epsilon = 0.0\nf = 0.05\nfock_dim = 8\nt_max = 1.0\n"
                       "t_step = 0.1\n", mode="lindblad")
    res, truncation = run_lindblad(cfg)
    assert truncation is None
    assert res.columns[0] == "t" and "coherence01" in res.columns
    assert len(res.rows) == 11
    assert res.rows[0][res.columns.index("coherence01")] == pytest.approx(0.5)
    assert [r[0] for r in res.rows] == pytest.approx(
        list(np.linspace(0.0, 1.0, 11)))


def test_run_repeat_quick():
    cfg = parse_config("epsilon = 0.0\nf = 0.05\nfock_dim = 8\nt_max = 10.0\n",
                       mode="repeat")
    res, truncation = run_repeat(cfg)
    assert truncation is None
    assert res.columns == ("pair", "agreement")
    assert [r[1] for r in res.rows] == pytest.approx([1.0, 1.0], abs=1e-12)


# ---------------------------------------------------------------- golden grids

def test_fig3_grid_matches_golden():
    got = parse_csv(emit_csv(run_fig3(parse_config("", mode="fig3"))))
    want = parse_csv((DATA / "fig3_golden.csv").read_text())
    assert got.columns == want.columns
    np.testing.assert_allclose(np.array(got.rows), np.array(want.rows),
                               rtol=1e-12, atol=1e-15)


def test_fig2_grid_matches_golden():
    got = parse_csv(emit_csv(run_fig2(parse_config("", mode="fig2"),
                                      n_detuning=41, n_time=25)))
    want = parse_csv((DATA / "fig2_golden.csv").read_text())
    assert got.columns == want.columns
    np.testing.assert_allclose(np.array(got.rows), np.array(want.rows),
                               rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------- entry point

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_main_analytic_sweep_to_file(tmp_path):
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG)
    out = tmp_path / "out.csv"
    assert main(["analytic", "-c", cfg, "-o", str(out)]) == 0
    res = parse_csv(out.read_text())
    assert len(res.rows) == 11


def test_main_writes_stdout_by_default(tmp_path):
    cfg = _write(tmp_path, "s.cfg", SWEEP_CFG)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["analytic", "-c", cfg])
    assert code == 0
    assert buf.getvalue().startswith("delta_omega,")


def test_main_set_overrides(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["fig3", "-o"]
    assert main(base + [str(out1)]) == 0
    assert main(base + [str(out2), "--set", "g=0.2"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_main_error_exit_codes(tmp_path):
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["fig3", "--set", "bogus=1"]) == 2
    assert "unknown key" in err.getvalue()

    bad_cfg = _write(tmp_path, "bad.cfg", "kappa = -2\n")
    with redirect_stderr(io.StringIO()):
        assert main(["fig3", "-c", bad_cfg]) == 2
        # analytic without sweep keys is a config error
        assert main(["analytic"]) == 2
        # missing subcommand: argparse reports usage failure
        assert main([]) == 2
        # unwritable output path
        assert main(["fig3", "-o", str(tmp_path / "no" / "dir" / "x.csv")]) == 4


def test_lindblad_t_max_must_be_a_multiple_of_t_step():
    # 2.05 / 0.1 used to round silently to a grid ending at 2.0
    with pytest.raises(ConfigError, match="nearest valid t_max is 2$"):
        parse_config("t_max = 2.05\nt_step = 0.1\n", mode="lindblad")
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["lindblad", "--set", "t_max=2.05", "--set", "t_step=0.1"]) == 2
    assert "not a multiple of t_step" in err.getvalue()
    # float-rounded multiples pass, as does the repeat window (t_step unused)
    for t_max, t_step in ((40.0, 0.5), (20.0, 0.05), (4.0, 0.1), (0.3, 0.1)):
        cfg = parse_config(f"t_max = {t_max}\nt_step = {t_step}\n", mode="lindblad")
        assert len(_time_grid(cfg)) == round(t_max / t_step) + 1
    parse_config("t_max = 2.05\nt_step = 0.1\n", mode="repeat")


def test_main_truncation_overflow_exits_3(tmp_path):
    cfg = _write(tmp_path, "t.cfg",
                 "epsilon = 0.0\nf = 1.0\nfock_dim = 6\nt_max = 2.0\n"
                 "t_step = 0.1\n")
    out = tmp_path / "t.csv"
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["lindblad", "-c", cfg, "-o", str(out)]) == 3
    assert "truncation" in err.getvalue()
    # the CSV is still emitted for inspection
    assert len(parse_csv(out.read_text()).rows) == 21


def test_main_default_lindblad_exit_3_says_by_how_much_and_when(tmp_path):
    out = tmp_path / "l.csv"
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["lindblad", "-o", str(out)]) == 3
    msg = err.getvalue()
    assert ("peak top-two-level population 3.39e-03 at t = 2, threshold 1e-06, "
            "first exceeded at t = 1.17") in msg
    assert "increase fock_dim" in msg
    assert len(parse_csv(out.read_text()).rows) == 201


def test_main_default_repeat_exit_3_names_the_round(tmp_path):
    out = tmp_path / "r.csv"
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["repeat", "-o", str(out)]) == 3
    assert ("peak top-two-level population 5.31e-01 in measurement round 2, "
            "threshold 1e-06, first exceeded in measurement round 1") in err.getvalue()
    assert parse_csv(out.read_text()).columns == ("pair", "agreement")


def test_main_thread_count_does_not_change_bytes(tmp_path):
    out1 = tmp_path / "t1.csv"
    out3 = tmp_path / "t3.csv"
    assert main(["fig3", "-o", str(out1), "--threads", "1"]) == 0
    assert main(["fig3", "-o", str(out3), "--threads", "3"]) == 0
    assert out1.read_bytes() == out3.read_bytes()


def test_main_ignores_threads_and_takes_output_only_from_o(tmp_path, monkeypatch):
    # --threads is parsed and ignored, whatever its value
    monkeypatch.setattr(cli, "run_fig3", lambda cfg: SweepResult(("x",), []))
    assert main(["fig3", "--threads", "0"]) == 0
    out = tmp_path / "f.csv"
    assert main(["fig3", "--threads", "3", "-o", str(out)]) == 0
    assert out.read_text() == "x\n"
    # -o is the one route to the output path: there is no output key
    cfg = _write(tmp_path, "o.cfg", "output = other.csv\n")
    for argv in (["fig3", "--set", "output=other.csv", "-o", str(out)],
                 ["fig3", "-c", cfg]):
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(argv) == 2
        assert "unknown key 'output'" in err.getvalue()


# ---------------------------------------------------------------- numpy-free grids

def _hex(values) -> list:
    # float.hex tells -0.0 from 0.0, which repr in the CSV does too
    return [float(v).hex() for v in values]


def test_linspace_is_numpys_bit_for_bit():
    # the figure grids, the lindblad time grids, count 2, start = stop,
    # signed zeros, negative spans, a step that underflows to 0 (numpy's
    # other branch) and 2,000 seeded draws over decades
    cases = [(-1.0, 1.0, 201), (-1.0, 1.0, 7), (0.0, 2.0, 201),
             (0.0, 40.0, 81), (0.0, 20.0, 401), (0.05, 0.5, 201),
             (1.0, 2.0, 2), (-3.0, 5.0, 2), (3.0, 3.0, 5), (-0.0, -0.0, 3),
             (-0.0, 0.0, 4), (2.0, -7.5, 11), (0.0, 5e-324, 4),
             (1e-310, 3e-310, 7), (-1e-310, 1e-310, 9)]
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-6, 7, 2)
        cases.append((float(a), float(b), int(rng.integers(2, 400))))
    for start, stop, count in cases:
        assert _hex(cli._linspace(start, stop, count)) == _hex(
            np.linspace(start, stop, count).tolist()), (start, stop, count)


@pytest.mark.parametrize("t_max", (2.0, 0.7, 1e-3, 123.456, 1e300))
def test_fig2_times_are_numpys_bit_for_bit(t_max):
    cfg = parse_config(f"t_max = {t_max!r}\n", mode="fig2")
    times = [row[1] for row in run_fig2(cfg, n_detuning=2, n_time=200).rows[:200]]
    assert _hex(times) == _hex((np.arange(1, 201) * t_max / 200).tolist())


def _python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_closed_form_subcommands_never_import_numpy(tmp_path):
    sweep = ["--set", "sweep_param=delta_omega", "--set", "sweep_start=-1",
             "--set", "sweep_stop=1", "--set", "sweep_count=201"]
    runs = [[mode, *extra, "-o", str(tmp_path / f"{mode}.csv")]
            for mode, extra in (("fig2", []), ("fig3", []), ("analytic", sweep))]
    # fig2 at f = 1e308: amplitudes of -inf + nan j, whose modulus is inf,
    # so every probability takes its limit erf(inf) = 1 and no row is nan
    runs.append(["fig2", "--set", "f=1e308", "-o", str(tmp_path / "fig2_f.csv")])
    proc = _python(
        "import sys\n"
        "import qndsim.cli as cli\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig3.csv").read_text() == emit_csv(
        run_fig3(parse_config("", mode="fig3")))
    assert (tmp_path / "fig2.csv").stat().st_size > 0
    assert (tmp_path / "analytic.csv").read_text().count("\n") == 202
    huge_f = (tmp_path / "fig2_f.csv").read_text()
    assert "nan" not in huge_f
    res = parse_csv(huge_f)
    assert res.columns[2:] == ("p_zero_point", "p_backaction")
    assert len(res.rows) == 40_200
    assert all(row[2:] == (1.0, 1.0) for row in res.rows)


def test_master_equation_run_loads_numpy_but_not_the_closed_forms(tmp_path):
    out = tmp_path / "lindblad.csv"
    proc = _python(
        "import sys\n"
        "import qndsim.cli as cli\n"
        f"assert cli.main(['lindblad', '--set', 'fock_dim=20', '-o', {str(out)!r}]) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'qndsim.analytic' not in sys.modules\n"
        "assert 'qndsim.backaction' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("t,sigma_z,sigma_x,")
    assert out.read_text().count("\n") == 202
