"""Seeded parameter tables for the tests that check a claim over draws.

Every case is fixed by the test file alone: its rows come from
np.random.default_rng(<seed>) written in the test, and
`pytest --collect-only` lists each one.
"""

import numpy as np
import pytest


def _alternatives(spec):
    # a list is a mixture; a constant is the range (c, c)
    return [a if isinstance(a, tuple) else (a, a)
            for a in (spec if isinstance(spec, list) else [spec])]


def _width(spec):
    if callable(spec):
        return 0
    if isinstance(spec, dict):
        return max(map(_width, spec.values()), default=0)
    return len(_alternatives(spec))


def _end(rng, spec, k):
    if callable(spec):
        return spec(rng)
    if isinstance(spec, dict):
        return {name: _end(rng, s, k) for name, s in spec.items()}
    alts = _alternatives(spec)
    return alts[k // 2 % len(alts)][k % 2]


def _draw(rng, spec):
    if callable(spec):
        return spec(rng)
    if isinstance(spec, dict):
        return {name: _draw(rng, s) for name, s in spec.items()}
    alts = _alternatives(spec)
    lo, hi = alts[int(rng.integers(len(alts)))]
    if lo == hi:
        return lo
    if isinstance(lo, int) and isinstance(hi, int):
        return int(rng.integers(lo, hi, endpoint=True))
    return float(rng.uniform(lo, hi))


def seeded_cases(seed, n, specs, **explicit):
    """pytest.mark.parametrize over the names in `specs`.

    A spec is a range `(lo, hi)`, drawn uniformly (integers from lo to hi
    inclusive); a list of alternatives, each a range or a constant, one
    picked per row; a dict of specs, drawn as a dict; or a function of the
    generator, called once per row.  There are `n` cases in all:
    - the ends, ids lo0, hi0, lo1, ...: row lo<k> holds every spec's k-th
      alternative at its lower end and hi<k> at its upper end, so each
      range's two ends are cases;
    - the `explicit` rows, by id;
    - rows drawn from np.random.default_rng(seed) for the rest, ids 0, 1, ...
    """
    rng = np.random.default_rng(seed)
    rows = [(f"{'hi' if k % 2 else 'lo'}{k // 2}", _end(rng, specs, k))
            for k in range(2 * _width(specs))]
    rows += explicit.items()
    assert len(rows) <= n, "more ends and explicit rows than cases"
    rows += [(str(k), _draw(rng, specs)) for k in range(n - len(rows))]
    return pytest.mark.parametrize(
        list(specs), [pytest.param(*(row[name] for name in specs), id=case_id)
                      for case_id, row in rows])
