"""Library-only benchmark job: time-dependent reduced qubit relaxation.

Runs backaction.evolve_reduced(mode="time_dependent") from the excited
state, the path that rebuilds the finite-memory kernel at every RK4 stage
and has no qnd subcommand, and writes t, p_ground, p_excited, coherence01
as CSV.

    PYTHONPATH=src python bench/reduced_job.py -o out.csv --g 0.05 --f 1.0
"""

import argparse
import sys

import numpy as np

from qndsim import backaction
from qndsim.core import SystemParams

# the relaxation case of tests/test_backaction.py: eta near pi/2, so pure
# dephasing is negligible and delta_omega = 0 makes gamma_up = gamma_down
EPSILON, DELTA, KAPPA, DELTA_OMEGA, S_II = 0.05, 1.0, 1.0, 0.0, 2.0
T_MAX, N_NODES = 40.0, 21


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", required=True)
    parser.add_argument("--g", type=float, default=0.05)
    parser.add_argument("--f", type=float, default=1.0)
    args = parser.parse_args(argv)

    params = SystemParams(epsilon=EPSILON, delta=DELTA, g=args.g, kappa=KAPPA,
                          f=args.f, delta_omega=DELTA_OMEGA, s_ii=S_II)
    basis = backaction.eigenbasis(EPSILON, DELTA)
    rec = backaction.evolve_reduced(params, basis,
                                    np.diag([0.0, 1.0]).astype(complex),
                                    np.linspace(0.0, T_MAX, N_NODES),
                                    mode="time_dependent")
    lines = ["t,p_ground,p_excited,coherence01"]
    lines += [f"{t!r},{p[0]!r},{p[1]!r},{c!r}" for t, p, c in
              zip(rec.t_grid.tolist(), rec.populations.tolist(),
                  rec.coherence01.tolist())]
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
