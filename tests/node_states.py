"""evolve with the state at every node kept, for the tests that check each
node: evolve itself keeps only the last state."""

import pytest

from qndsim import lindblad


def evolve_keeping_states(liou, rho0, t_grid):
    """evolve's record and the DensityMatrix it validated at each node, in
    grid order.  Every node is a fresh array that evolve does not touch
    once validated, so each state is kept as it was checked."""
    validate, states = lindblad.DensityMatrix, []

    def kept(matrix):
        states.append(validate(matrix))
        return states[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "DensityMatrix", kept)
        rec = lindblad.evolve(liou, rho0, t_grid)
    assert len(states) == len(rec.t_grid) and states[-1] is rec.state
    return rec, states
