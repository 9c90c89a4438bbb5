"""Fock basis states, whole sample matrices and Haar-random qubits for the
tests; the package itself builds only the vacuum
(:func:`cryomech.fockspace.vacuum`) and only the final state of an
evolution.  Also the paths of the benchmark's workload configs, which tests
read and never write, and a SuperLU factor that reports its solves."""

from pathlib import Path

import numpy as np

from cryomech.fockspace import SpaceLayout, StateVector
from cryomech.lindblad import EvolutionResult

#: The benchmark's workload configs, ``<workload>/<config>.conf``.
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

#: The ``esr-sweep`` workload's config: the 61-point sweep of ``esr-scan``.
ESR_SWEEP_CONF = WORKLOADS / "esr-sweep" / "esr-scan.conf"


def fock_state(layout: SpaceLayout, occupations: dict[str, int]) -> StateVector:
    """Product basis state with the given occupation per subsystem (default 0)."""
    index = 0
    for sub in layout.subsystems:
        n = occupations.get(sub.label, 0)
        if not 0 <= n < sub.dim:
            raise ValueError(f"occupation {n} out of range for {sub.label!r} (dim {sub.dim})")
        index = index * sub.dim + n
    v = np.zeros(layout.dim, dtype=complex)
    v[index] = 1.0
    return StateVector(layout, v)


def sample_matrices(result: EvolutionResult) -> np.ndarray:
    """Every sample of an evolution as a whole n x n matrix, shape
    (samples, n, n): the result's entries at its block, 0 elsewhere."""
    n = result.layout.dim
    v = np.zeros((result.samples.shape[0], n * n), dtype=complex)
    v[:, result.block] = result.samples
    return v.reshape(-1, n, n).transpose(0, 2, 1)


def haar_qubit(rng: np.random.Generator) -> tuple[complex, complex]:
    """Amplitudes (alpha, beta) of a Haar-random qubit state."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


class SolveSpy:
    """A SuperLU factor ``lu`` that passes each solve's right-hand side b and
    result y to ``seen(b, y)``, which may change y in place."""

    def __init__(self, lu, seen):
        self.lu, self.perm_c, self.seen = lu, lu.perm_c, seen

    def solve(self, b, trans="N"):
        y = self.lu.solve(b, trans=trans)
        self.seen(b, y)
        return y
