"""Test helper: the Dirichlet N-cell sample's corner Green matrix by direct solve.

It checks `transport.sample_green` against the oracle's tridiagonal LU
(`oracle._n_cell_system` and `oracle._corner_green`), sharing no transfer
matrix code with it.
"""

from thouless_lab import GreenMatrix2, SampleEigenvalueError, SampleSpec
from thouless_lab.jacobi import _repetition_count
from thouless_lab.leads import _one_energy
from thouless_lab.oracle import _corner_green, _n_cell_system


def dirichlet_sample_green(sample: SampleSpec, n_cells: int, E: float) -> GreenMatrix2:
    """2x2 Green matrix of the decoupled Dirichlet N-cell sample by direct solve.

    Raises SampleEigenvalueError at an eigenvalue and DomainError at a
    non-finite E or an n_cells that is not an integer >= 1.
    """
    n_cells = _repetition_count(n_cells)
    diag, off = _n_cell_system(sample, n_cells)
    *corners, ok = _corner_green((diag - _one_energy(E))[None, :], off)
    if not ok[0]:
        raise SampleEigenvalueError(
            f"E={E} is (numerically) an eigenvalue of the {n_cells}-cell sample"
        )
    return GreenMatrix2(*(complex(g[0]) for g in corners), float(E), n_cells)
