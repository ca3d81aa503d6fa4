"""Exact and Monte Carlo density of states for Cauchy-disordered random operators.

The disorder-averaged local spectral measure of such an operator is the free
measure convolved with the Cauchy kernel of the coupling distribution. This
package evaluates that identity exactly for three model families and verifies
it independently by finite-volume Monte Carlo simulation, both in the energy
domain (broadened spectra) and in the time domain (characteristic functions).
"""

__version__ = "0.1.0"

from .ensemble import (
    BumpFamily,
    DisorderSample,
    LatticeBoxSpec,
    SymmetricOperator,
    TreeSpec,
    build_continuum,
    build_lattice,
    build_tree,
    draw_sample,
)
from .errors import CapExceededError, EnclosureError, OutsideStripError, SolverError
from .free_models import (
    BetheFreeModel,
    ContinuumFreeModel,
    LatticeFreeModel,
    exact_smoothed,
    free_stieltjes,
)
from .measures import (
    CauchyKernel,
    EnergyGrid,
    cauchy_density,
    cauchy_sample,
)
from .spectra import (
    McEstimate,
    charfn_mc,
    chebyshev_evolve,
    dos_mc,
    eig_sym,
    ids_mc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
