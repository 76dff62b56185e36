"""Exact combinatorial invariants of quasiflag spaces.

Pure-Python, exact-arithmetic computations: type-A root data, Kostant
partitions, Poincare polynomials via the stratum sum, the closed-form
generating function over the cocharacter lattice, torus fixed-point
cells, filtration counts of torsion quiver representations, and the
associated character identities, all exposed through the ``quasiflags``
CLI together with machine-checked verification suites.
"""

from .charseries import CharSeries, LaurentPoly
from .cohomology import (
    generating_function,
    laumon_poincare,
    shifted_poincare,
)
from .cells import (
    Cell,
    conjectured_dim,
    enumerate_cells,
)
from .kostant import KostantPartition, kostant_partitions
from .modchar import (
    module_character,
    verma_multiplicity_series,
)
from .quiverfilt import (
    NOT_RIGID,
    TorsionRep,
    commutator_constant,
    count_filtrations,
    filtration_counts,
)
from .rootdata import (
    WeylElement,
    pairing,
    positive_coroots,
    two_rho,
    weyl_elements,
    weyl_poincare,
)

__version__ = "0.1.0"

__all__ = [
    "CharSeries",
    "Cell",
    "KostantPartition",
    "LaurentPoly",
    "NOT_RIGID",
    "TorsionRep",
    "WeylElement",
    "commutator_constant",
    "conjectured_dim",
    "count_filtrations",
    "enumerate_cells",
    "filtration_counts",
    "generating_function",
    "kostant_partitions",
    "laumon_poincare",
    "module_character",
    "pairing",
    "positive_coroots",
    "shifted_poincare",
    "two_rho",
    "verma_multiplicity_series",
    "weyl_elements",
    "weyl_poincare",
]
