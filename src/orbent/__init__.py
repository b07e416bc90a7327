"""Superselection-compliant entanglement between fermionic orbitals."""

import os as _os

# BLAS and OpenMP read their thread counts once, when numpy loads them, so
# ORBENT_NUM_THREADS is applied here, before any submodule imports numpy.
if _os.environ.get("ORBENT_NUM_THREADS"):
    for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_name] = _os.environ["ORBENT_NUM_THREADS"]

from .entanglement import (
    EntanglementResult,
    SectorSpectrum,
    SeniorityCost,
    classical_correlation,
    closest_separable_state,
    entanglement_from_spectrum,
    is_pair_sector_separable,
    is_spin_sector_separable,
    mutual_information,
    nssr_entanglement_general,
    nssr_entanglement_singlet,
    orbital_entanglement,
    pssr_entanglement,
    sector_spectrum,
    seniority_cost,
)
from .errors import (
    DegenerateGroundStateError,
    DegenerateSectorError,
    InsufficientSymmetryError,
    NotDisentangledWithinCapError,
    OracleConvergenceError,
    OrbentError,
)
from .fock import (
    SymmetryEigenbasis,
    TwoOrbitalState,
    build_operator,
    build_symmetry_basis,
    partial_trace,
    partial_transpose,
    pure_state,
    reduce_to_orbitals,
    relative_entropy,
)
from .oracle import (
    ConstrainedSimplexProblem,
    OracleSolution,
    kl_min_oracle,
    ppt_oracle,
    wick_rdm_oracle,
)
from .ssr import (
    FormulaVariant,
    SymmetryReport,
    detect_symmetries,
    nssr_project,
    pssr_project,
    select_formula,
    twirl,
)

__version__ = "0.1.0"
