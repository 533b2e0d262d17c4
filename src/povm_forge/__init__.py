"""Mutual information of quantum measurements on finite ensembles.

Library layout:

- hermitian: small dense Hermitian linear algebra (basis, eigensolver, psd).
- quantum: ensembles, POVMs, convex operations, pretty good measurement.
- symmetry: finite unitary groups, orbits, character-sum orbit bounds.
- infotheory: mutual information, formal orbit information, equality tests.
- caratheodory: identity decomposition into basic feasible solutions, pruning.
- trines: lifted trines and double trines experiments.
- cli: command-line front end and JSON/CSV serialization.
"""

from .hermitian import (
    HermiticityError,
    InvalidDimensionError,
    PositivityError,
    coords,
    eig_hermitian,
    from_coords,
    hermitian_basis,
    hermitian_part,
    inv_sqrt_psd,
    is_psd,
)
from .quantum import (
    Ensemble,
    NormalizedPovm,
    Povm,
    StructuralError,
    ValidationReport,
    convex_combine,
    normalize_povm,
    pretty_good_measurement,
    split_operator,
    validate_ensemble,
    validate_povm,
)
from .symmetry import (
    ClosureDefectError,
    FiniteRep,
    GroupNotFiniteError,
    NotSymmetricError,
    RealRepRequiredError,
    UnitarityError,
    complex_orbit_bound,
    generate_group,
    is_symmetric_ensemble,
    orbit_sum,
    real_orbit_bound,
    symmetrize,
)
from .infotheory import (
    equality_condition,
    joint_distribution,
    mutual_information,
    orbit_information,
)
from .caratheodory import (
    DesignMatrix,
    IdentityDecomposition,
    InfeasibleError,
    NormalizationError,
    build_design_matrix,
    decompose_identity,
    numeric_rank,
    prune_povm,
    split_rank_one,
)
from .trines import (
    OrbitParams,
    RankArgumentReport,
    SurfaceScan,
    TwoOrbitSolution,
    double_trines,
    double_trines_closed_form,
    hessian_at,
    lifted_trines,
    optimize_single_orbit,
    optimize_two_orbits,
    orbit_info,
    orbit_projectors,
    psi,
    scan_surface,
    single_orbit_rank_argument,
    trine_group,
    trine_rotation,
)

__version__ = "0.1.0"
