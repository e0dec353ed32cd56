"""Decategorified premodular/modular category data and its 3-manifold invariants.

The package computes with label-level data only: fusion multiplicities,
quantum dimensions, twists, and the unnormalised S matrix.  On top of that it
implements modularization by condensing the even pointed transparent
subcategory, quantum-double data for minimal non-degenerate extensions, and
Reshetikhin-Turaev invariants of plumbed 3-manifolds, including the
factorized evaluation of the double's invariant from extension data alone.
"""

from .fusion import (
    DEFAULT_TOL,
    CheckResult,
    ClosureError,
    FusionData,
    FusionError,
    InconsistentDataError,
    SubcategorySelection,
    ValidationReport,
    deligne_product,
    full_subcategory,
    global_dim,
    perron_frobenius_dims,
    validate_fusion,
)
from .modular import (
    CenterReport,
    GaussSums,
    MinimalityReport,
    ModularityReport,
    PremodularData,
    PremodularityError,
    Twist,
    centralizer,
    check_minimal_extension,
    is_modular,
    muger_center,
    premodular_from_twists,
    sprime_from_balancing,
    verify_premodular,
    verlinde_multiplicities,
)
from .families import builtin, builtin_suite, conjugate, fibonacci, ising, pointed_cyclic, product, semion, su2, trivial
from .condense import (
    CondensedData,
    MinimalityError,
    ModularizationError,
    Orbit,
    OrbitDecomposition,
    PairingBracket,
    ResolutionError,
    SheetLabel,
    degenerate_group,
    double_data,
    orbit_decomposition,
    pairing_bracket,
)
from .plumbing import (
    DEFAULT_TERM_CAP,
    DescentCheck,
    InvariantValue,
    PlumbingError,
    PlumbingGraph,
    TermCapExceeded,
    bracket,
    bracket_descent_check,
    kirby_moves,
    linking_matrix,
    random_forest,
    rt_invariant,
    signature,
)
from .double_rt import FactorizationCheck, factorization_check, tau_double

__version__ = "0.18.0"
