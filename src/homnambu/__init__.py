"""Exact-arithmetic engine for finite-dimensional Z2-graded n-ary Hom-algebras."""

from .core import (
    Element,
    FixedPointViolation,
    GradedLinearMap,
    HomSuperAlgebra,
    NaryBracket,
    OrbitConflict,
    Scalar,
    SuperSpace,
    adjacent_transposition_sign,
    complete_skew_orbit,
    eval_bracket,
    koszul_sign,
    map_compose,
    map_power,
    multiplicative_algebra,
    pair_extraction_sign,
    scalar,
    supercommutator_maps,
)
from .axioms import (
    CheckReport,
    adjoint_map,
    check_grading,
    check_hom_jacobi,
    check_multiplicative,
    check_nambu_identity,
    check_super_skew,
)
from .cochains import (
    SuperCochain,
    check_induction_conditions,
    coboundary,
    cochain_induced_bracket,
    derivation_transfer,
    is_supertrace,
    triple_product,
    wedge_obstruction,
)
from .derivations import (
    DerivationCandidate,
    GeneralizedTuple,
    QuasiPair,
    check_derivation,
    check_derivation_closure,
    check_generalized_derivation,
    check_quasi_derivation,
    inner_derivation,
    solve_derivation_space,
)
from .iterated import (
    check_adjoint_expansion,
    iterated_bracket,
    iterated_generalized_tuple,
    iterated_transfer_derivation,
)
from .rotabaxter import (
    RotaBaxterOperator,
    check_inverse_derivation_equiv,
    check_phi_rb_kernel_condition,
    check_rb,
)
from .prelie import (
    TriProduct,
    check_3_pre_lie,
    check_derived_identities,
    compatibility_report,
    cyclic_supercommutator,
    image_product,
    rb_induced_product,
    rb_morphism_report,
    sub_adjacent,
)
from .catalog import catalog_build, catalog_entry, catalog_list

__version__ = "0.1.0"
