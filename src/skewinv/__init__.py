"""Exact invariant theory of finite graded group actions on the quantum and
Jordan planes: Molien series, generators and presentations of the invariant
rings, Hirzebruch-Jung continued-fraction data, and degree-truncated
verification of the Auslander criterion on smash products."""

from .scalars import Cyclo, IntPolynomial, Rational, cyclotomic_polynomial, gen_binomial
from .skew_algebra import (
    AlgebraElt,
    AlgebraSpec,
    Mat2,
    Monomial,
    apply_aut,
    mul,
    power,
    reorder,
    to_text,
)
from .group_actions import (
    CyclicDiag,
    DihedralMQ,
    Gnk,
    GradedAut,
    GroupSpec,
    RationalFunction,
    TruncatedSeries,
    enumerate_group,
    group_report,
    hdet,
    is_quasi_reflection,
    is_quasi_reflection_by_series,
    trace,
)
from .hj_series import (
    HJExpansion,
    NCSeries,
    TypeAData,
    TypeDData,
    decompose_triple,
    hj_expand,
    nc_series,
    typeA_data,
    typeD_data,
)
from .invariants import (
    GeneratorSet,
    eta_map,
    fixed_space,
    generator_set,
    gnk_basis,
    molien,
    reynolds,
    theta_correspondence,
    theta_map,
    verify_generation,
)
from .presentations import (
    Presentation,
    discover_relations,
    eval_relations,
    gnk73_presentation,
    jordan_presentation,
    quantum_presentation,
    truncated_quotient_dims,
    verify_presentation,
)
from .auslander import (
    GH_element,
    SmashElt,
    finite_dim_witness,
    gbar,
    ideal_contains,
    ideal_dims,
    smash_from_algebra,
    smash_from_group,
    smash_mul,
    verify_GH_identities,
)

__version__ = "0.1.0"
