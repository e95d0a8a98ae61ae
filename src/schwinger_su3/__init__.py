"""Exact six-oscillator SU(3) x Sp(2,R) construction.

Sparse exact polynomials over Q(sqrt 3), oscillator bilinear generators with a
commutator-verification engine, the normalized SU(3) x Sp(2,R) basis states,
trace removal, and the isometric equivalence map onto functions on the unit
sphere in C^3.
"""

from .scalars import CScalar, Qsqrt3
from .poly import (
    Polynomial,
    bargmann_inner,
    monomials_of_bidegree,
    monomials_of_total_degree,
    poly_from_json,
    poly_from_records,
    poly_to_json,
    poly_to_records,
)
from .operators import (
    GellMannTable,
    OperatorExpr,
    commutator_defect,
    gell_mann,
    number_op,
    sp2r_generator,
    su2_ladder,
    su3_generator,
)
from .catalog import (
    InvalidWeightError,
    IrrepLabel,
    WeightLabel,
    cg_series,
    dim,
    induced_multiplicity,
    iy_spectrum,
    k_of,
    weight_from_iy,
    weight_from_rs,
)
from .basis import (
    BasisKey,
    NormalizedState,
    ZW,
    basis_state,
    cn_coeffs,
    enumerate_basis_keys,
    h0_membership,
    kminus_kernel_dimension,
    sp2r_casimir_check,
    traceless_project,
    zw_cofactor,
)
from .induced import (
    SphereFunction,
    TraceConditionError,
    equivalence_map,
    induced_inner_formula,
    make_sphere_function,
    sphere_inner_direct,
    sphere_monomial_integral,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
