"""Exact verification toolkit for characteristic-2 quadric quotients by
algebraic foliations and the integer feasibility theory of del Pezzo
surfaces with irregularity."""

from .algebra import (
    GEOM,
    PARAM,
    Derivation,
    GeomPoly,
    ParamRational,
    RootDepthError,
    SparsePoly,
    TableMismatchError,
    VarTable,
    ZeroDenominatorError,
    exact_divide,
    parse,
    root_monomial,
)
from .numerics import (
    INFEASIBLE,
    DelPezzoParams,
    FeasibilityTable,
    cover_identities,
    feasibility_region,
    h0_anticanonical,
    main_equation,
    riemann_roch_chi,
    scan_is_conclusive,
    solve_q1,
    torsor_chi_sum,
    torsor_degree,
)
from .quotient import (
    BaseRingS,
    DerivationNotLinearError,
    ModuleVector,
    Presentation,
    derivation_matrix,
    frobenius_factorization_check,
    jacobian_minors,
    kernel_basis,
    normal_form,
    to_module_vector,
    verify_presentation,
)
from .reports import CheckResult
from .surfaces import (
    CuspReport,
    FoliationSpec,
    QuadricChart,
    build_presentation,
    chart_table,
    check_fibre_injectivity,
    check_ideal_preserved,
    check_p_closure,
    cusp_curve,
    field_of_constants_check,
    quotient_presentation,
    reducedness_witness,
    singular_locus,
)

__version__ = "0.1.0"
