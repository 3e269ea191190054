"""Exact verification toolkit for Haantjes algebras on Jacobi, contact and
locally conformal symplectic structures, chart by chart."""

__version__ = "0.1.0"

from .symexpr import (
    BudgetError,
    Chart,
    ChartMismatch,
    Expr,
    ParseError,
    ZeroCertainty,
    ZeroTester,
    darboux_contact,
    darboux_symplectic,
    exp,
    fn_symbol,
    is_zero,
    lcs_local,
    param,
    parse_scalar,
    rational,
    simplify,
)
from .geometry import (
    KForm,
    KVector,
    Operator11,
    VectorField,
    d_scalar,
    exterior_derivative,
    interior_product,
    lie_bracket,
    op_apply,
    op_compose,
    op_transpose_apply,
    schouten_bracket,
    wedge,
    wedge_v,
)
from .checks import CheckReport
from .torsion import (
    HaantjesBasis,
    check_haantjes_algebra,
    haantjes_torsion,
    is_haantjes,
    nijenhuis_torsion,
    verify_chain,
)
from .jacobi import (
    JacobiStructure,
    ParticularIntegralWitness,
    check_jh_compatibility,
    hamiltonian_vf,
    jacobi_bracket,
    particular_integral_check,
    poissonize,
    proposition_involutivity_check,
    validate_jacobi,
)
from .extended import (
    ExtendedBasis,
    ExtendedOperator,
    build_action_angle_basis,
    check_ejh,
    check_extended_algebra,
    ext_identity,
    thm_main_check,
    verify_ext_chain,
)
from .contact import (
    ContactStructure,
    appendix_family,
    check_contact_haantjes,
    classify_special_kind,
    induced_jacobi_from_contact,
    is_dissipated,
    is_homogeneous_deg0_momenta,
    reeb_eigen_check,
    special_structure_operator,
    standard_contact_form,
    techain_check,
    theorem6_check,
    theta_Kf_condition,
    validate_contact,
)
from .lcs import (
    LCSStructure,
    check_lcsh,
    eta_KE_check,
    induced_jacobi_from_lcs,
    standard_lcs_pair,
    theorem9_check,
    validate_lcs,
)
from .cli import Model, Report, format_model, parse_model, run_checks
