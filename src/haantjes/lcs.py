"""Locally conformal symplectic structures and LCSH compatibility.

The conformal factor enters through exact exponential atoms: for polynomial
Lee potentials l the forms e^l dq^i ^ dp_i invert exactly and every identity
below is certified symbolically.

Omega-symmetry goes through `geometry.compat_residuals` and the induced
Jacobi bivector through `geometry.raised`, as in `contact`; the exact sharp
map is back-checked by flat(E) = eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

from .checks import CheckReport
from .geometry import (
    KForm,
    Operator11,
    VectorField,
    compat_residuals,
    d_scalar,
    dot,
    exterior_derivative,
    interior_product,
    invert_matrix,
    op_apply,
    raised,
    wedge,
)
from .jacobi import JacobiStructure, jacobi_bracket, validate_jacobi
from .symexpr import Chart, Expr, ZeroTester, exp as exp_
from .torsion import HaantjesBasis, verify_chain

__all__ = [
    "LCSStructure",
    "check_lcsh",
    "eta_KE_check",
    "induced_jacobi_from_lcs",
    "lcs_bracket",
    "lcs_hamiltonian_vf",
    "standard_lcs_pair",
    "theorem9_check",
    "validate_lcs",
]


@dataclass
class LCSStructure:
    chart: Chart
    omega: KForm
    eta: KForm
    flat: list
    sharp: list
    e_field: VectorField
    validity: Optional[CheckReport] = None

    @property
    def validated(self) -> bool:
        return self.validity is not None and self.validity.passed

    def sharp_form(self, alpha: KForm) -> VectorField:
        chart = self.chart
        co = alpha.covector()
        return VectorField(chart, [dot(chart, row, co) for row in self.sharp])


def standard_lcs_pair(chart: Chart, lee_potential: Expr) -> tuple:
    """Omega = e^l dq^i ^ dp_i, eta = dl on a 2n chart."""
    n = chart.n_pairs
    factor = exp_(lee_potential)
    comps = {(i, n + i): factor for i in range(n)}
    return KForm(chart, 2, comps), d_scalar(lee_potential)


def validate_lcs(omega: KForm, eta: KForm, zt: ZeroTester = ZeroTester()) -> LCSStructure:
    """Certify d eta = 0, d Omega - eta ^ Omega = 0 and nondegeneracy;
    build the exact sharp map and E = sharp(eta)."""
    chart = omega.chart
    if chart.dim % 2 == 1:
        raise ValueError("LCS structures need an even-dimensional chart")
    rep = CheckReport("lcs-structure")
    for idx, e in exterior_derivative(eta).items():
        rep.require_zero(f"d eta [{idx}]", zt(e))
    resid = exterior_derivative(omega) - wedge(eta, omega)
    for idx, e in resid.items():
        rep.require_zero(f"dOmega - eta^Omega [{idx}]", zt(e))
    n = chart.dim // 2
    vol = omega
    for _ in range(n - 1):
        vol = wedge(vol, omega)
    rep.require_nonzero("Omega^n", zt(vol[tuple(range(chart.dim))]))
    if not rep.passed:
        return LCSStructure(chart, omega, eta, [], [], VectorField.zero(chart), rep)
    # flat[i][j] = dx^i component of i_{d_j} Omega = Omega_{j i}
    flat = [[omega[(j, i)] for j in range(chart.dim)] for i in range(chart.dim)]
    sharp = invert_matrix(flat)
    eta_co = eta.covector()
    e_field = VectorField(chart, [dot(chart, row, eta_co) for row in sharp])
    # flat(E) = eta back-check, which catches a wrong inverse
    for i, row in enumerate(flat):
        e = dot(chart, row, e_field.components) - eta_co[i]
        if not e.is_zero_expr():
            rep.require_zero(f"flat(E) - eta [{i}]", zt(e))
    return LCSStructure(chart, omega, eta, flat, sharp, e_field, rep)


def induced_jacobi_from_lcs(l: LCSStructure, zt: ZeroTester = ZeroTester()) -> JacobiStructure:
    """Lambda(a, b) = Omega(sharp a, sharp b), E = sharp(eta)."""
    return validate_jacobi(raised(l.omega, l.sharp), l.e_field, zt)


def lcs_hamiltonian_vf(f: Expr, l: LCSStructure) -> VectorField:
    """The unique X with i_X Omega = df - f eta."""
    rhs = d_scalar(f) - l.eta.scale(f)
    return l.sharp_form(rhs)


def lcs_bracket(f: Expr, g: Expr, l: LCSStructure) -> Expr:
    """{f,g} = X_g f - f eta(X_g)."""
    xg = lcs_hamiltonian_vf(g, l)
    return xg.apply_to(f) - f * interior_product(xg, l.eta)[()]


def check_lcsh(k: Operator11, l: LCSStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Omega(KX, Y) = Omega(X, KY) as the matrix identity O K = K^T O."""
    rep = CheckReport("lcsh-compatibility")
    upper = combinations_with_replacement(range(l.chart.dim), 2)
    for (a, b), resid in compat_residuals(l.chart, k.matrix, l.omega.full_matrix(), upper):
        rep.require_zero(f"Omega-symmetry [{a},{b}]", zt(resid))
    return rep


def eta_KE_check(k: Operator11, l: LCSStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    rep = CheckReport("eta(KE)")
    val = interior_product(op_apply(k, l.e_field), l.eta)[()]
    rep.require_zero("eta(KE)", zt(val))
    rep.data["eta(KE)"] = val
    return rep


def theorem9_check(
    h: Expr,
    basis: HaantjesBasis,
    l: LCSStructure,
    zt: ZeroTester = ZeroTester(),
) -> CheckReport:
    """LCSH chains with eta(KE) = 0 have potentials satisfying
    {H_i,H_j} = H_j eta(X_{H_i}) - H_i eta(X_{H_j}), equivalently
    {H_i,H_j} = H_i E H_j - H_j E H_i, with the intermediate identity
    eta(K_i X_H) = eta(X_{H_i})."""
    rep = CheckReport("lcsh-theorem")
    pre = CheckReport("preconditions")
    chain = verify_chain(h, basis, zt)
    pre.require("chain verified", chain.passed)
    for nm, k in zip(basis.names, basis.operators):
        sub = check_lcsh(k, l, zt)
        pre.merge(CheckReport(f"{nm} lcsh-compatible", status=sub.status, details=sub.details))
        sub2 = eta_KE_check(k, l, zt)
        pre.merge(CheckReport(f"{nm} eta(KE)=0", status=sub2.status, details=sub2.details))
    rep.merge(pre)
    pots = chain.potentials
    if not chain.passed or any(p is None for p in pots):
        rep.reject("chain with explicit potentials required")
        return rep
    j = induced_jacobi_from_lcs(l, zt)
    eta_of = lambda x: interior_product(x, l.eta)[()]
    xh = lcs_hamiltonian_vf(h, l)
    for i, (nm, k) in enumerate(zip(basis.names, basis.operators)):
        resid = eta_of(op_apply(k, xh)) - eta_of(lcs_hamiltonian_vf(pots[i], l))
        rep.require_zero(f"eta({nm} X_H) = eta(X_H{i+1})", zt(resid))
    for a in range(len(pots)):
        for b in range(a + 1, len(pots)):
            ha, hb = pots[a], pots[b]
            xa = lcs_hamiltonian_vf(ha, l)
            xb = lcs_hamiltonian_vf(hb, l)
            br = lcs_bracket(ha, hb, l)
            resid1 = br - (hb * eta_of(xa) - ha * eta_of(xb))
            rep.require_zero(f"{{H{a+1},H{b+1}}} eta identity", zt(resid1))
            e = l.e_field
            resid2 = br - (ha * e.apply_to(hb) - hb * e.apply_to(ha))
            rep.require_zero(f"{{H{a+1},H{b+1}}} Jacobi identity", zt(resid2))
            resid3 = br - jacobi_bracket(ha, hb, j)
            rep.require_zero(f"{{H{a+1},H{b+1}}} bracket consistency", zt(resid3))
    rep.data["potentials"] = pots
    return rep
