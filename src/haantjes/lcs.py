"""Locally conformal symplectic structures and LCSH compatibility.

The conformal factor enters through exact exponential atoms: for polynomial
Lee potentials l the forms e^l dq^i ^ dp_i invert exactly and every identity
below is certified symbolically.

Omega-symmetry goes through `geometry.compat_residuals`, as in `contact`; the
exact sharp map is back-checked by flat(E) = eta.  `validate_lcs` builds the
induced Jacobi pair (Lambda, E), with Lambda(a, b) = Omega(sharp a, sharp b),
once as ``s.jacobi``; LCS Hamiltonian fields (i_X Omega = df - f eta) and
brackets are the Jacobi ones of that pair.
A check on a structure that failed validation is unknown, and its
induced pair is refused (`checks._unvalidated`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement
from typing import Optional

from .checks import CheckReport, _unvalidated, once
from .geometry import (
    KForm,
    KVector,
    Operator11,
    VectorField,
    compat_residuals,
    d_scalar,
    dot,
    exterior_derivative,
    interior_product,
    invert_matrix,
    op_apply,
    wedge,
)
from .jacobi import JacobiStructure, _require_chain_brackets, hamiltonian_vf, jacobi_bracket, validate_jacobi
from .symexpr import Chart, Expr, ZeroTester, exp as exp_
from .torsion import HaantjesBasis, verify_chain

__all__ = [
    "LCSStructure",
    "check_lcsh",
    "eta_KE_check",
    "induced_jacobi_from_lcs",
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
    jacobi: Optional[JacobiStructure]   # the induced pair; None when degenerate
    validity: Optional[CheckReport] = None

    @property
    def validated(self) -> bool:
        return self.validity is not None and self.validity.passed


def standard_lcs_pair(chart: Chart, lee_potential: Expr) -> tuple:
    """Omega = e^l dq^i ^ dp_i, eta = dl on a 2n chart."""
    n = chart.n_pairs
    factor = exp_(lee_potential)
    comps = {(i, n + i): factor for i in range(n)}
    return KForm(chart, 2, comps), d_scalar(lee_potential)


def validate_lcs(omega: KForm, eta: KForm, zt: ZeroTester = ZeroTester()) -> LCSStructure:
    """Certify d eta = 0, d Omega - eta ^ Omega = 0 and nondegeneracy;
    build the exact sharp map, E = sharp(eta) and the induced Jacobi pair
    (Lambda, E), not validated."""
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
        return LCSStructure(chart, omega, eta, [], [], VectorField.zero(chart), None, rep)
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
    # S inverts flat = -Omega, so Lambda = S^T Omega S = -S^T = S
    lam = KVector(chart, 2, {(i, j): sharp[i][j]
                             for i in range(chart.dim) for j in range(i + 1, chart.dim)})
    jacobi = JacobiStructure(chart, lam, e_field)
    return LCSStructure(chart, omega, eta, flat, sharp, e_field, jacobi, rep)


def induced_jacobi_from_lcs(l: LCSStructure, zt: ZeroTester = ZeroTester()) -> JacobiStructure:
    """l.jacobi, validated: Lambda(a, b) = Omega(sharp a, sharp b),
    E = sharp(eta)."""
    rep = CheckReport("jacobi-structure")
    if _unvalidated(rep, "lcs", l):
        raise ValueError(rep.notes[0])
    return validate_jacobi(l.jacobi.lam, l.jacobi.e_field, zt)


def check_lcsh(k: Operator11, l: LCSStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Omega(KX, Y) = Omega(X, KY) as the matrix identity O K = K^T O."""
    rep = CheckReport("lcsh-compatibility")
    if _unvalidated(rep, "lcs", l):
        return rep
    upper = combinations_with_replacement(range(l.chart.dim), 2)
    for (a, b), resid in compat_residuals(l.chart, k.matrix, l.omega.full_matrix(), upper):
        rep.require_zero(f"Omega-symmetry [{a},{b}]", zt(resid))
    return rep


def eta_KE_check(k: Operator11, l: LCSStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    rep = CheckReport("eta(KE)")
    if _unvalidated(rep, "lcs", l):
        return rep
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
    if _unvalidated(rep, "lcs", l):
        return rep
    pre = CheckReport("preconditions")
    chain = once(verify_chain, h, basis, zt)
    pre.merge(replace(chain, name="chain verified"))
    for nm, k in zip(basis.names, basis.operators):
        pre.merge(replace(once(check_lcsh, k, l, zt), name=f"{nm} lcsh-compatible"))
        pre.merge(replace(once(eta_KE_check, k, l, zt), name=f"{nm} eta(KE)=0"))
    rep.merge(pre)
    pots = chain.data["potentials"]
    if not chain.passed or any(p is None for p in pots):
        rep.reject("chain with explicit potentials required")
        return rep
    j = l.jacobi
    eta_of = lambda x: interior_product(x, l.eta)[()]
    xh = hamiltonian_vf(h, j)
    eta_x = [eta_of(hamiltonian_vf(p, j)) for p in pots]
    for i, (nm, k) in enumerate(zip(basis.names, basis.operators)):
        resid = eta_of(op_apply(k, xh)) - eta_x[i]
        rep.require_zero(f"eta({nm} X_H) = eta(X_H{i+1})", zt(resid))
    for a, b in combinations(range(len(pots)), 2):
        ha, hb = pots[a], pots[b]
        resid = jacobi_bracket(ha, hb, j) - (hb * eta_x[a] - ha * eta_x[b])
        rep.require_zero(f"{{H{a+1},H{b+1}}} eta identity", zt(resid))
    _require_chain_brackets(rep, pots, j, zt)
    rep.data["potentials"] = pots
    return rep
