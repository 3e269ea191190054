"""Contact structures in Darboux form and contact-Haantjes compatibility.

The flat map b(X) = i_X dtheta + theta(X) theta is inverted exactly, so the
Reeb field R and the induced Jacobi pair (Lambda, R), with Lambda(a, b) =
dtheta(sharp a, sharp b), are exact; `validate_contact` builds the pair once,
as ``s.jacobi``.  Contact Hamiltonian fields and brackets are the Jacobi ones
of that pair.  The special first/second-kind operator classes follow the
structural reading under which theta(K X_f) = K^z_z (p^s df/dp^s - f) holds
identically; that identity is certified symbolically with an abstract f and
serves as the calibration for the row/column conventions.

dtheta-symmetry goes through `geometry.compat_residuals` and the
chain-bracket identity through the Jacobi layer, as in `lcs`.
A check on a structure that failed validation is unknown, and its
induced pair is refused (`checks._unvalidated`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .checks import CheckReport, _unvalidated, once
from .geometry import (
    KForm,
    KVector,
    Operator11,
    VectorField,
    compat_residuals,
    dot,
    exterior_derivative,
    interior_product,
    invert_matrix,
    op_apply,
    op_compose,
    op_transpose_apply,
    wedge,
    wedge_v,
)
from .jacobi import JacobiStructure, _require_chain_brackets, hamiltonian_vf, jacobi_bracket, validate_jacobi
from .symexpr import Chart, Expr, ZeroTester, fn_symbol
from .torsion import HaantjesBasis, verify_chain

__all__ = [
    "ContactStructure",
    "appendix_family",
    "check_contact_haantjes",
    "classify_special_kind",
    "induced_jacobi_from_contact",
    "is_dissipated",
    "is_homogeneous_deg0_momenta",
    "reeb_eigen_check",
    "special_structure_operator",
    "standard_contact_form",
    "techain_check",
    "theorem6_check",
    "theta_Kf_condition",
    "validate_contact",
]


@dataclass
class ContactStructure:
    chart: Chart
    theta: KForm
    d_theta: KForm
    flat: list              # matrix of b
    sharp: list             # exact inverse of flat
    reeb: VectorField
    jacobi: Optional[JacobiStructure]   # the induced pair; None when degenerate
    validity: Optional[CheckReport] = None

    @property
    def validated(self) -> bool:
        return self.validity is not None and self.validity.passed


def standard_contact_form(chart: Chart) -> KForm:
    """theta = dz - p_i dq^i on a Darboux contact chart."""
    n = chart.n_pairs
    comps = {(chart.z_index,): chart.one()}
    for i in range(n):
        comps[(i,)] = -chart.coord(n + i)
    return KForm(chart, 1, comps)


def validate_contact(theta: KForm, zt: ZeroTester = ZeroTester()) -> ContactStructure:
    """Certify theta ^ (dtheta)^n != 0, build flat/sharp, the Reeb field and
    the induced Jacobi pair (Lambda, R), not validated."""
    chart = theta.chart
    if chart.dim % 2 == 0:
        raise ValueError("contact structures need an odd-dimensional chart")
    n = (chart.dim - 1) // 2
    rep = CheckReport("contact-structure")
    dtheta = exterior_derivative(theta)
    vol = theta
    for _ in range(n):
        vol = wedge(vol, dtheta)
    coeff = vol[tuple(range(chart.dim))]
    rep.require_nonzero("theta^(dtheta)^n", zt(coeff))
    if not rep.passed:
        rep.notes.append("degenerate contact form")
        return ContactStructure(chart, theta, dtheta, [], [], VectorField.zero(chart), None, rep)
    co = theta.covector()
    dt = [[dtheta[(j, i)] for j in range(chart.dim)] for i in range(chart.dim)]
    # flat[i][j]: dx^i component of b(d_j) = i_{d_j} dtheta + theta_j theta
    flat = [[dt[i][j] + co[j] * co[i] for j in range(chart.dim)] for i in range(chart.dim)]
    sharp = invert_matrix(flat)
    reeb = VectorField(chart, [dot(chart, row, co) for row in sharp])
    rep.require_zero("i_R theta - 1", zt(interior_product(reeb, theta)[()] - chart.one()))
    for idx, e in interior_product(reeb, dtheta).items():
        rep.require_zero(f"i_R dtheta [{idx}]", zt(e))
    # flat S = I and R = S theta = S^T theta give S + S^T = 2 R R^T, so
    # Lambda = S^T dtheta S = S - R R^T
    r = reeb.components
    lam = KVector(chart, 2, {(i, j): sharp[i][j] - r[i] * r[j]
                             for i in range(chart.dim) for j in range(i + 1, chart.dim)})
    jacobi = JacobiStructure(chart, lam, reeb)
    return ContactStructure(chart, theta, dtheta, flat, sharp, reeb, jacobi, rep)


def induced_jacobi_from_contact(c: ContactStructure, zt: ZeroTester = ZeroTester()) -> JacobiStructure:
    """c.jacobi, validated: Lambda(a, b) = dtheta(sharp a, sharp b), E = R;
    cross-checked against the printed Darboux expressions on Darboux charts."""
    rep = CheckReport("jacobi-structure")
    if _unvalidated(rep, "contact", c):
        raise ValueError(rep.notes[0])
    chart = c.chart
    lam = c.jacobi.lam
    j = validate_jacobi(lam, c.jacobi.e_field, zt)
    if chart.kind[0] == "darboux-contact" and c.theta == standard_contact_form(chart):
        n = chart.n_pairs
        printed = {}
        for i in range(n):
            printed[(i, n + i)] = chart.one()
            printed[(n + i, chart.z_index)] = -chart.coord(n + i)
        expected = KVector(chart, 2, printed)
        resid = lam - expected
        for idx, e in resid.items():
            j.validity.require_zero(f"Darboux Lambda [{idx}]", zt(e))
        ez = c.reeb - VectorField.basis(chart, chart.z_index)
        for i, e in enumerate(ez.components):
            if not e.is_zero_expr():
                j.validity.require_zero(f"Darboux E [{i}]", zt(e))
    return j


def is_dissipated(f: Expr, h: Expr, c: ContactStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """X_H f = -f RH: f decays at the Hamiltonian's own rate."""
    rep = CheckReport("dissipated")
    if _unvalidated(rep, "contact", c):
        return rep
    xh = hamiltonian_vf(h, c.jacobi)
    resid = xh.apply_to(f) + f * c.reeb.apply_to(h)
    rep.require_zero("X_H f + f RH", zt(resid))
    return rep


def _dtheta_symmetry(rep: CheckReport, k: Operator11, c: ContactStructure, n: int,
                     zt: ZeroTester) -> CheckReport:
    """Require dtheta(K d_a, d_b) - dtheta(d_a, K d_b) = 0 for a <= b < n."""
    pairs = combinations_with_replacement(range(n), 2)
    for (a, b), resid in compat_residuals(c.chart, k.matrix, c.d_theta.full_matrix(), pairs):
        rep.require_zero(f"dtheta-symmetry [{a},{b}]", zt(resid))
    return rep


def check_contact_haantjes(k: Operator11, c: ContactStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """(a) dtheta(KX, Y) = dtheta(X, KY); (b) theta(KX)theta(Y) =
    theta(X)theta(KY), decided as K^T theta ^ theta = 0."""
    rep = CheckReport("contact-haantjes")
    if _unvalidated(rep, "contact", c):
        return rep
    _dtheta_symmetry(rep, k, c, c.chart.dim, zt)
    ktheta = op_transpose_apply(k, c.theta)
    for idx, e in wedge(ktheta, c.theta).items():
        rep.require_zero(f"K^T theta ^ theta [{idx}]", zt(e))
    return rep


def reeb_eigen_check(k: Operator11, c: ContactStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """K R must be proportional to R; the factor g = theta(KR) is reported."""
    rep = CheckReport("reeb-eigenvector")
    if _unvalidated(rep, "contact", c):
        return rep
    kr = op_apply(k, c.reeb)
    w = wedge_v(KVector.from_vector(kr), KVector.from_vector(c.reeb))
    for idx, e in w.items():
        rep.require_zero(f"KR ^ R [{idx}]", zt(e))
    g = interior_product(kr, c.theta)[()]
    rep.data["factor"] = g
    return rep


def theta_Kf_condition(k: Operator11, f: Expr, c: ContactStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """theta(K X_f) = -f theta(K R)."""
    rep = CheckReport("theta-Kf-condition")
    if _unvalidated(rep, "contact", c):
        return rep
    xf = hamiltonian_vf(f, c.jacobi)
    lhs = interior_product(op_apply(k, xf), c.theta)[()]
    kr = interior_product(op_apply(k, c.reeb), c.theta)[()]
    rep.require_zero("theta(KX_f) + f theta(KR)", zt(lhs + f * kr))
    return rep


def _momentum_euler(chart: Chart, f: Expr) -> Expr:
    """p_i df/dp_i."""
    ps = chart.p_indices
    return dot(chart, [chart.coord(i) for i in ps], [f.diff(i) for i in ps])


def is_homogeneous_deg0_momenta(f: Expr, chart: Chart, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Euler residual p_i df/dp_i must vanish."""
    rep = CheckReport("degree0-in-momenta")
    resid = _momentum_euler(chart, f)
    rep.require_zero("sum p_i df/dp_i", zt(resid))
    return rep


def _structural_special(k: Operator11, c: ContactStructure, zt: ZeroTester) -> CheckReport:
    """Structural conditions of the special classes on a Darboux chart:
    no dz column in the x-rows, dtheta-symmetric x-block, and z-row coupled
    to the q-rows through the momenta."""
    chart = c.chart
    rep = CheckReport("special-structure")
    n = chart.n_pairs
    zi = chart.z_index
    km = k.matrix
    for i in range(2 * n):
        rep.require_zero(f"K[{i}][z]", zt(km[i][zi]))
    _dtheta_symmetry(rep, k, c, 2 * n, zt)
    # z-row coupling: K[z][j] = sum_i p_i K[q_i][j] for x-columns j
    momenta = [chart.coord(i) for i in chart.p_indices]
    for j in range(2 * n):
        expect = dot(chart, momenta, [km[i][j] for i in range(n)])
        rep.require_zero(f"z-row coupling col {j}", zt(km[zi][j] - expect))
    return rep


def classify_special_kind(k: Operator11, c: ContactStructure, zt: ZeroTester = ZeroTester()) -> tuple:
    """Return (kind, evidence) with kind in {"first", "second", "neither"}.

    First kind: structural conditions with K^z_z = 0, so theta(K X_f) = 0
    for every f.  Second kind: structural conditions with K^z_z != 0, so
    theta(K X_f) = -f theta(K R) on functions of momentum degree zero.  Both
    defining identities are certified with an abstract f; the calibration
    identity theta(K X_f) = K^z_z (p^s df/dp^s - f) is certified alongside.
    """
    chart = c.chart
    if chart.kind[0] != "darboux-contact":
        raise ValueError("classification needs a Darboux contact chart")
    evidence = CheckReport("special-kind")
    if _unvalidated(evidence, "contact", c):
        raise ValueError(evidence.notes[0])
    structural = _structural_special(k, c, zt)
    evidence.merge(structural)
    if not structural.passed:
        evidence.notes.append("structural conditions violated")
        return "neither", evidence
    zi = chart.z_index
    kzz = k.matrix[zi][zi]
    f = fn_symbol(chart, "_clsf")
    xf = hamiltonian_vf(f, c.jacobi)
    theta_kxf = interior_product(op_apply(k, xf), c.theta)[()]
    euler = _momentum_euler(chart, f)
    evidence.require_zero("calibration theta(KX_f) - K^z_z (p df/dp - f)",
                          zt(theta_kxf - kzz * (euler - f)))
    kzz_zero = zt(kzz)
    if kzz_zero.accepts_zero:
        evidence.require_zero("first kind: theta(KX_f) for abstract f", zt(theta_kxf))
        kind = "first" if evidence.passed else "neither"
        return kind, evidence
    # second kind: check the defining identity on the degree-0 test family
    kr = interior_product(op_apply(k, c.reeb), c.theta)[()]
    for label, g in _deg0_family(chart):
        xg = hamiltonian_vf(g, c.jacobi)
        lhs = interior_product(op_apply(k, xg), c.theta)[()]
        evidence.require_zero(f"second kind on {label}", zt(lhs + g * kr))
    kind = "second" if evidence.passed else "neither"
    return kind, evidence


def _deg0_family(chart: Chart):
    """Momentum-degree-zero test functions: coordinates, z, a mixed product,
    momentum ratios, and one abstract function of (q, z)."""
    n = chart.n_pairs
    zi = chart.z_index
    out = [("q1", chart.coord(0)), ("z", chart.coord(zi)), ("q1*z", chart.coord(0) * chart.coord(zi))]
    if n >= 2:
        out.append(("p1/p2", chart.coord(n) / chart.coord(n + 1)))
    out.append(("abstract f(q,z)", fn_symbol(chart, "_deg0", deps=list(range(n)) + [zi])))
    return out


def special_structure_operator(
    chart: Chart,
    a_block: Sequence[Sequence[Expr]],
    b_upper: Optional[Expr] = None,
    c_lower: Optional[Expr] = None,
    kzz: Optional[Expr] = None,
) -> Operator11:
    """Operator with the structural shape of the special classes.

    x-block [[A, bJ], [cJ, A^T]] (dtheta-symmetric by construction, with J
    the standard antisymmetric pairing; b/c only make sense for n = 2),
    z-column zero except K^z_z = kzz, and the z-row coupled to the q-rows:
    K^z_j = sum_i p_i K^{q_i}_j.  Whether the result is actually Haantjes
    depends on the chosen entries and is checked separately.
    """
    n = chart.n_pairs
    zi = chart.z_index
    zero = chart.zero()
    rows = [[zero for _ in range(chart.dim)] for _ in range(chart.dim)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = a_block[i][j]
            rows[n + j][n + i] = a_block[i][j]
    if b_upper is not None and not b_upper.is_zero_expr():
        if n != 2:
            raise ValueError("antisymmetric qp-block only implemented for n = 2")
        rows[0][n + 1] = b_upper
        rows[1][n] = -b_upper
    if c_lower is not None and not c_lower.is_zero_expr():
        if n != 2:
            raise ValueError("antisymmetric pq-block only implemented for n = 2")
        rows[n][1] = c_lower
        rows[n + 1][0] = -c_lower
    momenta = [chart.coord(i) for i in chart.p_indices]
    for j in range(2 * n):
        rows[zi][j] = dot(chart, momenta, [rows[i][j] for i in range(n)])
    if kzz is not None:
        rows[zi][zi] = kzz
    return Operator11(chart, rows)


def theorem6_check(
    h: Expr,
    basis: HaantjesBasis,
    c: ContactStructure,
    zt: ZeroTester = ZeroTester(),
) -> CheckReport:
    """Where theta(K X_f) = -f theta(K R) holds for the chain data (each
    basis operator and each pairwise product, on H and the potentials), the
    potentials satisfy {H_i,H_j} = H_i R H_j - H_j R H_i."""
    rep = CheckReport("theorem-involution-identity")
    if _unvalidated(rep, "contact", c):
        return rep
    pre = CheckReport("preconditions")
    chain = once(verify_chain, h, basis, zt)
    pre.merge(replace(chain, name="chain verified"))
    pots = chain.data["potentials"]
    if not chain.passed or any(p is None for p in pots):
        return rep.merge(pre).reject("chain with explicit potentials required")
    ops = list(basis.operators)
    names = list(basis.names)
    for i, ki in enumerate(list(ops)):
        for jj, kj in enumerate(list(ops)):
            ops.append(op_compose(kj, ki))
            names.append(f"{basis.names[jj]}{basis.names[i]}")
    for nm, k in zip(names, ops):
        pre.merge(_dtheta_symmetry(CheckReport(f"{nm} dtheta-symmetric"), k, c, c.chart.dim, zt))
        for fl, f in [("H", h)] + [(f"H{i+1}", p) for i, p in enumerate(pots)]:
            pre.merge(replace(theta_Kf_condition(k, f, c, zt), name=f"theta({nm} X_{fl}) condition"))
    rep.merge(pre)
    _require_chain_brackets(rep, pots, c.jacobi, zt)
    rep.data["potentials"] = pots
    return rep


def techain_check(
    h: Expr,
    basis: HaantjesBasis,
    c: ContactStructure,
    kind: str,
    zt: ZeroTester = ZeroTester(),
) -> CheckReport:
    """Bracket identities for chains on special contact-Haantjes manifolds.

    kind "first":  R H_i = 0, {H_i,H_j} = 0, {H_i,H} = H_i R H.
    kind "second": homogeneity of H and the potentials is a precondition;
                   {H_i,H_j} = H_i R H_j - H_j R H_i and {H_i,H} = -H R H_i.
    Preconditions that fail are reported, and the conclusions are still
    evaluated so the report stays informative.
    """
    rep = CheckReport(f"techain-{kind}")
    if _unvalidated(rep, "contact", c):
        return rep
    chart = c.chart
    pre = CheckReport("preconditions")
    chain = once(verify_chain, h, basis, zt)
    pre.merge(replace(chain, name="chain verified"))
    pots = chain.data["potentials"]
    if any(p is None for p in pots):
        return rep.merge(pre).reject("potentials unavailable; identities cannot be stated")
    for nm, k in zip(basis.names, basis.operators):
        got, evidence = classify_special_kind(k, c, zt)
        pre.merge(replace(evidence, name=f"{nm} classified {kind}"))
        if got != kind:
            pre.reject(f"{nm} classified as {got}")
    if kind == "second":
        for fl, f in [("H", h)] + [(f"H{i+1}", p) for i, p in enumerate(pots)]:
            pre.merge(replace(is_homogeneous_deg0_momenta(f, chart, zt), name=f"{fl} degree-0"))
    rep.merge(pre)
    j = c.jacobi
    r = c.reeb
    conc = CheckReport("conclusions")
    if kind == "first":
        for i, p in enumerate(pots):
            conc.require_zero(f"R H{i+1}", zt(r.apply_to(p)))
            conc.require_zero(f"{{H{i+1},H}} - H{i+1} RH",
                              zt(jacobi_bracket(p, h, j) - p * r.apply_to(h)))
        for i in range(len(pots)):
            for jdx in range(i + 1, len(pots)):
                conc.require_zero(f"{{H{i+1},H{jdx+1}}}",
                                  zt(jacobi_bracket(pots[i], pots[jdx], j)))
    else:
        _require_chain_brackets(conc, pots, j, zt)
        for i, p in enumerate(pots):
            resid = jacobi_bracket(p, h, j) + h * r.apply_to(p)
            conc.require_zero(f"{{H{i+1},H}} + H RH{i+1}", zt(resid))
    rep.merge(conc)
    rep.data["potentials"] = pots
    return rep


# ---------------------------------------------------------------------------
# Appendix operator families (dim 5, coordinate order q1, q2, p1, p2, z)


def _require_dim5_contact(chart: Chart):
    if chart.kind != ("darboux-contact", 2):
        raise ValueError("appendix families live on the Darboux contact chart of dimension 5")


def appendix_family(chart: Chart, which: str, funcs: dict) -> Operator11:
    """The three printed Haantjes families F1, F2, F3 (verbatim matrices).

    F1/F2 take D, B, Kzz; F3 takes D, qK2z, pK1z and qk1z, with
    qK1z = D * qk1z and qk1z independent of p2.
    """
    _require_dim5_contact(chart)
    z = chart.zero()
    if which == "F1":
        D, B, Kzz = funcs["D"], funcs["B"], funcs["Kzz"]
        return Operator11(chart, [
            [D, B, z, z, z],
            [z, D, z, z, z],
            [z, z, -D, z, z],
            [z, z, -B, -D, z],
            [z, z, z, z, Kzz],
        ])
    if which == "F2":
        D, B, Kzz = funcs["D"], funcs["B"], funcs["Kzz"]
        return Operator11(chart, [
            [D, B, z, D, z],
            [-B, D, -D, z, z],
            [z, z, -D, B, z],
            [z, z, -B, -D, z],
            [z, z, z, z, Kzz],
        ])
    if which == "F3":
        D, qK2z, pK1z, qk1z = funcs["D"], funcs["qK2z"], funcs["pK1z"], funcs["qk1z"]
        if not qk1z.diff(3).is_zero_expr():
            raise ValueError("F3 requires qk1z independent of p2")
        return Operator11(chart, [
            [-D, z, z, z, z],
            [z, D, z, z, z],
            [z, z, D, z, z],
            [z, z, z, -D, z],
            [D * qk1z, qK2z, pK1z, z, D],
        ])
    raise ValueError(f"unknown appendix family {which!r}")
