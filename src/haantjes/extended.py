"""Extended operators on pairs (vector field, function) and the extended
Jacobi-Haantjes machinery.

An extended operator is a quadruple (K, Y, gamma, k) acting as
(X, f) -> (K X + f Y, gamma(X) + k f).  A pair (X, f) is the t-independent
vector field X + f d_t on M x R, and the pair bracket ([X,Z], X h - Z f) is
the Lie bracket of those fields.  So an extended operator is the operator
field `lifted` = [[K, Y], [gamma, k]] on chart.extended(), and its torsions,
products and commutators are those of the base layer (`torsion`,
`geometry`) applied to the lift.  The extended algebra check is
`check_haantjes_algebra`'s loop on the lifts, with module coefficients that
are functions on M.

EJH compatibility EK o (Lambda,E)# = (Lambda,E)# o EK^T is
K^ Lambda^ = Lambda^ K^^T for the lift K^ and the bivector
Lambda^ = Lambda + d_t ^ E of `jacobi.lambda_hat`: the (Lambda, E)-sharp map
is Lambda^ contracted in one slot, and since Lambda^ is antisymmetric the
identity does not depend on which.  `check_ejh` certifies it twice, through
`geometry.compat_residuals` and through the equivalent three-equation system,
which shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

from .checks import INTERNAL_INCONSISTENCY, CheckReport, once
from .geometry import (
    KForm,
    Operator11,
    VectorField,
    compat_residuals,
    d_scalar,
    det,
    dot,
    op_apply,
    op_commutator,
    op_transpose_apply,
)
from .jacobi import JacobiStructure, jacobi_bracket, lambda_hat
from .symexpr import Chart, Expr, ZeroTester
from .torsion import _algebra_check, commute_check, generic_rank

__all__ = [
    "ExtendedBasis",
    "ExtendedOperator",
    "build_action_angle_basis",
    "check_ejh",
    "check_extended_algebra",
    "ext_identity",
    "thm_main_check",
    "verify_ext_chain",
]


@dataclass(frozen=True)
class ExtendedOperator:
    k_op: Operator11
    y_field: VectorField
    gamma: KForm
    k_scalar: Expr
    name: str = "EK"

    def __post_init__(self):
        chart = self.k_op.chart
        if not (self.y_field.chart == chart and self.gamma.chart == chart
                and self.k_scalar.chart == chart):
            raise ValueError("extended operator parts on different charts")
        if self.gamma.degree != 1:
            raise ValueError("gamma must be a 1-form")

    @property
    def chart(self) -> Chart:
        return self.k_op.chart

    @property
    def lifted(self) -> Operator11:
        """[[K, Y], [gamma, k]] on chart.extended(): this operator on the
        t-independent fields X + f d_t, every entry independent of t.  Built
        once per run for equal parts; no caller changes it."""
        return once(_lift, self.k_op, self.y_field, self.gamma, self.k_scalar)

    def scale(self, f: Expr) -> "ExtendedOperator":
        return ExtendedOperator(
            self.k_op.scale(f), self.y_field.scale(f), self.gamma.scale(f),
            f * self.k_scalar, name=f"f*{self.name}")


def _lift(k: Operator11, y: VectorField, gamma: KForm, k_scalar: Expr) -> Operator11:
    big = k.chart.extended()
    rows = [row + (yi,) for row, yi in zip(k.matrix, y.components)]
    rows.append(gamma.covector() + (k_scalar,))
    return Operator11(big, [[e.on_chart(big) for e in row] for row in rows])


def ext_identity(chart: Chart) -> ExtendedOperator:
    return ExtendedOperator(
        Operator11.identity(chart), VectorField.zero(chart),
        KForm.zero(chart, 1), chart.one(), name="EI")


@dataclass
class ExtendedBasis:
    operators: list
    names: Optional[list] = None

    def __post_init__(self):
        if not self.operators:
            raise ValueError("empty extended basis")
        chart = self.operators[0].chart
        for ek in self.operators:
            if ek.chart != chart:
                raise ValueError("extended operators on different charts")
        if self.names is None:
            self.names = [ek.name if ek.name != "EK" else f"EK{i+1}"
                          for i, ek in enumerate(self.operators)]

    @property
    def chart(self) -> Chart:
        return self.operators[0].chart

    def __hash__(self):
        # a memo key: equal bases have equal operators and names
        return hash((tuple(self.operators), tuple(self.names)))


def check_extended_algebra(basis: ExtendedBasis, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Each generator extended-Haantjes, module closure, ring closure, and
    commutativity: the Haantjes algebra check of the lifts.  By H_{fK} =
    f^4 H_K, f*K is decided by K itself and f*A + g*B by h*A + B with one
    abstract coefficient h on M (Bogoyavlenskij 2004; Tempesta and Tondo
    2022)."""
    return _algebra_check("extended-algebra", basis.chart,
                          [ek.lifted for ek in basis.operators], basis.names, True, zt)


def check_ejh(ek: ExtendedOperator, j: JacobiStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """EJH compatibility EK o (Lambda,E)# = (Lambda,E)# o EK^T.

    Certified twice: the operator identity K^ Lambda^ = Lambda^ K^^T of the
    lift (a symmetric residual, so on the pairs a <= b), and independently the
    equivalent three-equation system over coordinate coforms.  The two routes
    must agree; a disagreement is an internal inconsistency of the toolkit,
    not a property of the input.
    """
    chart = ek.chart
    op_rep = CheckReport("ejh-operator-route")
    lam_hat = once(lambda_hat, j)
    big = lam_hat.chart
    upper = combinations_with_replacement(range(big.dim), 2)
    for (a, b), resid in compat_residuals(big, list(zip(*ek.lifted.matrix)), lam_hat.full_matrix(), upper):
        op_rep.require_zero(f"(EK L - L EK^T)[{a}][{b}]", zt(resid))
    sys_rep = CheckReport("ejh-system-route")
    lam = j.lam
    y, e = ek.y_field.components, j.e_field.components
    gamma = ek.gamma.covector()
    kt = ek.k_op.matrix  # K^T dx_a = K^a_j dx^j, row a of K
    # sharp(dx_b), so that L(a, dx_b) = a(sharp dx_b): column b of L
    col = [lam.sharp(KForm.d_coord(chart, b)).components for b in range(chart.dim)]
    # eq1[a][b] = L(K^T dx_a, dx_b) + Y_a E_b - L(dx_a, K^T dx_b) + Y_b E_a is
    # symmetric in (a, b), since L is antisymmetric, so only a <= b is built
    for a, b in combinations_with_replacement(range(chart.dim), 2):
        resid = dot(chart, kt[a] + kt[b] + (y[a], y[b]), col[b] + col[a] + (e[b], e[a]))
        if not resid.is_zero_expr():
            sys_rep.require_zero(f"eq1[{a},{b}]", zt(resid))
    minus_e = tuple(-v for v in e)
    for a in range(chart.dim):
        # L(gamma, dx_a) - (K^T dx_a)(E) + k E_a
        resid = dot(chart, gamma + kt[a] + (ek.k_scalar,), col[a] + minus_e + (e[a],))
        if not resid.is_zero_expr():
            sys_rep.require_zero(f"eq2[{a}]", zt(resid))
    gamma_e = dot(chart, gamma, e)
    sys_rep.require_zero("eq3 gamma(E)", zt(gamma_e))
    rep = CheckReport(f"ejh {ek.name}")
    rep.merge(op_rep)
    rep.merge(sys_rep)
    agree = (op_rep.status == sys_rep.status)
    rep.data["routes_agree"] = agree
    rep.data["operator_route"] = op_rep.status
    rep.data["system_route"] = sys_rep.status
    if not agree:
        rep.status = "fail"
        rep.notes.append(f"{INTERNAL_INCONSISTENCY}: operator and system routes disagree")
    return rep


# ---------------------------------------------------------------------------
# Extended chains and the main theorem


def lifted_differential(h: Expr) -> KForm:
    """dh + h dt on the extended chart: the 1-form of the pair (dh, h)."""
    big = h.chart.extended()
    return KForm.one_form(big, [e.on_chart(big) for e in d_scalar(h).covector() + (h,)])


def verify_ext_chain(h: Expr, basis: ExtendedBasis, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Extended chain (dH_i, H_i) = EK_i^T (dH, H): the potentials are
    H_i = Y_i H + H k_i and the consistency condition is
    dH_i = K_i^T dH + H gamma_i.  The rank is that of the lifted 1-forms
    dH_i + H_i dt."""
    rep = CheckReport("extended-chain")
    dh = d_scalar(h)
    pots, forms = [], []
    for nm, ek in zip(basis.names, basis.operators):
        hi = ek.y_field.apply_to(h) + h * ek.k_scalar
        pots.append(hi)
        dhi = d_scalar(hi)
        resid = dhi - (op_transpose_apply(ek.k_op, dh) + ek.gamma.scale(h))
        ok = True
        for idx, e in resid.items():
            cert = zt(e)
            rep.require_zero(f"{nm} consistency [{idx}]", cert)
            ok = ok and cert.accepts_zero
        if not ok:
            rep.notes.append(f"{nm}: chain consistency fails")
        forms.append(lifted_differential(hi))
    rank = generic_rank(forms, zt)[0]
    rep.data.update(potentials=pots, forms=forms, rank=rank)
    if rank < len(basis.operators):
        note = f"(dH_i, H_i) pairs dependent: rank {rank} < {len(basis.operators)}"
        (rep.reject if rep.passed else rep.notes.append)(note)  # a rank is no residual: reject a pass
    return rep


def thm_main_check(
    h: Expr,
    basis: ExtendedBasis,
    j: JacobiStructure,
    zt: ZeroTester = ZeroTester(),
) -> CheckReport:
    """The dissipation-involution theorem, run as an executable statement.

    Preconditions: every basis element EJH-compatible, the extended algebra
    abelian, and H generating an extended chain.  Conclusions: the potentials
    are dissipated quantities in involution, {H_i, H} = 0 and {H_i, H_j} = 0,
    plus the X = E consequences of commutativity.
    """
    rep = CheckReport("dissipation-involution-theorem")
    pre = CheckReport("preconditions")
    names, ops = basis.names, basis.operators
    for nm, ek in zip(names, ops):
        sub = once(check_ejh, ek, j, zt)
        pre.merge(replace(sub, name=f"{nm} EJH-compatible"))
        if not sub.data.get("routes_agree", True):
            pre.reject(f"{INTERNAL_INCONSISTENCY} in EJH routes")
    lifts = [ek.lifted for ek in ops]
    for i, jj in combinations(range(len(ops)), 2):
        pre.merge(replace(commute_check(lifts[i], lifts[jj], zt), name=f"[{names[i]},{names[jj]}] = 0"))
    chain = once(verify_ext_chain, h, basis, zt)
    pre.merge(replace(chain, name="extended chain"))
    rep.merge(pre)
    if pre.status == "fail":
        return rep.reject("preconditions not met")
    pots = chain.data["potentials"]
    conc = CheckReport("conclusions")
    for i, hi in enumerate(pots):
        conc.require_zero(f"{{H{i+1},H}}", zt(jacobi_bracket(hi, h, j)))
    for i in range(len(pots)):
        for jj in range(i + 1, len(pots)):
            conc.require_zero(f"{{H{i+1},H{jj+1}}}", zt(jacobi_bracket(pots[i], pots[jj], j)))
    chart = basis.chart
    e_field = j.e_field
    for i in range(len(ops)):
        for jj in range(i + 1, len(ops)):
            ki, kj = ops[i].k_op, ops[jj].k_op
            v = op_apply(once(op_commutator, ki, kj), e_field)
            for a, e in enumerate(v.components):
                if not e.is_zero_expr():
                    conc.require_zero(f"K{i+1}K{jj+1}E = K{jj+1}K{i+1}E [{a}]", zt(e))
            gi, gj = ops[i].gamma.covector(), ops[jj].gamma.covector()
            gi_kje = dot(chart, gi, op_apply(kj, e_field).components)
            gj_kie = dot(chart, gj, op_apply(ki, e_field).components)
            conc.require_zero(f"g{i+1}(K{jj+1}E) = g{jj+1}(K{i+1}E)", zt(gi_kje - gj_kie))
            gi_yj = dot(chart, gi, ops[jj].y_field.components)
            gj_yi = dot(chart, gj, ops[i].y_field.components)
            conc.require_zero(f"g{i+1}(Y{jj+1}) = g{jj+1}(Y{i+1})", zt(gi_yj - gj_yi))
    rep.merge(conc)
    rep.data["potentials"] = pots
    return rep


# ---------------------------------------------------------------------------
# Liouville-Haantjes action-angle construction


def build_action_angle_basis(
    h_list: Sequence[Expr],
    chart: Chart,
    zt: ZeroTester = ZeroTester(),
) -> tuple:
    """Diagonal extended basis for a nondegenerate integrable system given
    in action-angle coordinates (angles, actions, Z).

    h_list[0] is the Hamiltonian; the remaining entries are the integrals
    H_j.  All must depend only on the action coordinates.  Returns
    (ExtendedBasis, CheckReport); the basis is [extended identity] + one
    diagonal operator per integral, with

        K_j = sum_i (nu_i^j / nu_i)(d_phi_i (x) dphi^i + d_J_i (x) dJ_i),
        Y_j = sum_i (nu_i^j / nu_i) J_i d_J_i,  gamma_j = 0, k_j = 0,

    where nu_i = dH/dJ_i and nu_i^j = dH_j/dJ_i.  The frequencies divide, so
    their zero loci are excluded and reported.  The report certifies the
    chain property H_j = Y_j H (an Euler identity: it requires each H_j
    homogeneous of degree one in the actions) and leaves algebra and EJH
    certification to `check_extended_algebra` / `check_ejh`.
    """
    if chart.kind[0] != "darboux-contact":
        raise ValueError("action-angle construction expects a contact chart (angles, actions, Z)")
    n = chart.n_pairs
    rep = CheckReport("action-angle-basis")
    h = h_list[0]
    action_idx = list(chart.p_indices)
    angle_idx = list(chart.q_indices)
    for m, hj in enumerate(h_list):
        for i in angle_idx + [chart.z_index]:
            if not hj.diff(i).is_zero_expr():
                rep.reject(f"H{m} depends on non-action coordinate {chart.coords[i]}")
    if not rep.passed:
        return None, rep
    hess = [[h.diff(a).diff(b) for b in action_idx] for a in action_idx]
    hdet = det(hess)
    cert = zt(hdet)
    if not cert.rejects_zero:
        rep.reject(f"degenerate Hessian det = {hdet}")
        return None, rep
    rep.details.append(("Hessian det nonzero", cert))
    freqs = [h.diff(i) for i in action_idx]
    singular = []
    for i, nu in enumerate(freqs):
        c = zt(nu)
        if not c.rejects_zero:
            rep.reject(f"frequency nu_{i+1} = {nu} vanishes identically")
            return None, rep
        if nu.as_rational() is None:
            singular.append(f"nu_{i+1} = {nu} = 0")
    rep.data["singular_locus"] = singular
    ops = [ext_identity(chart)]
    names = ["EK0"]
    for jdx, hj in enumerate(h_list[1:], start=1):
        rows = [[chart.zero()] * chart.dim for _ in range(chart.dim)]
        y = [chart.zero()] * chart.dim
        for i in range(n):
            c = hj.diff(action_idx[i]) / freqs[i]
            rows[angle_idx[i]][angle_idx[i]] = c
            rows[action_idx[i]][action_idx[i]] = c
            y[action_idx[i]] = c * chart.coord(action_idx[i])
        ops.append(ExtendedOperator(
            Operator11(chart, rows), VectorField(chart, y),
            KForm.zero(chart, 1), chart.zero(), name=f"EK{jdx}"))
        names.append(f"EK{jdx}")
        resid = ops[-1].y_field.apply_to(h) - hj
        rep.require_zero(f"Y_{jdx} H = H_{jdx} (action homogeneity)", zt(resid))
    basis = ExtendedBasis(ops, names=names)
    return basis, rep
