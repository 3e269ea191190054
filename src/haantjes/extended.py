"""Extended operators on pairs (vector field, function) and the extended
Jacobi-Haantjes machinery.

An extended operator is a quadruple (K, Y, gamma, k) acting as
(X, f) -> (K X + f Y, gamma(X) + k f).  The pair space carries the bracket
[(X,f),(Z,h)] = ([X,Z], X h - Z f) and torsions are defined exactly as in
the classical case.  They are function-bilinear, so vanishing on the
generator set {(d_i, 0)} + {(0, 1)} is vanishing identically; composite
arguments are contracted through the generator table.

The (Lambda, E)-sharp map contracts the FIRST slot of the bivector, the
convention under which the compatibility operator identity is equivalent to
the three-equation system checked by `check_ejh`; the dynamical sharp of
`jacobi.hamiltonian_vf` uses the opposite slot.  Both conventions are pinned
by calibration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .checks import CheckReport
from .geometry import (
    KForm,
    Operator11,
    VectorField,
    _haantjes_table,
    d_scalar,
    det,
    dot,
    lie_bracket,
    op_apply,
    op_compose,
    op_transpose_apply,
)
from .jacobi import JacobiStructure, jacobi_bracket
from .symexpr import Chart, Expr, ZeroTester, fn_symbol

__all__ = [
    "ExtPair",
    "ExtFormPair",
    "ExtendedBasis",
    "ExtendedOperator",
    "build_action_angle_basis",
    "check_ejh",
    "check_extended_algebra",
    "ext_apply",
    "ext_bracket",
    "ext_compose",
    "ext_compose_check",
    "ext_haantjes",
    "ext_identity",
    "ext_nijenhuis",
    "ext_transpose_apply",
    "lambda_e_sharp",
    "symbolic_rank",
    "thm_main_check",
    "verify_ext_chain",
]


@dataclass(frozen=True)
class ExtPair:
    """An element (X, f) of the extended module."""

    x_field: VectorField
    f_scalar: Expr

    @property
    def chart(self) -> Chart:
        return self.x_field.chart

    def __add__(self, other: "ExtPair") -> "ExtPair":
        return ExtPair(self.x_field + other.x_field, self.f_scalar + other.f_scalar)

    def __sub__(self, other: "ExtPair") -> "ExtPair":
        return ExtPair(self.x_field - other.x_field, self.f_scalar - other.f_scalar)

    def scale(self, f: Expr) -> "ExtPair":
        return ExtPair(self.x_field.scale(f), f * self.f_scalar)

    def is_zero_pair(self) -> bool:
        return self.x_field.is_zero_field() and self.f_scalar.is_zero_expr()

    def residuals(self):
        yield from enumerate(self.x_field.components)
        yield "f", self.f_scalar


@dataclass(frozen=True)
class ExtFormPair:
    """An element (alpha, f) of the dual module."""

    alpha: KForm
    f_scalar: Expr

    def pair(self, p: ExtPair) -> Expr:
        return dot(self.f_scalar.chart, self.alpha.covector() + (self.f_scalar,),
                   p.x_field.components + (p.f_scalar,))


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

    def scale(self, f: Expr) -> "ExtendedOperator":
        return ExtendedOperator(
            self.k_op.scale(f), self.y_field.scale(f), self.gamma.scale(f),
            f * self.k_scalar, name=f"f*{self.name}")

    def __add__(self, other: "ExtendedOperator") -> "ExtendedOperator":
        return ExtendedOperator(
            self.k_op + other.k_op, self.y_field + other.y_field,
            self.gamma + other.gamma, self.k_scalar + other.k_scalar,
            name=f"{self.name}+{other.name}")


def ext_identity(chart: Chart) -> ExtendedOperator:
    return ExtendedOperator(
        Operator11.identity(chart), VectorField.zero(chart),
        KForm.zero(chart, 1), chart.one(), name="EI")


def ext_apply(ek: ExtendedOperator, p: ExtPair) -> ExtPair:
    return ExtPair(
        op_apply(ek.k_op, p.x_field) + ek.y_field.scale(p.f_scalar),
        dot(ek.chart, ek.gamma.covector() + (ek.k_scalar,), _pair_coeffs(p)),
    )


def ext_bracket(a: ExtPair, b: ExtPair) -> ExtPair:
    return ExtPair(
        lie_bracket(a.x_field, b.x_field),
        a.x_field.apply_to(b.f_scalar) - b.x_field.apply_to(a.f_scalar),
    )


def ext_transpose_apply(ek: ExtendedOperator, fp: ExtFormPair) -> ExtFormPair:
    """EK^T (alpha, f) = (K^T alpha + f gamma, alpha(Y) + k f)."""
    return ExtFormPair(
        op_transpose_apply(ek.k_op, fp.alpha) + ek.gamma.scale(fp.f_scalar),
        dot(ek.chart, fp.alpha.covector() + (fp.f_scalar,),
            ek.y_field.components + (ek.k_scalar,)),
    )


def ext_compose(a: ExtendedOperator, b: ExtendedOperator) -> ExtendedOperator:
    """a b = (K_a K_b + Y_a (x) gamma_b, K_a Y_b + k_b Y_a,
              K_b^T gamma_a + k_a gamma_b, gamma_a(Y_b) + k_a k_b)."""
    return ExtendedOperator(
        op_compose(a.k_op, b.k_op) + Operator11.tensor(a.y_field, b.gamma),
        op_apply(a.k_op, b.y_field) + a.y_field.scale(b.k_scalar),
        op_transpose_apply(b.k_op, a.gamma) + b.gamma.scale(a.k_scalar),
        dot(a.chart, a.gamma.covector() + (a.k_scalar,), b.y_field.components + (b.k_scalar,)),
        name=f"{a.name}{b.name}",
    )


def _generators(chart: Chart):
    for i in range(chart.dim):
        yield ExtPair(VectorField.basis(chart, i), chart.zero())
    yield ExtPair(VectorField.zero(chart), chart.one())


def ext_compose_check(a: ExtendedOperator, b: ExtendedOperator, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Component formula vs direct composition on the generators."""
    rep = CheckReport("ext-compose-consistency")
    ab = ext_compose(a, b)
    for gi, g in enumerate(_generators(a.chart)):
        resid = ext_apply(ab, g) - ext_apply(a, ext_apply(b, g))
        for label, e in resid.residuals():
            if not e.is_zero_expr():
                rep.require_zero(f"gen {gi} [{label}]", zt(e))
    return rep


def ext_nijenhuis_eval(ek: ExtendedOperator, a: ExtPair, b: ExtPair) -> ExtPair:
    ka, kb = ext_apply(ek, a), ext_apply(ek, b)
    out = ext_bracket(ka, kb)
    out = out - ext_apply(ek, ext_bracket(ka, b))
    out = out - ext_apply(ek, ext_bracket(a, kb))
    out = out + ext_apply(ek, ext_apply(ek, ext_bracket(a, b)))
    return out


def ext_nijenhuis(ek: ExtendedOperator) -> dict:
    """Torsion table on the generator pairs; bilinearity gives all values."""
    gens = list(_generators(ek.chart))
    table = {}
    for u in range(len(gens)):
        for v in range(u + 1, len(gens)):
            table[(u, v)] = ext_nijenhuis_eval(ek, gens[u], gens[v])
    return table


def _pair_coeffs(p: ExtPair) -> tuple:
    """Coefficients of an ExtPair in the generator basis."""
    return p.x_field.components + (p.f_scalar,)


def _as_pair(coeffs: Sequence[Expr]) -> ExtPair:
    return ExtPair(VectorField(coeffs[0].chart, coeffs[:-1]), coeffs[-1])


def ext_haantjes(ek: ExtendedOperator) -> dict:
    """Extended Haantjes torsion on the generator pairs, factored through
    the Nijenhuis table (function bilinearity): with
    s(A, B) = EK tau(A, B) - tau(A, EK B), H(A, B) = EK s(A, B) - s(EK A, B)."""
    chart = ek.chart
    gens = list(_generators(chart))
    tau = {uv: _pair_coeffs(t) for uv, t in ext_nijenhuis(ek).items()}
    cols = [_pair_coeffs(ext_apply(ek, g)) for g in gens]
    return {uv: _as_pair(h) for uv, h in _haantjes_table(chart, cols, tau, len(gens)).items()}


def is_ext_haantjes(ek: ExtendedOperator, zt: ZeroTester = ZeroTester()) -> CheckReport:
    rep = CheckReport(f"extended-haantjes {ek.name}")
    for (u, v), pair in ext_haantjes(ek).items():
        for label, e in pair.residuals():
            if not e.is_zero_expr():
                rep.require_zero(f"H[{u},{v}][{label}]", zt(e))
    return rep


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


def check_extended_algebra(basis: ExtendedBasis, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Each generator extended-Haantjes, module closure with fresh abstract
    coefficients, ring closure, and commutativity."""
    rep = CheckReport("extended-algebra")
    chart = basis.chart
    ops = basis.operators
    names = basis.names
    # one torsion per distinct operator, keyed by its parts (the report's
    # labels do not depend on the operator's name)
    seen: dict = {}

    def torsion_report(ek: ExtendedOperator) -> CheckReport:
        key = (ek.k_op.matrix, ek.y_field.components, ek.gamma.covector(), ek.k_scalar)
        if key not in seen:
            seen[key] = is_ext_haantjes(ek, zt)
        return seen[key]

    for nm, ek in zip(names, ops):
        sub = torsion_report(ek)
        rep.merge(CheckReport(f"generator {nm}", status=sub.status, details=sub.details))
    l1 = fn_symbol(chart, "_lam1")
    l2 = fn_symbol(chart, "_lam2")
    for i, ek in enumerate(ops):
        sub = torsion_report(ek.scale(l1))
        rep.merge(CheckReport(f"module l1*{names[i]}", status=sub.status, details=sub.details))
        for j in range(i + 1, len(ops)):
            comb = ek.scale(l1) + ops[j].scale(l2)
            sub = torsion_report(comb)
            rep.merge(CheckReport(f"module l1*{names[i]}+l2*{names[j]}", status=sub.status,
                                  details=sub.details))
    ring = {}
    for i in range(len(ops)):
        for j in range(len(ops)):
            ring[i, j] = ext_compose(ops[i], ops[j])
            sub = torsion_report(ring[i, j])
            rep.merge(CheckReport(f"ring {names[i]}{names[j]}", status=sub.status,
                                  details=sub.details))
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            comm = _ext_commutator_residuals(ring[i, j], ring[j, i])
            for label, e in comm:
                if not e.is_zero_expr():
                    rep.require_zero(f"[{names[i]},{names[j]}] {label}", zt(e))
    rep._update_certainty()
    return rep


def _ext_commutator_residuals(ab: ExtendedOperator, ba: ExtendedOperator):
    """The components of [a, b] = ab - ba, labelled by part, from the two
    products."""
    for i, row in enumerate(ab.k_op.matrix):
        for j, e in enumerate(row):
            yield f"K[{i}][{j}]", e - ba.k_op.matrix[i][j]
    for i, e in enumerate(ab.y_field.components):
        yield f"Y[{i}]", e - ba.y_field[i]
    for i in range(ab.chart.dim):
        yield f"gamma[{i}]", ab.gamma[(i,)] - ba.gamma[(i,)]
    yield "k", ab.k_scalar - ba.k_scalar


# ---------------------------------------------------------------------------
# The (Lambda, E)-sharp map and EJH compatibility


def lambda_e_sharp(j: JacobiStructure, fp: ExtFormPair) -> ExtPair:
    """(alpha, f) -> (Lambda(alpha, .) + f E, -alpha(E)); first-slot sharp."""
    chart = j.chart
    lam = j.full_matrix()
    co = fp.alpha.covector()
    x = VectorField(chart, [dot(chart, co, col) for col in zip(*lam)])
    return ExtPair(x + j.e_field.scale(fp.f_scalar), -dot(chart, co, j.e_field.components))


def _form_generators(chart: Chart):
    for i in range(chart.dim):
        yield ExtFormPair(KForm.d_coord(chart, i), chart.zero())
    yield ExtFormPair(KForm.zero(chart, 1), chart.one())


def check_ejh(ek: ExtendedOperator, j: JacobiStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """EJH compatibility EK o (Lambda,E)# = (Lambda,E)# o EK^T.

    Certified twice: the operator identity on the generating form pairs, and
    independently the equivalent three-equation system over coordinate
    coforms.  The two routes must agree; a disagreement is an internal
    inconsistency of the toolkit, not a property of the input.
    """
    chart = ek.chart
    op_rep = CheckReport("ejh-operator-route")
    for gi, fp in enumerate(_form_generators(chart)):
        lhs = ext_apply(ek, lambda_e_sharp(j, fp))
        rhs = lambda_e_sharp(j, ext_transpose_apply(ek, fp))
        for label, e in (lhs - rhs).residuals():
            if not e.is_zero_expr():
                op_rep.require_zero(f"gen {gi} [{label}]", zt(e))
    sys_rep = CheckReport("ejh-system-route")
    lam = j.lam
    e_field = j.e_field
    coforms = [KForm.d_coord(chart, i) for i in range(chart.dim)]
    kt = [op_transpose_apply(ek.k_op, a) for a in coforms]
    alpha_y = [dot(chart, a.covector(), ek.y_field.components) for a in coforms]
    alpha_e = [dot(chart, a.covector(), e_field.components) for a in coforms]
    kt_e = [dot(chart, kta.covector(), e_field.components) for kta in kt]
    for a in range(chart.dim):
        for b in range(chart.dim):
            resid = (lam.pair(kt[a], coforms[b]) + alpha_y[a] * alpha_e[b]
                     - lam.pair(coforms[a], kt[b]) + alpha_y[b] * alpha_e[a])
            if not resid.is_zero_expr():
                sys_rep.require_zero(f"eq1[{a},{b}]", zt(resid))
    for a in range(chart.dim):
        resid = lam.pair(ek.gamma, coforms[a]) - kt_e[a] + ek.k_scalar * alpha_e[a]
        if not resid.is_zero_expr():
            sys_rep.require_zero(f"eq2[{a}]", zt(resid))
    gamma_e = dot(chart, ek.gamma.covector(), e_field.components)
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
        rep.notes.append("internal-inconsistency: operator and system routes disagree")
    return rep


# ---------------------------------------------------------------------------
# Extended chains and the main theorem


def symbolic_rank(rows: Sequence[Sequence[Expr]], zt: ZeroTester) -> int:
    """Generic rank via minors: a minor counts when its determinant is
    provably nonzero, or (numeric fallback, probable grade) when a seeded
    sample rejects zero."""
    if not rows:
        return 0
    ncols = len(rows[0])
    for size in range(min(len(rows), ncols), 0, -1):
        for rsel in combinations(range(len(rows)), size):
            for csel in combinations(range(ncols), size):
                minor = [[rows[r][c] for c in csel] for r in rsel]
                d = det(minor)
                if d.is_zero_expr():
                    continue
                if zt(d).rejects_zero:
                    return size
    return 0


def verify_ext_chain(h: Expr, basis: ExtendedBasis, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Extended chain (dH_i, H_i) = EK_i^T (dH, H): the potentials are
    H_i = Y_i H + H k_i and the consistency condition is
    dH_i = K_i^T dH + H gamma_i."""
    rep = CheckReport("extended-chain")
    chart = basis.chart
    dh = d_scalar(h)
    pots = []
    rows = []
    for nm, ek in zip(basis.names, basis.operators):
        hi = ek.y_field.apply_to(h) + h * ek.k_scalar
        pots.append(hi)
        resid = d_scalar(hi) - (op_transpose_apply(ek.k_op, dh) + ek.gamma.scale(h))
        ok = True
        for idx, e in resid.items():
            cert = zt(e)
            rep.require_zero(f"{nm} consistency [{idx}]", cert)
            ok = ok and cert.accepts_zero
        if not ok:
            rep.notes.append(f"{nm}: chain consistency fails")
        rows.append([d_scalar(hi)[(i,)] for i in range(chart.dim)] + [hi])
    rank = symbolic_rank(rows, zt)
    rep.data["rank"] = rank
    rep.data["potentials"] = pots
    if rank < len(basis.operators):
        rep.notes.append(f"(dH_i, H_i) pairs dependent: rank {rank} < {len(basis.operators)}")
        if rep.status == "pass":
            rep.status = "fail"
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
    for nm, ek in zip(basis.names, basis.operators):
        sub = check_ejh(ek, j, zt)
        pre.require(f"{nm} EJH-compatible", sub.passed)
        if not sub.data.get("routes_agree", True):
            pre.reject("internal inconsistency in EJH routes")
    ops = basis.operators
    for i in range(len(ops)):
        for jj in range(i + 1, len(ops)):
            comm = _ext_commutator_residuals(ext_compose(ops[i], ops[jj]), ext_compose(ops[jj], ops[i]))
            bad = [lab for lab, e in comm if not zt(e).accepts_zero]
            pre.require(f"[{basis.names[i]},{basis.names[jj]}] = 0", not bad,
                        note=f"noncommuting parts: {bad[:3]}")
    chain = verify_ext_chain(h, basis, zt)
    pre.require("extended chain", chain.passed)
    rep.merge(pre)
    if not pre.passed:
        rep.reject("preconditions not met")
        return rep
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
            v = op_apply(op_compose(ki, kj) - op_compose(kj, ki), e_field)
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
