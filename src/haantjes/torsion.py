"""Nijenhuis and Haantjes torsions, Haantjes algebras and chains.

Torsions are reported on the coordinate frame.  The frame tables exploit
tensoriality (tested against the defining formulas, expanded literally on
arbitrary vector fields) to contract composite arguments through the tables
instead of re-deriving brackets of composite fields.

Each Nijenhuis component is one dot over the entry partials of K:
tau(e_i, e_j)^r = sum_c K^c_i d_c K^r_j - K^c_j d_c K^r_i
                        - K^r_c (d_i K^c_j - d_j K^c_i).
The Haantjes table is factored: with s(X, Y) = K tau(X, Y) - tau(X, KY),
H(X, Y) = K s(X, Y) - s(KX, Y), which is (K_out - K_slot1)(K_out - K_slot2)
tau.  A frame component s(e_a, e_j)^r is built the first time H reads it.

Both tables come from one builder in a packed ring (`symexpr._PackedRing`)
set up once per torsion.  Each distinct nonzero entry of K up to sign, with
a positive leading coefficient, has all its partials from one gradient
(`_jet`, the one place where an entry is differentiated) and is packed once
with its nonzero partials; an entry -e takes the negated jet of e.  Jets go
through the run memo (`checks.once`, keyed by the chart and the entry's
terms), so a run takes one gradient per distinct entry, however many
torsions hold it.  K's nonzero entries are indexed by row and by column, so
every tau, s and H component is one dot over the pairs of nonzero factors
only, each pair
multiplied term by term, and a component with no such pair is zero without
a dot.  K's entries -e and their partials are negated through the ring
(`_PackedRing.neg`).  The ring's variables are the top-level atoms of K's
entries and of those partials, in canonical atom order; each owns one
signed digit of a Python int, a monomial is one int, and a monomial product
is one integer addition.  Every H term is a product of four factors from K
and its partials, so a digit is sized for four times the largest |exponent|
of those inputs and cannot overflow.  Inverse-power and exp atoms are
opaque variables: their products need no expansion, and exp(u) exp(v)
becomes exp(u + v) when a component is decoded to canonical terms.  Only
the components that leave the builder are decoded, and of those only the
nonzero packed ones (a decoded one can still cancel: exp atoms merge).
Every tau, s and H component of the expanded build keeps the kernel's
budget: it raises BudgetError exactly when its canonical form exceeds
NODE_BUDGET nodes (a packed component has at least as many terms as its
canonical form, so the cheap term-count guard comes first).

The builder, `_components`, runs over a ring it is given, and each table is
first decided by its shape, once per run (`_shape_is_zero`, through the run
memo).  The shape is (n, haantjes, the entries as (r, c, jet, sign), the
jets relabelled by `symexpr._relabel`): each multi-term jet component (an
entry of K or a partial) is one free variable, shared by components equal
up to sign, and every variable and every atom of a monomial component is a
label (_V, i), numbered by first occurrence, each entry read before its
partials.  Sending each label back to what it stands for is a ring
homomorphism psi onto the expanded ring of the same jets, and the builder
applies only ring operations to the jets (pack, neg, dot; a zero test only
skips a zero factor, which adds nothing), so psi maps each shape component
to the packed component the expanded build makes.  A table whose shape's
components are all zero is zero and is never expanded, so it raises no
BudgetError that its expanded build would have raised.  Two tables of one
shape differ by a bijection of free variables, so they are zero together:
the generators of an appendix family, and their module member h*A + B,
take one shape pass per run.  Otherwise the expanded build decides, as it
would alone; the shape pass stops at its first nonzero component (an H
component, or a tau one for the Nijenhuis table), and a BudgetError in it
(a label weighs one node, no more than what it stands for) leaves the
decision to the expanded build too.  The shape loses only relations between
multi-term jet components, such as those that tie the partials of an entry
D*g to D and g; for an operator whose jet components are all monomials,
such as each appendix generator, the shape pass is the expanded build up to
labels.  No expression holds a label, so no model can name one.

H is homogeneous of degree 4 under scaling by a function, H_{fK} = f^4 H_K
(Bogoyavlenskij, J. Math. Phys. 45, 2004; Tempesta and Tondo, Ann. Mat. Pura
Appl. 201, 2022).  So an algebra check reports f*K with the torsion of K, and
decides f*A + g*B = g (h*A + B) from H of h*A + B, with one abstract
coefficient h = f/g.  By the same authors, H_K = 0 implies H_{p(K)} = 0 for
every polynomial p(K) = sum_j a_j K^j whose coefficients a_j are functions;
so the ring member K*K of a Haantjes generator K reports the torsion of K,
as surely as K's own report (a probably_zero premise gives a probably_zero
conclusion).  A generator that fails says nothing about its square, which
gets a torsion of its own.

A commutator [A, B] comes from `geometry.op_commutator` through the run
memo, so the `commute` directive, the abelian test of an algebra check and
the preconditions of `thm_main` share one per pair in a run.  When an
algebra check asks for commutativity and [A, B] cancels structurally, A*B
and B*A sum the same products: B*A reads the report of A*B, uncomposed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .checks import CheckReport, memo_scope, once
from .geometry import (
    KForm,
    Operator11,
    VectorField,
    d_scalar,
    dot,
    exterior_derivative,
    op_commutator,
    op_compose,
    op_transpose_apply,
    wedge,
)
from .symexpr import (
    BudgetError,
    Chart,
    Expr,
    ZeroTester,
    _C,
    _F,
    _PackedRing,
    _div,
    _relabel,
    _t_atom,
    _t_dot,
    _t_grad,
    fn_symbol,
    weakest,
)

__all__ = [
    "HaantjesBasis",
    "VectorValued2Form",
    "check_haantjes_algebra",
    "commute_check",
    "haantjes_torsion",
    "is_haantjes",
    "nijenhuis_torsion",
    "verify_chain",
]


class VectorValued2Form:
    """tau(X, Y) on the frame: one VectorField per sorted index pair."""

    __slots__ = ("chart", "values")

    def __init__(self, chart: Chart, values: dict):
        self.chart = chart
        self.values = values  # (i, j) i<j -> VectorField

    def __getitem__(self, pair) -> VectorField:
        i, j = pair
        if i == j:
            return VectorField.zero(self.chart)
        if i < j:
            return self.values.get((i, j), VectorField.zero(self.chart))
        return -self.values.get((j, i), VectorField.zero(self.chart))

    def is_zero(self) -> bool:
        return all(v.is_zero_field() for v in self.values.values())

    def components(self):
        for (i, j), v in sorted(self.values.items()):
            for k, c in enumerate(v.components):
                if not c.is_zero_expr():
                    yield (i, j, k), c


def nijenhuis_torsion(k: Operator11) -> VectorValued2Form:
    """tau_K on the frame, one packed dot per component (see the module
    docstring)."""
    return VectorValued2Form(k.chart, _frame_table(k, haantjes=False))


def haantjes_torsion(k: Operator11) -> VectorValued2Form:
    """H_K on the frame, factored through the Nijenhuis table.

    With s(X, Y) = K tau(X, Y) - tau(X, KY), H(X, Y) = K s(X, Y) - s(KX, Y).
    tau is tensorial, so s(K e_i, e_j) = sum_a K^a_i s(e_a, e_j) and
    tau(e_a, K e_j) = sum_b K^b_j tau(e_a, e_b); tensoriality itself is
    exercised by the test suite against the literal evaluation.
    """
    return VectorValued2Form(k.chart, _frame_table(k, haantjes=True))


def _jet(chart: Chart, u: tuple) -> tuple:
    """The partials, by coordinate, of the entry with terms u on chart, from
    one gradient: the one place where an entry of K is differentiated.
    `_frame_table` takes each jet through the run memo, so a run takes one
    gradient per distinct entry up to sign, however many torsions hold it."""
    return tuple(_t_grad(u, range(chart.dim)))


def _frame_table(k: Operator11, haantjes: bool) -> dict:
    """The nonzero components {(i, j): VectorField}, i < j, of the Nijenhuis
    table of k, or with `haantjes` of its Haantjes table (see the module
    docstring): one jet per distinct entry up to sign, taken through the
    run memo (`_jet`), and the table's shape decided once per run; unless
    that is zero, `_components` over the expanded ring, each component one
    plain packed dot."""
    chart, n = k.chart, k.chart.dim
    # One jet per distinct nonzero entry up to sign: entries whose terms
    # agree up to sign share the jet of u, their terms with a positive
    # leading coefficient, and the other sign negates it.
    index = {}  # u -> the position of its jet
    jets = []  # (u, its partials by coordinate)
    entries = []  # (r, c, the position of the jet of K^r_c, whether its leading coefficient is positive)
    for r, row in enumerate(k.matrix):
        for c, e in enumerate(row):
            if t := e.terms:
                up = t[0][1] > 0
                u = t if up else (-e).terms
                if (at := index.get(u)) is None:
                    at = index[u] = len(jets)
                    jets.append((u, *once(_jet, chart, u)))
                entries.append((r, c, at, up))
    inputs = [f for jet in jets for f in jet]
    if once(_shape_is_zero, (n, haantjes, tuple(entries), _relabel(inputs)[0])):
        return {}
    # every H term is a product of four factors from K and its partials
    ring = _PackedRing(inputs, 4)
    table = {}
    for ij, p in _components(ring, jets, entries, n, haantjes):
        table.setdefault(ij, []).append(p)
    values = {}
    for ij, comps in table.items():
        if any(comps):
            # exp atoms can merge, and then cancel, on decode
            v = VectorField(chart, [Expr(chart, ring.terms(p) if p else ()) for p in comps])
            if not v.is_zero_field():
                values[ij] = v
    return values


def _shape_is_zero(shape: tuple) -> bool:
    """Whether the table of a shape (n, haantjes, entries, the relabelled
    jets one after another) is zero, by `_components` up to its first
    nonzero component; a BudgetError leaves it undecided, which reads False."""
    n, haantjes, entries, pattern = shape
    jets = [pattern[i:i + n + 1] for i in range(0, len(pattern), n + 1)]
    try:
        return not any(p for _, p in _components(_PackedRing(pattern, 4), jets, entries, n, haantjes))
    except BudgetError:
        return False


def _components(ring: _PackedRing, jets: Sequence[tuple], entries: list, n: int, haantjes: bool):
    """Yield ((i, j), component r) for i < j and then r, in that order, of the
    Nijenhuis table, or with `haantjes` of the Haantjes table, packed in ring:
    the jets (u, d_0 u, ..., d_{n-1} u) packed once, the partials held as
    dk[r][c][x] (None when zero), no dot for a component whose pair list is
    empty, and each s component built the first time an H dot reads it.
    Only `pack`, `neg` and `dot` of the ring are called, which is what lets
    a shape's ring stand in for the expanded one.  A caller that stops early
    builds no later component."""
    rn = range(n)
    # (jet, sign) -> (K^r_c, -K^r_c, [d_x K^r_c, or None when it is zero]), each packed once
    packed = {}
    for at, (u, *ds) in enumerate(jets):
        p = ring.pack(u)
        packed[at, True] = (p, ring.neg(p), [ring.pack(d) if d else None for d in ds])
    none = [None] * n
    dk = [[none] * n for _ in rn]  # dk[r][c][x] = d_x K^r_c, or None when it is zero
    rows = [[] for _ in rn]  # the nonzero entries K^r_c of row r, as (c, K^r_c, -K^r_c)
    cols = [[] for _ in rn]  # ... of column c, as (r, K^r_c, -K^r_c)
    for r, c, at, up in entries:
        if (jet := packed.get((at, up))) is None:
            p, q, ds = packed[at, not up]
            jet = packed[at, up] = (q, p, [d and ring.neg(d) for d in ds])
        rows[r].append((c, jet[0], jet[1]))
        cols[c].append((r, jet[0], jet[1]))
        dk[r][c] = jet[2]
    dot = ring.dot
    # tau[i][j] for i < j; tau(e_j, e_i) = -tau(e_i, e_j) is read with the other sign of K
    tau = [[None] * n for _ in rn]
    for i in rn:
        for j in range(i + 1, n):
            comps = tau[i][j] = []
            for r in rn:
                dri, drj = dk[r][i], dk[r][j]
                pairs = []
                for c, p, _ in cols[i]:
                    if d := drj[c]:
                        pairs.append((p, d))
                for c, _, q in cols[j]:
                    if d := dri[c]:
                        pairs.append((q, d))
                for c, p, q in rows[r]:
                    dc = dk[c]
                    if d := dc[j][i]:
                        pairs.append((q, d))
                    if d := dc[i][j]:
                        pairs.append((p, d))
                v = dot(pairs) if pairs else {}
                comps.append(v)
                if not haantjes:
                    yield (i, j), v
    if not haantjes:
        return
    s = [[[None] * n for _ in rn] for _ in rn]  # s[a][j][r] = s(e_a, e_j)^r, built the first time H reads it

    def s_at(a: int, j: int, r: int) -> dict:
        if (out := s[a][j][r]) is None:
            pairs = []
            if a < j:
                t = tau[a][j]
                for c, p, _ in rows[r]:
                    if v := t[c]:
                        pairs.append((p, v))
            elif a > j:
                t = tau[j][a]
                for c, _, q in rows[r]:
                    if v := t[c]:
                        pairs.append((q, v))
            for b, p, q in cols[j]:
                if a < b:
                    if v := tau[a][b][r]:
                        pairs.append((q, v))
                elif a > b:
                    if v := tau[b][a][r]:
                        pairs.append((p, v))
            out = s[a][j][r] = dot(pairs) if pairs else {}
        return out

    for i in rn:
        for j in range(i + 1, n):
            for r in rn:
                pairs = []
                for c, p, _ in rows[r]:
                    if v := s_at(i, j, c):
                        pairs.append((p, v))
                for a, _, q in cols[i]:
                    if v := s_at(a, j, r):
                        pairs.append((q, v))
                yield (i, j), dot(pairs) if pairs else {}


def is_haantjes(k: Operator11, zt: ZeroTester = ZeroTester()) -> CheckReport:
    rep = CheckReport("haantjes-torsion-vanishes")
    h = haantjes_torsion(k)
    if h.is_zero():
        rep.details.append(("all components", "structurally zero"))
        return rep
    for (i, j, c), e in h.components():
        rep.require_zero(f"H[{i},{j}]^{c}", zt(e))
    return rep


@dataclass
class HaantjesBasis:
    """An ordered family of operator fields proposed as a Haantjes basis."""

    operators: list
    abelian_required: bool = True
    names: Optional[list] = None

    def __post_init__(self):
        if not self.operators:
            raise ValueError("empty basis")
        chart = self.operators[0].chart
        for k in self.operators:
            if k.chart != chart:
                raise ValueError("basis operators on different charts")
        if self.names is None:
            self.names = [f"K{i+1}" for i in range(len(self.operators))]

    @property
    def chart(self) -> Chart:
        return self.operators[0].chart

    def __hash__(self):
        # a memo key: equal bases have equal operators and names
        return hash((tuple(self.operators), tuple(self.names)))


def check_haantjes_algebra(basis: HaantjesBasis, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Generators Haantjes, function-linear module closure, ring closure
    under composition, and (optionally) commutativity.  By H_{fK} = f^4 H_K,
    f*K is decided by K itself and f*A + g*B by h*A + B with one abstract
    coefficient h; by H_K = 0 => H_{p(K)} = 0, K*K of a Haantjes generator
    K is decided by K too (Bogoyavlenskij 2004; Tempesta and Tondo 2022)."""
    return _algebra_check("haantjes-algebra", basis.chart, basis.operators, basis.names,
                          basis.abelian_required, zt)


@memo_scope()
def _algebra_check(name: str, chart: Chart, ops: Sequence[Operator11], names: Sequence[str],
                   abelian: bool, zt: ZeroTester) -> CheckReport:
    """The algebra loop of `check_haantjes_algebra`.  The operators live on
    chart or on an extension of it; the module coefficients are functions on
    chart, lifted to the operators' chart.  One torsion per distinct
    operator, through the memo, and one commutator per pair, shared with
    `commute_check`; with `abelian`, a pair whose commutator cancels
    structurally composes one ring product (module docstring)."""
    rep = CheckReport(name)

    def member(label: str, sub: CheckReport):
        rep.merge(replace(sub, name=label))

    gens = [once(is_haantjes, k, zt) for k in ops]
    for nm, g in zip(names, gens):
        member(f"generator {nm}", g)
    # H_{fK} = f^4 H_K, so f*K shares the torsion of K; and f A + g B =
    # g (h A + B) with h = f/g, so H_{fA+gB} = g^4 H_{hA+B}
    h = fn_symbol(chart, "_modf").on_chart(ops[0].chart)
    for i, (nm, k) in enumerate(zip(names, ops)):
        member(f"module f*{nm}", gens[i])
        for j in range(i + 1, len(ops)):
            member(f"module f*{nm}+g*{names[j]}", once(is_haantjes, k.scale(h) + ops[j], zt))
    # H_K = 0 gives H_{p(K)} = 0 for every polynomial p in K with function
    # coefficients, so K*K shares the verdict of a Haantjes generator K; and
    # B*A = A*B when [A, B] cancels structurally
    ring = {}
    for i, ki in enumerate(ops):
        for j, kj in enumerate(ops):
            if i == j and gens[i].passed:
                ring[i, j] = gens[i]
            elif j < i and abelian and once(op_commutator, kj, ki).is_zero_op():
                ring[i, j] = ring[j, i]
            else:
                ring[i, j] = once(is_haantjes, op_compose(ki, kj), zt)
            member(f"ring {names[i]}*{names[j]}", ring[i, j])
    if abelian:
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                _require_zero_entries(rep, f"[{names[i]},{names[j]}]", once(op_commutator, ops[i], ops[j]), zt)
    return rep


def commute_check(a: Operator11, b: Operator11, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """[A, B] = AB - BA vanishes entry by entry.  The commutator comes
    through the run memo, so a `commute` directive, the abelian test of an
    algebra and `thm_main` share one per pair."""
    return _require_zero_entries(CheckReport("commute"), "", once(op_commutator, a, b), zt)


def _require_zero_entries(rep: CheckReport, prefix: str, m: Operator11, zt: ZeroTester) -> CheckReport:
    """Require each entry of m that is not structurally zero to vanish."""
    for a, row in enumerate(m.matrix):
        for b, e in enumerate(row):
            if not e.is_zero_expr():
                rep.require_zero(f"{prefix}[{a}][{b}]", zt(e))
    return rep


# ---------------------------------------------------------------------------
# Chains


def _radial_potential(omega: KForm) -> Optional[Expr]:
    """H(x) = int_0^1 sum_j omega_j(t x) x^j dt, exact for polynomial forms:
    a term of omega_j of degree d in the coordinates scales as t^d, so it
    adds itself times x^j / (d + 1).  None when a term is not polynomial or
    holds an abstract function of the coordinates."""
    chart, pairs = omega.chart, []
    for (j,), e in omega.components.items():
        if not e.is_polynomial() or any(a[0] == _F and a[2] for m, _ in e.terms for a, _ in m):
            return None
        scaled = tuple((m, _div(c, 1 + sum(k for a, k in m if a[0] == _C))) for m, c in e.terms)
        pairs.append((scaled, _t_atom((_C, j))))
    t = _t_dot(pairs)
    return Expr(chart, t) if t else chart.zero()


def generic_rank(forms: Sequence[KForm], zt: ZeroTester) -> tuple:
    """Largest k with a provably nonzero k-fold wedge.

    Returns (rank, alpha_1 ^ ... ^ alpha_m); the full wedge is built on the
    way, and past the rank it is wedged on without zero tests.
    """
    rank, w = 0, None
    for k, f in enumerate(forms):
        w = f if k == 0 else wedge(w, f)
        if rank == k and any(zt(e).tag == "proven_nonzero" for _, e in w.items()):
            rank = k + 1
    return rank, w


def verify_chain(h: Expr, basis: HaantjesBasis, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """Check d(K_i^T dH) = 0 per operator, recover potentials where the
    forms are polynomial, and test independence plus Frobenius integrability
    of the chain codistribution.  ``data`` holds the potentials (None where
    none was recovered), the forms K_i^T dH and their rank."""
    dh = d_scalar(h)
    rep = CheckReport("chain")
    forms, pots = [], []
    for nm, k in zip(basis.names, basis.operators):
        omega = op_transpose_apply(k, dh)
        forms.append(omega)
        closed = weakest(zt(e) for _, e in exterior_derivative(omega).items())
        rep.require_zero(f"closed {nm}", closed)
        # potentials only when closedness is proven and d(pot) = omega exactly
        pot = _radial_potential(omega) if closed.is_proven_zero else None
        if pot is not None and not weakest(zt(e) for _, e in (d_scalar(pot) - omega).items()).is_proven_zero:
            pot = None
        pots.append(pot)
    rank, big = generic_rank(forms, zt)
    rep.data.update(potentials=pots, forms=forms, rank=rank)
    if rank < len(forms):
        note = f"chain forms not independent: rank {rank} < {len(forms)}"
        (rep.reject if rep.passed else rep.notes.append)(note)  # a rank is no residual: reject a pass
    if rep.passed:
        # Frobenius: d alpha_i ^ alpha_1 ^ ... ^ alpha_m = 0 for each i
        frob = CheckReport("frobenius-codistribution")
        for i, a in enumerate(forms):
            for idx, e in wedge(exterior_derivative(a), big).items():
                frob.require_zero(f"d a{i+1} ^ a1..am [{idx}]", zt(e))
        rep.merge(frob)
    return rep
