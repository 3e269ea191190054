import inspect
import pathlib
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

import haantjes
import haantjes.symexpr as sx
import haantjes.torsion as torsion
from haantjes.checks import memo_scope
from haantjes.cli import parse_model
from haantjes.geometry import (
    KForm,
    Operator11,
    VectorField,
    invert_matrix,
    lie_bracket,
    op_apply,
    op_commutator,
    op_compose,
)
from haantjes.symexpr import ZeroTester, exp, fn_symbol, is_zero
from haantjes.torsion import (
    HaantjesBasis,
    check_haantjes_algebra,
    commute_check,
    haantjes_torsion,
    is_haantjes,
    nijenhuis_torsion,
    verify_chain,
)

from conftest import commuting_pair, declared, rand_operator, rand_poly, self_only_matrix
from oracle import defined_torsions, jet_add, jet_at, jet_mul, one_jet, rational_points, to_sympy, torsions_match


MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"


def nijenhuis_eval(k, x, y):
    """tau_K(X, Y) = K^2[X,Y] + [KX,KY] - K([X,KY] + [KX,Y]), literally."""
    kx, ky = op_apply(k, x), op_apply(k, y)
    out = op_apply(k, op_apply(k, lie_bracket(x, y)))
    out = out + lie_bracket(kx, ky)
    return out - op_apply(k, lie_bracket(x, ky) + lie_bracket(kx, y))


def haantjes_eval(k, x, y):
    """H_K(X, Y) = K^2 tau(X, Y) + tau(KX, KY) - K(tau(X, KY) + tau(KX, Y)),
    the torsion arguments expanded literally: the slow route that checks the
    frame tables."""
    kx, ky = op_apply(k, x), op_apply(k, y)
    out = op_apply(k, op_apply(k, nijenhuis_eval(k, x, y)))
    out = out + nijenhuis_eval(k, kx, ky)
    return out - op_apply(k, nijenhuis_eval(k, x, ky) + nijenhuis_eval(k, kx, y))


@pytest.fixture
def C2():
    return sx.Chart("R2", ("x", "y"))


def _appendix_pattern(name):
    """The nonzero entries of operator `name` in models/appendix_families.hj."""
    k = declared(parse_model((MODELS / "appendix_families.hj").read_text()), name)
    return lambda n, r, c: not k.matrix[r][c].is_zero_expr()


# (n, r, c) -> whether entry K^r_c of an n x n operator may be nonzero
_MASKS = {
    "upper": lambda n, r, c: r <= c,
    "lower": lambda n, r, c: r >= c,
    "block": lambda n, r, c: r // 2 == c // 2,
    "nilpotent": lambda n, r, c: (r, c) == (n - 1, 0),
    "diagonal+nilpotent": lambda n, r, c: r == c or (r, c) == (n - 1, 0),
    "F1": _appendix_pattern("F1A"),
    "F2": _appendix_pattern("F2A"),
    "F3": _appendix_pattern("F3A"),
}


def _atom_entry(chart, rng):
    """A random polynomial times one factor that reaches a decode path of
    the packed ring: an inverse-power (_W) atom, a negative coordinate
    power, an abstract function whose partials are new atoms, exp atoms
    whose products cancel or merge, or a power of x whose fourfold product
    needs a wider digit than the power alone."""
    x, y = chart.coord(0), chart.coord(1)
    factors = (x / (y + 1), x**-3, fn_symbol(chart, "f"), exp(x), exp(-x), x**9)
    return rand_poly(chart, rng, terms=1) * factors[rng.randrange(len(factors))]


_SPARSE_CASES = [pytest.param(mask, dim, rand_poly, id=f"{mask}-{dim}")
                 for mask in ("upper", "lower", "block", "nilpotent", "diagonal+nilpotent")
                 for dim in (3, 4, 5)] + [pytest.param(f, 5, rand_poly, id=f"{f}-5") for f in ("F1", "F2", "F3")]
_SPARSE_CASES += [pytest.param(mask, 3, _atom_entry, id=f"{mask}-3-atoms")
                  for mask in ("upper", "lower", "block", "diagonal+nilpotent")]


def _sampling(e):
    """A zero tester that can only sample."""
    return sx.PROVEN_ZERO if e.is_zero_expr() else sx.ZeroCertainty("probably_zero")


def _decode_path_operators():
    """Operators whose torsion tables reach every decode path of the packed
    ring (see `_atom_entry`): on a 2-chart, where H vanishes identically and
    only tau is at stake, and on a 3-chart, one factor at a time."""
    c2 = sx.Chart("R2", ("x", "y"))
    x, y = c2.coord(0), c2.coord(1)
    yield Operator11(c2, [[x / (y + 1), exp(y)], [x**-3, fn_symbol(c2, "f") * exp(-y)]])
    c3 = sx.Chart("R3", ("x", "y", "z"))
    x, y, z = (c3.coord(i) for i in range(3))
    for u, v in ((x / (y + 1), y / (y + 1)), (x**-3, y * x**-1), (fn_symbol(c3, "f"), fn_symbol(c3, "g", ("x", "z"))),
                 (exp(x), exp(-x)), (exp(x), x * exp(x)), (x**16, z**3)):
        yield Operator11(c3, [[x * y, z * u, 0], [0, y, v], [y * z, 0, x + z]])


class TestNijenhuis:
    def test_identity_vanishes(self, C2):
        assert nijenhuis_torsion(Operator11.identity(C2)).is_zero()

    def test_diag_one_x(self, C2):
        k = Operator11.diagonal(C2, [C2.one(), C2.coord("x")])
        tau = nijenhuis_torsion(k)
        assert tau[(0, 1)] == VectorField(C2, [C2.zero(), 1 - C2.coord("x")])

    def test_scalar_multiple_of_identity(self, C2):
        f = fn_symbol(C2, "f")
        assert nijenhuis_torsion(Operator11.identity(C2).scale(f)).is_zero()

    def test_antisymmetry_structural(self, C2, rng):
        k = rand_operator(C2, rng)
        tau = nijenhuis_torsion(k)
        assert (tau[(0, 1)] + tau[(1, 0)]).is_zero_field()

    def test_entry_partials_taken_once(self, monkeypatch):
        # the frame table takes all partials of each nonzero entry of K from
        # one gradient, of its sign with a positive leading coefficient, and
        # none of a zero entry; it makes no Expr.diff call (one per entry and
        # coordinate, nonzero * dim = 40, before the gradient)
        chart = sx.Chart("R4", ("x", "y", "z", "w"))
        rng = random.Random(53)
        k = Operator11(chart, [[rand_poly(chart, rng) if r <= c else 0 for c in range(4)] for r in range(4)])
        nonzero = [(e if e.terms[0][1] > 0 else -e).terms for row in k.matrix for e in row if e.terms]
        calls, diffs = [], []
        grad = torsion._t_grad
        monkeypatch.setattr(torsion, "_t_grad",
                            lambda t, coords: calls.append((t, tuple(coords))) or grad(t, coords))
        monkeypatch.setattr(sx.Expr, "diff", lambda e, which: diffs.append(which))
        assert not nijenhuis_torsion(k).is_zero()
        assert sorted(calls) == sorted((t, (0, 1, 2, 3)) for t in nonzero) and len(nonzero) == 10
        assert diffs == []

    @pytest.mark.parametrize("pattern", ["F2", "F3"])
    def test_one_jet_per_entry_up_to_sign(self, monkeypatch, pattern):
        # entries that repeat, or repeat with the other sign, share one jet:
        # one gradient over every coordinate per distinct entry up to sign
        # (it was one Expr.diff per entry and coordinate), on its sign with
        # a positive leading coefficient (F3's first entry is -D, and the jet
        # is still taken of D or -D by that sign)
        chart = sx.Chart("R5", ("q1", "q2", "p1", "p2", "z"))
        rng = random.Random(59)
        d, b, g, w = (rand_poly(chart, rng, deg=3) for _ in range(4))
        rows = {"F2": [[d, b, 0, d, 0], [-b, d, -d, 0, 0], [0, 0, -d, b, 0], [0, 0, -b, -d, 0], [0, 0, 0, 0, g]],
                "F3": [[-d, 0, 0, 0, 0], [0, d, 0, 0, 0], [0, 0, d, 0, 0], [0, 0, 0, -d, 0], [d * g, w, b, 0, d]]}
        firsts = [e if e.terms[0][1] > 0 else -e for e in {"F2": (d, b, g), "F3": (-d, d * g, w, b)}[pattern]]
        k = Operator11(chart, rows[pattern])
        calls = []
        grad = torsion._t_grad
        monkeypatch.setattr(torsion, "_t_grad",
                            lambda t, coords: calls.append((t, tuple(coords))) or grad(t, coords))
        tau, h = nijenhuis_torsion(k), haantjes_torsion(k)
        assert Counter(calls) == Counter({(e.terms, tuple(range(5))): 2 for e in firsts})  # one per table
        monkeypatch.undo()
        assert not tau.is_zero()
        TestHaantjes._assert_tables_match_literal_eval(k)

    def test_tensoriality(self, C2, zt):
        rng = random.Random(41)
        f = fn_symbol(C2, "f")
        for _ in range(3):
            k = rand_operator(C2, rng)
            x = VectorField(C2, [f, C2.zero()])
            lhs = nijenhuis_eval(k, x, VectorField.basis(C2, 1))
            rhs = nijenhuis_eval(k, VectorField.basis(C2, 0), VectorField.basis(C2, 1)).scale(f)
            assert all(zt(c).is_proven_zero for c in (lhs - rhs).components)


class TestHaantjes:
    def test_identity_vanishes(self, C2):
        assert haantjes_torsion(Operator11.identity(C2)).is_zero()

    def test_diagonal_vanishing_abstract(self):
        for dim in (2, 3, 4, 5):
            chart = sx.Chart(f"R{dim}", tuple(f"x{i+1}" for i in range(dim)))
            k = Operator11.diagonal(chart, [fn_symbol(chart, f"lam{i+1}") for i in range(dim)])
            assert haantjes_torsion(k).is_zero()

    def test_diag_one_x_haantjes_but_not_nijenhuis(self, C2):
        k = Operator11.diagonal(C2, [C2.one(), C2.coord("x")])
        assert not nijenhuis_torsion(k).is_zero()
        assert haantjes_torsion(k).is_zero()

    @staticmethod
    def _assert_tables_match_literal_eval(k):
        chart = k.chart
        tau, h = nijenhuis_torsion(k), haantjes_torsion(k)
        for i in range(chart.dim):
            for j in range(i + 1, chart.dim):
                x, y = VectorField.basis(chart, i), VectorField.basis(chart, j)
                assert tau[(i, j)].components == nijenhuis_eval(k, x, y).components, (chart.name, i, j)
                assert h[(i, j)].components == haantjes_eval(k, x, y).components, (chart.name, i, j)

    def test_frame_table_matches_literal_eval(self, C2):
        # every pair i < j up to a 4-chart, so the factored contraction reads
        # s(e_a, e_j) for j >= 2; then operators that reach every decode path
        # of the packed ring; canonical terms make the match exact
        rng = random.Random(43)
        charts = (C2, sx.Chart("R3", ("x", "y", "z")), sx.Chart("R4", ("x", "y", "z", "w")))
        for chart, count in zip(charts, (3, 2, 2)):
            for _ in range(count):
                self._assert_tables_match_literal_eval(rand_operator(chart, rng))
        for k in _decode_path_operators():
            assert not (nijenhuis_torsion(k) if k.chart.dim == 2 else haantjes_torsion(k)).is_zero()
            self._assert_tables_match_literal_eval(k)
        # entries that differ in sign share one jet, also through an exp atom
        # and an inverse-power (_W) atom; the first entry seen is the negative
        x, y, z = (charts[1].coord(i) for i in range(3))
        for u in (x * exp(y), x / (y + z)):
            k = Operator11(charts[1], [[-u, z, u], [u, x * y, -u], [0, -u, y + z]])
            assert not haantjes_torsion(k).is_zero()
            self._assert_tables_match_literal_eval(k)

    @pytest.mark.parametrize("mask,dim,entry", _SPARSE_CASES)
    def test_sparse_tables_match_literal_eval(self, mask, dim, entry):
        # zero entries leave some s(e_a, e_j) unread, so haantjes_torsion skips
        # them; the literal formulas check both tables exactly on every pair
        chart = sx.Chart(f"R{dim}", tuple(f"x{i+1}" for i in range(dim)))
        rng = random.Random(47)
        keep = _MASKS[mask]
        self._assert_tables_match_literal_eval(Operator11(chart, [
            [entry(chart, rng) if keep(dim, r, c) else chart.zero() for c in range(dim)]
            for r in range(dim)]))

    def test_budget_counts_tau_and_s_entries(self, monkeypatch):
        # H of a diagonal operator cancels structurally, so only a tau or an
        # s entry can exceed the budget; each raises exactly when its
        # canonical form, built here through operator arithmetic, does
        chart = sx.Chart("R3", ("x", "y", "z"))
        k = Operator11.diagonal(chart, [fn_symbol(chart, f"L{i}") for i in range(3)])
        tau = nijenhuis_torsion(k)
        s = [op_apply(k, tau[(a, j)]) - sum((tau[(a, b)].scale(k.matrix[b][j]) for b in range(3)),
                                            VectorField.zero(chart))
             for a in range(3) for j in range(a + 1, 3)]

        def nodes(fields):
            return max(sx._node_count(c.terms) for v in fields for c in v.components)

        tau_nodes, s_nodes = nodes(tau.values.values()), nodes(s)
        assert tau_nodes < s_nodes
        for budget in (tau_nodes - 1, s_nodes - 1):
            monkeypatch.setattr(sx, "NODE_BUDGET", budget)
            with pytest.raises(sx.BudgetError):
                haantjes_torsion(k)
        monkeypatch.setattr(sx, "NODE_BUDGET", s_nodes)
        assert haantjes_torsion(k).is_zero()

    def test_grouped_dots_on_a_nonzero_table(self, monkeypatch):
        # the appendix module member h*F2A + F2B has H = 0, so a dot that
        # dropped a term could pass there unseen; with z added to one zero
        # off-diagonal entry, H is nonzero, and both tables still equal the
        # literal formulas
        model = parse_model((MODELS / "appendix_families.hj").read_text())
        a, b = (declared(model, name) for name in ("F2A", "F2B"))
        chart = a.chart
        rows = [list(row) for row in (a.scale(fn_symbol(chart, "_modf")) + b).matrix]
        rows[0][2] = rows[0][2] + chart.coord("z")
        k = Operator11(chart, rows)
        self._assert_tables_match_literal_eval(k)
        tau, h = nijenhuis_torsion(k), haantjes_torsion(k)
        assert len(h.values) == 7
        # the budget holds per component: BudgetError at one node below the
        # largest tau or H component, none at the largest tau, s or H one
        s = [op_apply(k, tau[(i, j)]) - sum((tau[(i, c)].scale(k.matrix[c][j]) for c in range(5)),
                                            VectorField.zero(chart))
             for i in range(5) for j in range(5) if i != j]

        def nodes(fields):
            return max(sx._node_count(c.terms) for v in fields for c in v.components)

        tau_nodes, h_nodes = nodes(tau.values.values()), nodes(h.values.values())
        for budget in (tau_nodes - 1, h_nodes - 1):
            monkeypatch.setattr(sx, "NODE_BUDGET", budget)
            with pytest.raises(sx.BudgetError):
                haantjes_torsion(k)
        monkeypatch.setattr(sx, "NODE_BUDGET", max(tau_nodes, h_nodes, nodes(s)))
        assert haantjes_torsion(k).values.keys() == h.values.keys()

    @pytest.mark.parametrize("perturb,verdict", [(False, ("pass", "proven_zero")),
                                                 (True, ("fail", "proven_nonzero"))],
                             ids=["pass", "fail"])
    def test_known_answer_from_a_coordinate_map(self, zt, perturb, verdict):
        # K = J^-1 diag(L0, L1, L2) J is diagonal in the coordinates of phi,
        # so it is Haantjes (Haantjes, Indag. Math. 17, 1955); adding x0 to
        # J[0][1] leaves a J whose first row is not closed, and K is not
        chart = sx.Chart("R3", ("x0", "x1", "x2"))
        x0, x1, x2 = (chart.coord(i) for i in range(3))
        phi = [(x0 + x1**2) * (1 + x2), x1 + x2**2 + x1 * x2, x2 + x2 * x0]
        jac = [[f.diff(b) for b in range(3)] for f in phi]
        if perturb:
            jac[0][1] = jac[0][1] + x0
        d = Operator11.diagonal(chart, [fn_symbol(chart, f"L{i}") for i in range(3)])
        k = op_compose(op_compose(Operator11(chart, invert_matrix(jac)), d), Operator11(chart, jac))
        rep = is_haantjes(k, zt)
        assert (rep.status, rep.certainty.tag) == verdict

    def test_numeric_cross_check(self, C2, rng):
        # the tables vs the defining formulas, exactly, at rational points
        for _ in range(4):
            assert torsions_match(rand_operator(C2, rng, deg=2), rational_points(C2, rng, 1))


def _is_shape(ring) -> bool:
    """Whether ring is the ring of a table's shape: its atoms are labels."""
    return any(a[0] == sx._V for a in ring.atoms)


def _spy_dots(monkeypatch) -> list:
    """Record (whether the ring is a shape's ring, the result) per packed dot."""
    calls = []
    dot = sx._PackedRing.dot

    def spy(ring, pairs):
        out = dot(ring, pairs)
        calls.append((_is_shape(ring), out))
        return out

    monkeypatch.setattr(sx._PackedRing, "dot", spy)
    return calls


def _multi_term(chart, rng, skip=()):
    """A random polynomial of at least two terms in the coordinates not in skip."""
    while True:
        e = rand_poly(chart, rng, deg=3).subst({i: 1 for i in skip})
        if len(e.terms) > 1:
            return e


_R5 = sx.Chart("R5", ("q1", "q2", "p1", "p2", "z"))


def _f_pattern(name, rng):
    """The appendix family `name` (F2 or F3) with random multi-term
    polynomial entries; in F3, the function in D*g does not depend on p2."""
    if name == "F2":
        d, b, g = (_multi_term(_R5, rng) for _ in range(3))
        rows = [[d, b, 0, d, 0], [-b, d, -d, 0, 0], [0, 0, -d, b, 0], [0, 0, -b, -d, 0], [0, 0, 0, 0, g]]
    else:
        d, w, v = (_multi_term(_R5, rng) for _ in range(3))
        g = _multi_term(_R5, rng, skip=(3,))
        rows = [[-d, 0, 0, 0, 0], [0, d, 0, 0, 0], [0, 0, d, 0, 0], [0, 0, 0, -d, 0], [d * g, w, v, 0, d]]
    return Operator11(_R5, rows)


class TestPatternPass:
    """Each table is decided first in the ring of its shape, where each
    multi-term jet component is one free variable and every variable and
    atom a label, and is built over the expanded ring only when the shape's
    table is not zero (see the torsion module docstring)."""

    def test_f2_is_decided_by_the_pattern_ring(self, monkeypatch):
        # every H term of F2 cancels whatever its entries' jets are, so the
        # shape pass proves H = 0 and no expanded ring is built
        k = _f_pattern("F2", random.Random(61))
        calls = _spy_dots(monkeypatch)
        assert haantjes_torsion(k).is_zero()
        assert calls and all(shape for shape, _ in calls)
        monkeypatch.undo()
        TestHaantjes._assert_tables_match_literal_eval(k)

    def test_f3_needs_the_expanded_build(self, monkeypatch):
        # the entry D*g is a variable of its own, unrelated to D's, so the
        # shape's table is nonzero; the expanded build then cancels it
        k = _f_pattern("F3", random.Random(67))
        calls = _spy_dots(monkeypatch)
        assert haantjes_torsion(k).is_zero()
        assert any(out for shape, out in calls if shape)
        assert any(not shape for shape, _ in calls)
        monkeypatch.undo()
        TestHaantjes._assert_tables_match_literal_eval(k)

    def test_dense_operator_matches_the_oracle(self):
        chart = sx.Chart("R3", ("x", "y", "z"))
        rng = random.Random(71)
        k = rand_operator(chart, rng, deg=2)
        assert not haantjes_torsion(k).is_zero()
        assert torsions_match(k, rational_points(chart, rng, 2))

    def test_property_shared_entries_match_the_oracle(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        seen = {"shape zero": 0, "expanded": 0}

        @st.composite
        def operator(draw):
            dim = draw(st.sampled_from((3, 4)))
            chart = sx.Chart(f"R{dim}", tuple(f"x{i}" for i in range(dim)))
            rng = random.Random(draw(st.integers(0, 2**16)))
            pool = [_multi_term(chart, rng)]
            for _ in range(draw(st.integers(1, 3))):
                # a fresh entry, or 1 minus one before it: then their
                # partials are equal up to sign, and share a shape variable
                e = pool[draw(st.integers(0, len(pool) - 1))]
                pool.append(1 - e if draw(st.booleans()) else _multi_term(chart, rng))
            # a cell: zero, or a shared entry with a sign; diagonal cells only
            # in some operators, so that H vanishes there for any jet
            diagonal = draw(st.booleans())
            cell = st.tuples(st.integers(-1, len(pool) - 1), st.sampled_from((1, -1)))
            rows = []
            for r in range(dim):
                row = []
                for c in range(dim):
                    which, sign = draw(cell)
                    row.append(0 if which < 0 or (diagonal and r != c) else sign * pool[which])
                rows.append(row)
            return Operator11(chart, rows), rational_points(chart, rng, 1)

        @hyp.settings(derandomize=True, database=None, max_examples=15, deadline=None)
        @hyp.given(operator())
        def prop(case):
            k, points = case
            rings = []  # whether each dot ran over a shape's ring
            dot = sx._PackedRing.dot

            def spy(ring, pairs):
                rings.append(_is_shape(ring))
                return dot(ring, pairs)

            sx._PackedRing.dot = spy
            try:
                h = haantjes_torsion(k)
            finally:
                sx._PackedRing.dot = dot
            decided = rings and all(rings)  # the shape pass proved H = 0
            seen["shape zero" if decided else "expanded"] += 1
            assert torsions_match(k, points)
            if decided:
                assert h.is_zero()

        prop()
        assert all(seen.values()), seen

    def test_appendix_products(self, monkeypatch):
        # one run of the appendix model: the packed monomial products of
        # every dot, one per term of x and term of y of each pair (3,213, all
        # in 5 shape passes; 6,833 before shapes were decided once per run,
        # 43,758 with no pattern pass at all)
        products = []
        dot = sx._PackedRing.dot

        def spy(ring, pairs):
            products.append(sum(len(x) * len(y) for x, y in pairs))
            return dot(ring, pairs)

        monkeypatch.setattr(sx._PackedRing, "dot", spy)
        rep = haantjes.run_checks(parse_model((MODELS / "appendix_families.hj").read_text()))
        assert rep.exit_code == 0
        assert 0 < sum(products) <= 8000

    @pytest.mark.parametrize("pattern", ["F2", "dense"])
    def test_budget_in_the_pattern_pass_falls_back(self, monkeypatch, pattern):
        # a BudgetError in the shape pass leaves the decision to the
        # expanded build, which gives what it gives alone
        chart = sx.Chart("R3", ("x", "y", "z"))
        k = _f_pattern("F2", random.Random(61)) if pattern == "F2" else rand_operator(chart, random.Random(71), 2)
        want = [f(k).values for f in (nijenhuis_torsion, haantjes_torsion)]
        raised = []
        calls = _spy_dots(monkeypatch)
        spy = sx._PackedRing.dot

        def over_budget(ring, pairs):
            if _is_shape(ring):
                raised.append(pairs)
                raise sx.BudgetError("shape pass")
            return spy(ring, pairs)

        monkeypatch.setattr(sx._PackedRing, "dot", over_budget)
        assert [f(k).values for f in (nijenhuis_torsion, haantjes_torsion)] == want
        assert len(raised) == 2 and calls and not any(shape for shape, _ in calls)

    def test_pattern_zero_skips_the_expanded_budget(self, monkeypatch):
        # at a budget that the expanded build of F2 exceeds, the shape pass
        # still proves H = 0, so the torsion passes where the expanded build
        # alone would end in BudgetError
        k = _f_pattern("F2", random.Random(61))
        tau = nijenhuis_torsion(k)
        biggest = max(sx._node_count(c.terms) for v in tau.values.values() for c in v.components)
        monkeypatch.setattr(sx, "NODE_BUDGET", biggest - 1)
        with pytest.raises(sx.BudgetError):
            nijenhuis_torsion(k)
        assert haantjes_torsion(k).is_zero()
        # with a shape pass that never decides, as before the pattern pass,
        # the same torsion ends in BudgetError
        monkeypatch.setattr(torsion, "_shape_is_zero", lambda shape: False)
        with pytest.raises(sx.BudgetError):
            haantjes_torsion(k)

    @pytest.mark.parametrize("table", [nijenhuis_torsion, haantjes_torsion], ids=["tau", "H"])
    def test_pattern_pass_stops_at_its_first_nonzero_component(self, monkeypatch, table):
        # the Nijenhuis shape pass stops at its first nonzero tau component,
        # the Haantjes shape pass at its first nonzero H component: its last dot
        chart = sx.Chart("R3", ("x", "y", "z"))
        k = rand_operator(chart, random.Random(71), deg=2)
        calls = _spy_dots(monkeypatch)
        assert not table(k).is_zero()
        shape = [out for p, out in calls if p]
        expanded = [out for p, out in calls if not p]
        assert shape[-1] and len(shape) < len(expanded)
        if table is nijenhuis_torsion:
            assert not any(shape[:-1])


    def test_partials_equal_up_to_sign_keep_their_signs(self):
        # the partials of the entries 1 - e and e, e = z + z^2, are equal up
        # to sign and share one shape variable, with opposite signs; H is
        # not zero, and its shape's table would be if it dropped those signs
        chart = sx.Chart("R3", ("x", "y", "z"))
        e = chart.coord("z") + chart.coord("z") ** 2
        k = Operator11(chart, [[1 - e, 0, 0], [-1, e, 0], [0, 0, 0]])
        assert not haantjes_torsion(k).is_zero()
        TestHaantjes._assert_tables_match_literal_eval(k)

    def test_renamed_functions_share_the_shape(self, monkeypatch, zt):
        # seeded sparse operators whose entries are c x^a f(x, y, z), some
        # shared with a sign, and each one again with its functions renamed
        # by a seeded bijection: the same verdict, H renamed, and in one
        # memo scope no shape pass of the renamed operator's own
        chart = sx.Chart("R3", ("x", "y", "z"))
        names = "abcde"
        passes = []
        real = torsion._shape_is_zero

        def counted(shape):
            passes.append(shape)
            return real(shape)

        monkeypatch.setattr(torsion, "_shape_is_zero", counted)
        seen = Counter()
        for seed in range(12):
            rng = random.Random(seed)
            to = dict(zip(names, rng.sample(names, len(names))))
            pool = [(rng.choice((1, -1, 2)), rng.randrange(3), rng.randrange(3), rng.choice(names))
                    for _ in range(4)]
            cells = [[(rng.choice(pool), rng.choice((1, -1))) if rng.random() < 0.45 else None
                      for _ in range(3)] for _ in range(3)]

            def build(name):
                return Operator11(chart, [[0 if cell is None else cell[1] * cell[0][0]
                                           * chart.coord(cell[0][1]) ** cell[0][2] * fn_symbol(chart, name(cell[0][3]))
                                           for cell in row] for row in cells])

            k, renamed = build(lambda f: f), build(to.get)
            del passes[:]
            with memo_scope():
                reps = [is_haantjes(op, zt) for op in (k, renamed)]
                assert len(passes) == 1
            assert (reps[0].status, reps[0].certainty.tag) == (reps[1].status, reps[1].certainty.tag)
            h, hr = haantjes_torsion(k).values, haantjes_torsion(renamed).values
            assert hr.keys() == h.keys()
            assert all([_renamed(c, to) for c in h[ij].components] == list(hr[ij].components) for ij in h)
            seen[reps[0].status] += 1
        assert seen["pass"] and seen["fail"], seen

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["zero first", "nonzero first"])
    def test_sign_pair_in_one_scope(self, zt, order):
        # the two operators differ only in the sign of one entry, which
        # shares its jet with another: one is Haantjes and the other is not,
        # so neither may reuse the other's shape pass
        chart = sx.Chart("R3", ("x", "y", "z"))
        f, g, h = (fn_symbol(chart, n) for n in "fgh")
        ops = [Operator11(chart, [[f, g, 0], [0, sign * f, 0], [0, 0, h]]) for sign in (1, -1)]
        with memo_scope():
            reps = {i: is_haantjes(ops[i], zt) for i in order}
        assert [(reps[i].status, reps[i].certainty.tag) for i in range(2)] == [
            ("pass", "proven_zero"), ("fail", "proven_nonzero")]

    @pytest.mark.parametrize("first", [nijenhuis_torsion, haantjes_torsion], ids=["tau first", "H first"])
    def test_both_tables_of_one_operator_in_one_scope(self, first):
        # tau of F1A is not zero and its H is, so the two tables of one
        # operator must not share a shape pass
        k = declared(parse_model((MODELS / "appendix_families.hj").read_text()), "F1A")
        tau = nijenhuis_torsion(k).values
        assert tau
        with memo_scope():
            got = {f: f(k).values for f in (first, nijenhuis_torsion, haantjes_torsion)}
        assert got[nijenhuis_torsion] == tau and got[haantjes_torsion] == {}


def _renamed(e, to):
    """e with each abstract function f renamed to[f], its terms rebuilt from
    the renamed atoms so that they come out in canonical order."""
    pieces = []
    for mono, c in e.terms:
        piece = sx._t_const(c)
        for a, k in mono:
            piece = sx._t_mul(piece, sx._t_atom((sx._F, to[a[1]], *a[2:]) if a[0] == sx._F else a, k))
        pieces.append(piece)
    return sx.Expr(e.chart, sx._t_add(*pieces))


class TestAlgebra:
    def test_identity_and_block_diagonal(self, zt):
        chart = sx.Chart("R4", ("x1", "x2", "x3", "x4"))
        l1 = fn_symbol(chart, "l1")
        l2 = fn_symbol(chart, "l2")
        basis = HaantjesBasis(
            [Operator11.identity(chart), Operator11.diagonal(chart, [l1, l1, l2, l2])],
            names=["I", "D"])
        rep = check_haantjes_algebra(basis, zt)
        assert rep.passed

    def test_non_haantjes_rejected(self, zt):
        # the projection onto the contact distribution along the Reeb field:
        # its image is maximally non-integrable, so the torsion cannot vanish
        chart = sx.darboux_contact(1)
        one, zero, p = chart.one(), chart.zero(), chart.coord("p")
        k = Operator11(chart, [[one, zero, zero], [zero, one, zero], [p, zero, zero]])
        assert not haantjes_torsion(k).is_zero()
        rep = check_haantjes_algebra(HaantjesBasis([k]), zt)
        assert not rep.passed

    def test_one_torsion_per_distinct_operator(self, zt, monkeypatch):
        # f*K reuses the torsion of K, and K_i K_j = K_j K_i for a commuting
        # pair: 6 torsions, not 7, and the same report as a run that computes
        # one per label; both generators fail, so A*A and B*B each get a
        # torsion of their own.  [A, B] cancels structurally, so B*A reads
        # the report of A*B and is never composed: 3 products, not 4.  The
        # reference run composes B*A: it does not ask for commutativity,
        # which adds no residual for a structurally zero commutator
        chart = sx.Chart("R3", ("x", "y", "z"))
        calls, composed = [], []
        real, compose = torsion.is_haantjes, torsion.op_compose
        monkeypatch.setattr(torsion, "is_haantjes", lambda k, zt: calls.append(k) or real(k, zt))
        monkeypatch.setattr(torsion, "op_compose", lambda a, b: composed.append((a, b)) or compose(a, b))
        a, b = commuting_pair(chart)
        shared = check_haantjes_algebra(HaantjesBasis([a, b], names=["A", "B"]), zt)
        assert len(calls) == 6 and composed == [(a, a), (a, b), (b, b)]
        calls.clear()
        monkeypatch.setattr(torsion, "op_compose", lambda a, b: self_only_matrix(compose(a, b)))
        ops = [self_only_matrix(k) for k in commuting_pair(chart)]
        unshared = check_haantjes_algebra(HaantjesBasis(ops, abelian_required=False, names=["A", "B"]), zt)
        assert len(calls) == 7
        assert shared == unshared and shared.status == "fail"

    @pytest.mark.parametrize("diagonal", [("x", "y", "z"), (1, 0, 0)], ids=["xyz", "100"])
    def test_only_the_pair_member_fails(self, zt, diagonal):
        # a diagonal operator and a nilpotent Jordan block are each Haantjes,
        # and so are their products, but their function-linear sums are not;
        # for the constant diag(1, 0, 0), A + B is Haantjes and only a
        # nonconstant coefficient exposes the failure
        chart = sx.Chart("R3", ("x", "y", "z"))
        a = Operator11.diagonal(chart, [chart.coord(e) if isinstance(e, str) else e for e in diagonal])
        b = Operator11(chart, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        rep = check_haantjes_algebra(HaantjesBasis([a, b], abelian_required=False, names=["A", "B"]), zt)
        members = {label: st for label, st in rep.details if ": " not in label}
        assert members == {"generator A": "pass", "generator B": "pass", "module f*A": "pass",
                           "module f*B": "pass", "module f*A+g*B": "fail", "ring A*A": "pass",
                           "ring A*B": "pass", "ring B*A": "pass", "ring B*B": "pass"}
        evidence = [c.tag for label, c in rep.details if label.startswith("module f*A+g*B: ")]
        assert evidence and set(evidence) == {"proven_nonzero"}
        assert rep.status == "fail"

    @pytest.mark.parametrize("abelian", [True, False])
    def test_non_commuting_pair_builds_both_products(self, zt, monkeypatch, abelian):
        # [A, B] does not cancel, so B*A is no copy of A*B: both are
        # composed, and each gets a torsion of its own
        chart = sx.Chart("R3", ("x", "y", "z"))
        x, y, z = (chart.coord(i) for i in range(3))
        a = Operator11(chart, [[0, z, 0], [0, 0, x], [y, 0, 0]])
        b = Operator11.diagonal(chart, [x, y, z])
        assert not op_commutator(a, b).is_zero_op()
        composed, built = [], []
        compose, real = torsion.op_compose, torsion.is_haantjes
        monkeypatch.setattr(torsion, "op_compose", lambda p, q: composed.append((p, q)) or compose(p, q))
        monkeypatch.setattr(torsion, "is_haantjes", lambda k, zt: built.append(k) or real(k, zt))
        rep = check_haantjes_algebra(HaantjesBasis([a, b], abelian_required=abelian, names=["A", "B"]), zt)
        assert (a, b) in composed and (b, a) in composed
        ab, ba = compose(a, b), compose(b, a)
        assert ab != ba and ab in built and ba in built
        labels = [label for label, _ in rep.details]
        assert "ring A*B" in labels and "ring B*A" in labels
        assert rep.status == "fail" and any(label.startswith("[A,B]") for label in labels) == abelian

    def test_verdict_is_no_surer_than_its_torsions(self):
        # a tester that can only sample: the torsion of A passes as
        # probably_zero, and so must every algebra member that reads it
        chart = sx.Chart("R3", ("x", "y", "z"))
        x, y, z = (chart.coord(i) for i in range(3))
        a = Operator11(chart, [[x * y, z, 0], [0, y, x], [y * z, 0, x + z]])

        torsion_rep = is_haantjes(a, _sampling)
        assert (torsion_rep.status, torsion_rep.certainty.tag) == ("pass", "probably_zero")
        rep = check_haantjes_algebra(HaantjesBasis([Operator11.identity(chart), a], names=["I", "A"]), _sampling)
        assert (rep.status, rep.certainty.tag) == ("pass", "probably_zero")

    def test_ring_squares_read_their_generators(self, monkeypatch):
        # H_K = 0 gives H_{K*K} = 0, so the square of a passing generator is
        # never composed and builds no torsion: its member reads the
        # generator's status and certainty, probably_zero included; and
        # [I, A] cancels structurally, so A*I reads the report of I*A and
        # only I*A is composed (both were, before the commutator decided)
        chart = sx.Chart("R3", ("x", "y", "z"))
        x, y, z = (chart.coord(i) for i in range(3))
        ops = [Operator11.identity(chart), Operator11(chart, [[x * y, z, 0], [0, y, x], [y * z, 0, x + z]])]
        composed, built = [], []
        compose, real = torsion.op_compose, torsion.is_haantjes
        monkeypatch.setattr(torsion, "op_compose", lambda a, b: composed.append((a, b)) or compose(a, b))
        monkeypatch.setattr(torsion, "is_haantjes", lambda k, zt: built.append(k) or real(k, zt))
        rep = check_haantjes_algebra(HaantjesBasis(ops, names=["I", "A"]), _sampling)
        assert composed == [(ops[0], ops[1])]
        assert len(built) == 3  # I, A and h*I + A; I*A = A*I = A is A's torsion

        def member(label):
            return [(line.removeprefix(label), c) for line, c in rep.details if line.startswith(label)]

        for nm in ("I", "A"):
            assert member(f"ring {nm}*{nm}") == member(f"generator {nm}")
        assert member("ring A*A")[0] == ("", "pass")
        assert {c.tag for _, c in member("ring A*A")[1:]} == {"probably_zero"}
        assert (rep.status, rep.certainty.tag) == ("pass", "probably_zero")


class TestStructuralCertainty:
    """A pass whose residuals all cancel structurally is proven_zero, also
    for a library caller."""

    @pytest.mark.parametrize("diagonal", [(1, 1, 1), (1, 2, 3)], ids=["identity", "constant"])
    def test_structural_pass_is_proven_zero(self, zt, diagonal):
        chart = sx.Chart("R3", ("x", "y", "z"))
        k = Operator11.diagonal(chart, list(diagonal))
        ident = Operator11.identity(chart)
        reps = [is_haantjes(k, zt), commute_check(ident, k, zt),
                check_haantjes_algebra(HaantjesBasis([ident, k], names=["I", "D"]), zt)]
        assert [(r.status, r.certainty and r.certainty.tag) for r in reps] == [("pass", "proven_zero")] * 3

    # every public check that returns a CheckReport, on the identity (a
    # special operator of the second kind for techain) of the contact, LCS
    # and Jacobi charts, where every residual cancels structurally
    CHECKS = {
        "is_haantjes": lambda s: haantjes.is_haantjes(s.I, s.zt),
        "check_haantjes_algebra": lambda s: haantjes.check_haantjes_algebra(s.basis, s.zt),
        "verify_chain": lambda s: haantjes.verify_chain(s.h, s.basis, s.zt),
        "check_jh_compatibility": lambda s: haantjes.check_jh_compatibility(s.I, s.j, s.zt),
        "particular_integral_check": lambda s: haantjes.particular_integral_check(
            [s.h], s.h, s.j, haantjes.ParticularIntegralWitness([[s.C.zero()]]), s.zt),
        "proposition_involutivity_check": lambda s: haantjes.proposition_involutivity_check(
            s.h, s.basis, s.j, s.zt),
        "check_ejh": lambda s: haantjes.check_ejh(s.ext.operators[0], s.j, s.zt),
        "check_extended_algebra": lambda s: haantjes.check_extended_algebra(s.ext, s.zt),
        "verify_ext_chain": lambda s: haantjes.verify_ext_chain(s.h, s.ext, s.zt),
        "thm_main_check": lambda s: haantjes.thm_main_check(s.h, s.ext, s.j, s.zt),
        "check_contact_haantjes": lambda s: haantjes.check_contact_haantjes(s.I, s.cs, s.zt),
        "is_dissipated": lambda s: haantjes.is_dissipated(s.h, s.h, s.cs, s.zt),
        "is_homogeneous_deg0_momenta": lambda s: haantjes.is_homogeneous_deg0_momenta(
            s.C.coord("q"), s.C, s.zt),
        "reeb_eigen_check": lambda s: haantjes.reeb_eigen_check(s.I, s.cs, s.zt),
        "theorem6_check": lambda s: haantjes.theorem6_check(s.h, s.basis, s.cs, s.zt),
        "techain_check": lambda s: haantjes.techain_check(s.C.coord("q"), s.second, s.cs, "second", s.zt),
        "theta_Kf_condition": lambda s: haantjes.theta_Kf_condition(s.I, s.h, s.cs, s.zt),
        "check_lcsh": lambda s: haantjes.check_lcsh(s.IL, s.ls, s.zt),
        "eta_KE_check": lambda s: haantjes.eta_KE_check(s.IL, s.ls, s.zt),
        "theorem9_check": lambda s: haantjes.theorem9_check(
            s.ls.chart.coord("q"), HaantjesBasis([s.IL]), s.ls, s.zt),
    }

    @pytest.fixture(scope="class")
    def charts(self):
        zt = ZeroTester(seed=1234)
        c, lc = sx.darboux_contact(1), sx.lcs_local(1)
        cs = haantjes.validate_contact(haantjes.standard_contact_form(c), zt)
        second = haantjes.special_structure_operator(c, [[c.one()]], kzz=c.one())
        return SimpleNamespace(
            zt=zt, C=c, cs=cs, j=haantjes.induced_jacobi_from_contact(cs, zt),
            I=Operator11.identity(c), basis=HaantjesBasis([Operator11.identity(c)]),
            ext=haantjes.ExtendedBasis([haantjes.ext_identity(c)]), h=c.coord("p") - c.coord("z"),
            second=HaantjesBasis([second]), IL=Operator11.identity(lc),
            ls=haantjes.validate_lcs(*haantjes.standard_lcs_pair(lc, lc.coord("q")), zt))

    def test_cases_cover_every_public_check(self):
        public = {name for name, fn in vars(haantjes).items()
                  if inspect.isfunction(fn) and inspect.signature(fn).return_annotation == "CheckReport"}
        assert public == set(self.CHECKS)

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_public_check_structural_pass_is_proven_zero(self, charts, check):
        rep = self.CHECKS[check](charts)
        assert (rep.status, rep.certainty and rep.certainty.tag) == ("pass", "proven_zero")


class TestHomogeneity:
    """H_{fK} = f^4 H_K, and so H_{fA+gB} = g^4 H_{(f/g)A+B}: the laws the
    algebra check uses instead of building those torsions."""

    @staticmethod
    def _non_haantjes_pair(chart):
        x, y, z = (chart.coord(i) for i in range(3))
        a = Operator11(chart, [[x * y, z, 0], [0, y, x], [y * z, 0, x + z]])
        b = Operator11(chart, [[1, 0, z], [x, y**2, 0], [0, z, x]])
        return a, b

    @staticmethod
    def _assert_scaled(lhs, rhs, factor):
        for i in range(lhs.chart.dim):
            for j in range(i + 1, lhs.chart.dim):
                for c, d in zip(lhs[(i, j)].components, rhs[(i, j)].components):
                    assert (c - factor * d).is_zero_expr(), (i, j)

    def test_scaling_by_a_function(self):
        chart = sx.Chart("R3", ("x", "y", "z"))
        f = fn_symbol(chart, "f")
        for k in self._non_haantjes_pair(chart):
            h = haantjes_torsion(k)
            assert not h.is_zero()
            self._assert_scaled(haantjes_torsion(k.scale(f)), h, f**4)

    def test_function_linear_pair(self):
        chart = sx.Chart("R3", ("x", "y", "z"))
        f, g = fn_symbol(chart, "f"), fn_symbol(chart, "g")
        a, b = self._non_haantjes_pair(chart)
        self._assert_scaled(haantjes_torsion(a.scale(f) + b.scale(g)),
                            haantjes_torsion(a.scale(f / g) + b), g**4)


class TestRingPolynomials:
    """If H_K = 0, then H_{p(K)} = 0 for every polynomial p(K) = sum_j a_j
    K^j whose coefficients a_j are functions (O. I. Bogoyavlenskij, J. Math.
    Phys. 45, 2004; P. Tempesta and G. Tondo, Ann. Mat. Pura Appl. 201,
    2022): the rule by which an algebra check lets the ring member K*K read
    the torsion of a Haantjes generator K.  The oracle checks it exactly on
    operators built in sympy: H of K, K^2 and f K^2 + g K, from its
    definition, at rational points."""

    @staticmethod
    def _coordinate_map(rng, perturb=False):
        # the map of test_known_answer_from_a_coordinate_map, built in sympy
        # with seeded polynomial eigenvalues, so that K is rational
        chart = sx.Chart("R3", ("x0", "x1", "x2"))
        x0, x1, x2 = xs = sympy.symbols(chart.coords)
        jac = sympy.Matrix([(x0 + x1**2) * (1 + x2), x1 + x2**2 + x1 * x2, x2 + x2 * x0]).jacobian(xs)
        if perturb:
            jac[0, 1] += x0
        eigen = sympy.diag(*(to_sympy(rand_poly(chart, rng)) for _ in range(3)))
        yield chart, jac.adjugate() * eigen * jac / jac.det()

    @staticmethod
    def _jordan(rng):
        # lambda I + N, N constant and strictly upper triangular: tau_N = 0,
        # and adding lambda I keeps H zero (the test checks H_K = 0 too)
        for dim in (3, 4):
            chart = sx.Chart(f"R{dim}", tuple(f"x{i}" for i in range(dim)))
            lam = to_sympy(rand_poly(chart, rng))
            yield chart, sympy.Matrix(dim, dim, lambda r, c: lam if r == c else rng.randint(1, 3) if r < c else 0)

    @staticmethod
    def _sparse(rng):
        # the first three seeded sparse 4 x 4 operators with at least four
        # nonzero entries, tau_K != 0, and H_K structurally zero
        chart = sx.Chart("R4", ("x", "y", "z", "w"))
        found = 0
        for _ in range(200):
            k = Operator11(chart, [[rand_poly(chart, rng, terms=2) if rng.random() < 0.3 else 0
                                    for _ in range(4)] for _ in range(4)])
            if (sum(not e.is_zero_expr() for row in k.matrix for e in row) >= 4
                    and haantjes_torsion(k).is_zero() and not nijenhuis_torsion(k).is_zero()):
                found += 1
                yield chart, sympy.Matrix([[to_sympy(e) for e in row] for row in k.matrix])
                if found == 3:
                    return
        raise AssertionError("fewer than three sparse Haantjes operators")

    @staticmethod
    def _polynomials_at(chart, m, rng):
        """For 2 seeded rational points, the 1-jets there of K (the sympy
        matrix m), K^2 and f K^2 + g K, with seeded polynomials f and g."""
        n, xs = chart.dim, sympy.symbols(chart.coords)
        f, g = (to_sympy(rand_poly(chart, rng)) for _ in range(2))
        jets = [one_jet([list(m.col(c)) for c in range(n)], xs)]
        jets += [one_jet([[a if r == c else sympy.S.Zero for r in range(n)] for c in range(n)], xs)
                 for a in (f, g)]
        for pt in rational_points(chart, rng, 2):
            kj, fj, gj = (jet_at(jet, xs, pt) for jet in jets)
            k2 = jet_mul(kj, kj)
            yield kj, k2, jet_add(jet_mul(fj, k2), jet_mul(gj, kj))

    @staticmethod
    def _h_is_zero(jet):
        return all(v == 0 for h in defined_torsions(*jet)[1].values() for v in h)

    @pytest.mark.parametrize("family", ["_coordinate_map", "_jordan", "_sparse"])
    def test_polynomials_in_a_haantjes_operator_are_haantjes(self, family):
        rng = random.Random(59)
        for chart, m in getattr(self, family)(rng):
            for jets in self._polynomials_at(chart, m, rng):
                assert [self._h_is_zero(j) for j in jets] == [True] * 3

    def test_the_oracle_sees_a_nonzero_torsion(self):
        # the perturbed map's K is not Haantjes, and neither are K^2 and f K^2 + g K
        rng = random.Random(59)
        for chart, m in self._coordinate_map(rng, perturb=True):
            for jets in self._polynomials_at(chart, m, rng):
                assert [self._h_is_zero(j) for j in jets] == [False] * 3


class TestRadialPotential:
    """The potential of a polynomial 1-form, H(x) = int_0^1 sum_j
    omega_j(t x) x^j dt, read off the degrees of its terms."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_against_sympy(self, dim):
        # seeded forms, closed or not, with Fraction coefficients, a
        # parameter and an abstract function of no coordinate, against
        # sympy's integral of the same formula
        rng = random.Random(300 + dim)
        chart = sx.Chart(f"R{dim}", tuple(f"x{i}" for i in range(dim)))
        extra = [0, sx.param(chart, "a"), fn_symbol(chart, "g", [])]
        xs = [sympy.Symbol(c) for c in chart.coords]
        t = sympy.Symbol("t")
        for _ in range(4):
            comps = [0 if rng.random() < 0.2 else
                     Fraction(rng.randint(-9, 9), rng.randint(1, 6)) * rand_poly(chart, rng, 3)
                     + rng.choice(extra) * rand_poly(chart, rng, 2, 1) for _ in range(dim)]
            pulled = sum(to_sympy(w).xreplace({x: t * x for x in xs}) * x
                         for w, x in zip(KForm.one_form(chart, comps).covector(), xs))
            got = torsion._radial_potential(KForm.one_form(chart, comps))
            assert sympy.expand(to_sympy(got) - sympy.integrate(pulled, (t, 0, 1))) == 0, comps

    def test_none_outside_polynomials(self):
        chart = sx.darboux_contact(1)
        q, p, z = (chart.coord(i) for i in range(3))
        assert torsion._radial_potential(KForm.zero(chart, 1)) is chart.zero()
        for bad in (exp(q) + p, (q + p + 1) ** -1, q**-1 * p, fn_symbol(chart, "f", ["q"]),
                    p * fn_symbol(chart, "f", ["p", "z"]).diff("z")):
            assert torsion._radial_potential(KForm.one_form(chart, [p, bad, z])) is None, bad


class TestChains:
    def test_single_identity(self, zt):
        chart = sx.darboux_symplectic(1)
        rep = verify_chain(chart.coord("q") + chart.coord("p"), HaantjesBasis([Operator11.identity(chart)]), zt)
        assert rep.passed
        assert (rep.data["potentials"][0] - (chart.coord("q") + chart.coord("p"))).is_zero_expr()

    def test_diagonal_chain_with_potential(self, zt):
        chart = sx.darboux_symplectic(1)
        q, p = chart.coord("q"), chart.coord("p")
        basis = HaantjesBasis([Operator11.diagonal(chart, [q, p])])
        rep = verify_chain(q + p, basis, zt)
        assert rep.passed
        assert is_zero(rep.data["potentials"][0] - (q**2 + p**2) * sx.rational(chart, sx.Fraction(1, 2))).is_proven_zero

    def test_closedness_failure(self, zt):
        chart = sx.darboux_symplectic(1)
        q, p = chart.coord("q"), chart.coord("p")
        # K^T dH = p dq for H = q: d(p dq) != 0
        k = Operator11.diagonal(chart, [p, C_zero := chart.zero()])
        rep = verify_chain(q, HaantjesBasis([k]), zt)
        assert not rep.passed

    def test_worked_example_chain(self, zt):
        chart = sx.darboux_contact(1)
        q, p, z = (chart.coord(i) for i in range(3))
        one, zero = chart.one(), chart.zero()
        k2 = Operator11.diagonal(chart, [one, one, zero])
        basis = HaantjesBasis([Operator11.identity(chart), k2], names=["I", "K2"])
        rep = verify_chain(p - z, basis, zt)
        assert rep.passed
        assert is_zero(rep.data["potentials"][0] - (p - z)).is_proven_zero
        assert is_zero(rep.data["potentials"][1] - p).is_proven_zero
        assert rep.data["rank"] == 2
        assert ("frobenius-codistribution", "pass") in rep.details

    def test_chain_implies_frobenius(self, zt):
        # every certified chain passes the codistribution test
        chart = sx.darboux_symplectic(2)
        q1, q2 = chart.coord(0), chart.coord(1)
        k = Operator11.diagonal(chart, [q1, q2, q1, q2])
        rep = verify_chain(q1 + q2, HaantjesBasis([Operator11.identity(chart), k]), zt)
        assert rep.passed
        assert ("frobenius-codistribution", "pass") in rep.details
