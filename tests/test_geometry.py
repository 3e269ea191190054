import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import sympy

import haantjes.geometry as geometry
import haantjes.symexpr as sx
from haantjes.checks import memo_scope
from haantjes.contact import ContactStructure, standard_contact_form, validate_contact
from haantjes.geometry import (
    KForm,
    KVector,
    Operator11,
    VectorField,
    compat_residuals,
    d_scalar,
    det,
    dot,
    exterior_derivative,
    interior_product,
    invert_matrix,
    lie_bracket,
    op_apply,
    op_commutator,
    op_compose,
    op_transpose_apply,
    schouten_bracket,
    wedge,
    wedge_v,
)
from haantjes.lcs import standard_lcs_pair, validate_lcs
from haantjes.symexpr import is_zero, param

from conftest import (rand_kform, rand_kvector, rand_operator, rand_poly, rand_rational_matrix,
                      rand_vector)
from oracle import rational_points, to_sympy, value


@pytest.fixture
def C():
    return sx.darboux_contact(1)


def contact_pair(C):
    one, zero, p = C.one(), C.zero(), C.coord("p")
    lam = KVector(C, 2, {(0, 1): one, (1, 2): -p})
    e = VectorField(C, [zero, zero, one])
    return lam, e


class TestLieBracket:
    def test_constant_frames_commute(self, C):
        assert lie_bracket(VectorField.basis(C, 0), VectorField.basis(C, 1)).is_zero_field()

    def test_hand_expanded(self):
        C2 = sx.Chart("R2", ("x", "y"))
        x, y = C2.coord("x"), C2.coord("y")
        got = lie_bracket(VectorField(C2, [C2.zero(), x]), VectorField(C2, [y, C2.zero()]))
        assert got == VectorField(C2, [x, -y])

    def test_disjoint_dependence(self, C):
        p = C.coord("p")
        got = lie_bracket(VectorField.basis(C, 0), VectorField(C, [C.zero(), p, C.zero()]))
        assert got.is_zero_field()

    def test_jacobi_identity_random(self, C, rng):
        for _ in range(5):
            x, y, z = (rand_vector(C, rng) for _ in range(3))
            cyc = (lie_bracket(x, lie_bracket(y, z))
                   + lie_bracket(y, lie_bracket(z, x))
                   + lie_bracket(z, lie_bracket(x, y)))
            assert cyc.is_zero_field()


class TestExteriorDerivative:
    def test_contact_form(self, C):
        theta = KForm(C, 1, {(0,): -C.coord("p"), (2,): C.one()})
        assert exterior_derivative(theta) == KForm(C, 2, {(0, 1): C.one()})

    def test_d_of_dH_zero(self, C):
        h = C.coord("p") - C.coord("z")
        assert exterior_derivative(d_scalar(h)).is_zero()

    def test_lee_condition(self):
        # d(e^l dq^dp) = dl ^ (e^l dq^dp) for l = q on a 2-chart
        C2 = sx.lcs_local(1)
        q = C2.coord("q")
        om = KForm(C2, 2, {(0, 1): sx.exp(q)})
        eta = d_scalar(q)
        assert (exterior_derivative(om) - wedge(eta, om)).is_zero()

    def test_d_squared_all_degrees(self, C, rng):
        for k in (0, 1, 2):
            w = rand_kform(C, rng, k) if k else KForm(C, 0, {(): rand_poly(C, rng)})
            assert exterior_derivative(exterior_derivative(w)).is_zero()


class TestInteriorProduct:
    def test_reeb_contracts_theta(self, C):
        theta = KForm(C, 1, {(0,): -C.coord("p"), (2,): C.one()})
        r = VectorField.basis(C, 2)
        assert interior_product(r, theta)[()] == C.one()
        assert interior_product(r, exterior_derivative(theta)).is_zero()

    def test_antiderivation_on_one_forms(self, C, rng):
        for _ in range(5):
            a = rand_kform(C, rng, 1)
            b = rand_kform(C, rng, 1)
            x = rand_vector(C, rng)
            lhs = interior_product(x, wedge(a, b))
            rhs = b.scale(interior_product(x, a)[()]) - a.scale(interior_product(x, b)[()])
            assert (lhs - rhs).is_zero()


class TestWedge:
    def test_volume(self, C):
        theta = KForm(C, 1, {(0,): -C.coord("p"), (2,): C.one()})
        vol = wedge(theta, exterior_derivative(theta))
        # nonzero multiple of the volume form (sign fixed by our d convention)
        assert vol == KForm(C, 3, {(0, 1, 2): C.one()})

    def test_repeated_factor(self, C):
        dq = KForm.d_coord(C, 0)
        assert wedge(dq, dq).is_zero()

    def test_graded_commutativity(self, C, rng):
        a = rand_kform(C, rng, 1)
        b = rand_kform(C, rng, 2)
        assert (wedge(a, b) - wedge(b, a).scale(C.const((-1) ** (1 * 2)))).is_zero()

    def test_basis_bivector(self):
        big = sx.darboux_contact(1).extended()
        e_z = VectorField.basis(big, 2)
        d_t = VectorField.basis(big, 3)
        w = wedge_v(KVector.from_vector(d_t), KVector.from_vector(e_z))
        assert w == KVector(big, 2, {(2, 3): -big.one()})


class TestGradedIndices:
    @pytest.mark.parametrize("cls", [KForm, KVector])
    @pytest.mark.parametrize("idx,message", [
        ((1, 0), "index tuple (1, 0) not strictly increasing of length 2"),
        ((1, 1), "index tuple (1, 1) not strictly increasing of length 2"),
        ((1,), "index tuple (1,) not strictly increasing of length 2"),
        ((0, 1, 2), "index tuple (0, 1, 2) not strictly increasing of length 2"),
        ((0, 3), "index out of range in (0, 3)"),
        ((-1, 2), "index out of range in (-1, 2)"),
    ])
    def test_bad_index_rejected(self, C, cls, idx, message):
        with pytest.raises(ValueError) as err:
            cls(C, 2, {(0, 1): C.one(), idx: C.one()})
        assert str(err.value) == message

    def test_lookup_in_any_order(self, C):
        q, p = C.coord("q"), C.coord("p")
        omega = KForm(C, 2, {(0, 1): q, (1, 2): p})
        assert omega[(1, 0)] == -omega[(0, 1)] == -q
        assert omega[[0, 1]] == omega[(0, 1)] and omega[[2, 1]] == -p
        assert omega[(0, 0)].is_zero_expr() and omega[[1, 1]].is_zero_expr()
        assert omega[(0, 2)].is_zero_expr() and omega[(2, 0)].is_zero_expr()
        vol = KVector(C, 3, {(0, 1, 2): q})
        assert vol[(1, 2, 0)] == q and vol[[1, 0, 2]] == -q and vol[(0, 2, 2)].is_zero_expr()


    def test_direct_reads_equal_lookups(self, rng):
        # covector, full_matrix and pair read the stored components; every
        # entry equals its lookup, zero components and the lower triangle
        # included
        chart = sx.darboux_contact(2)
        n = chart.dim

        def sparse(cls, degree):
            return cls(chart, degree, {idx: rand_poly(chart, rng) for idx in combinations(range(n), degree)
                                       if rng.random() < 0.5})

        for _ in range(4):
            alpha, beta = sparse(KForm, 1), sparse(KForm, 1)
            assert alpha.covector() == tuple(alpha[(i,)] for i in range(n))
            for two in (sparse(KForm, 2), sparse(KVector, 2)):
                assert two.full_matrix() == [[two[(i, j)] for j in range(n)] for i in range(n)]
            lam = sparse(KVector, 2)
            want = sum((v * (alpha[(i,)] * beta[(j,)] - alpha[(j,)] * beta[(i,)])
                        for (i, j), v in lam.components.items()), chart.zero())
            assert lam.pair(alpha, beta) == want
            assert any(alpha[(i,)].is_zero_expr() for i in range(n))


class TestSharp:
    """sharp(b)^i = sum_j L^ij b_j over the stored components, against
    literal entry sums in Expr arithmetic that do not use sharp."""

    CHARTS = [sx.darboux_contact(1), sx.darboux_symplectic(2), sx.darboux_contact(2)]

    @staticmethod
    def _entry(chart, rng):
        """A polynomial, a quotient or an exp multiple, or zero."""
        kind = rng.randrange(4)
        e = rand_poly(chart, rng, 2, 2)
        if kind == 1:
            return e / (chart.coord(rng.randrange(chart.dim)) + rng.randint(1, 3))
        if kind == 2:
            return e * sx.exp(chart.coord(rng.randrange(chart.dim)))
        return e if kind == 3 else chart.zero()

    def _cases(self, seed):
        rng = random.Random(seed)
        for chart in self.CHARTS:
            n = chart.dim
            for _ in range(3):
                lam = KVector(chart, 2, {ij: self._entry(chart, rng) for ij in combinations(range(n), 2)})
                alpha = KForm.one_form(chart, [self._entry(chart, rng) for _ in range(n)])
                beta = KForm.one_form(chart, [self._entry(chart, rng) for _ in range(n)])
                yield chart, lam, alpha, beta

    def test_equals_literal_entry_sums(self):
        seen_zero = set()
        for chart, lam, alpha, beta in self._cases(28):
            n, zero = chart.dim, chart.zero()
            m = lam.full_matrix()
            a, b = alpha.covector(), beta.covector()
            assert lam.sharp(beta) == VectorField(chart, [sum((m[i][j] * b[j] for j in range(n)), zero)
                                                          for i in range(n)])
            literal = sum((a[i] * m[i][j] * b[j] for i in range(n) for j in range(n)), zero)
            got = lam.sharp(beta)
            assert sum((a[i] * got[i] for i in range(n)), zero) == literal
            assert lam.pair(alpha, beta) == literal == -lam.pair(beta, alpha)
            # the cases occur: a zero component and a zero entry
            seen_zero.add((len(lam.components) < n * (n - 1) // 2, any(not e.terms for e in b)))
        assert (True, True) in seen_zero

    def test_zero_operands(self):
        for chart, lam, alpha, _ in self._cases(29):
            assert lam.sharp(KForm.zero(chart, 1)).is_zero_field()
            assert KVector.zero(chart, 2).sharp(alpha).is_zero_field()
            assert lam.pair(KForm.zero(chart, 1), alpha).is_zero_expr()

    def test_coordinate_coforms_give_the_columns(self):
        for chart, lam, _, _ in self._cases(30):
            m = lam.full_matrix()
            for b in range(chart.dim):
                assert lam.sharp(KForm.d_coord(chart, b)).components == tuple(row[b] for row in m)

    def test_degree_and_chart_checked(self, C):
        lam, _ = contact_pair(C)
        with pytest.raises(ValueError, match="sharp"):
            lam.sharp(KForm.zero(C, 2))
        with pytest.raises(ValueError, match="sharp"):
            KVector.zero(C, 1).sharp(KForm.d_coord(C, 0))
        with pytest.raises(sx.ChartMismatch):
            lam.sharp(KForm.d_coord(sx.darboux_contact(1, name="N"), 0))
        twin = sx.darboux_contact(1)
        assert lam.sharp(KForm.d_coord(twin, 0)) == VectorField(C, [0, -1, 0])


class TestDScalarMemo:
    def test_one_form_per_run_for_equal_scalars(self, C):
        q, p = C.coord("q"), C.coord("p")
        assert d_scalar(q * p) is not d_scalar(q * p)   # no scope: a plain call
        with memo_scope():
            df = d_scalar(q * p)
            assert d_scalar(p * q) is df and df == KForm.one_form(C, [p, q, 0])
            assert d_scalar(q + p) is not df

    def test_key_holds_the_chart(self):
        # x on two charts has one canonical term tuple, and two differentials
        a, b = sx.Chart("A", ("x", "y")), sx.Chart("B", ("x", "y", "w"))
        with memo_scope():
            da, db = d_scalar(a.coord("x")), d_scalar(b.coord("x"))
            assert da.chart is a and db.chart is b
            assert da == KForm.d_coord(a, 0) and db == KForm.d_coord(b, 0)


def _index_message(idx, degree, dim):
    """The error text for a component index, by the rule as stated: not
    strictly increasing of length degree, else out of range, else None."""
    if len(idx) != degree or any(a >= b for a, b in zip(idx, idx[1:])):
        return f"index tuple {idx} not strictly increasing of length {degree}"
    if idx and (idx[0] < 0 or idx[-1] >= dim):
        return f"index out of range in {idx}"
    return None


class TestGradedConstruction:
    """The constructor's one-pass index check and its fast path for an Expr
    already on the chart, against the rules as stated."""

    def _given(self, prop, *strategies):
        hyp = pytest.importorskip("hypothesis")
        return hyp.settings(derandomize=True, database=None, max_examples=150, deadline=None)(
            hyp.given(*strategies)(prop))

    def test_indices_values_and_errors(self, C):
        st = pytest.importorskip("hypothesis").strategies
        twin = sx.darboux_contact(1)
        q = C.coord("q")
        values = st.sampled_from([0, 3, -2, Fraction(1, 2), Fraction(4, 2), C.zero(), q, q - q,
                                  twin.coord("p"), twin.zero(), twin.const(Fraction(-1, 3)),
                                  sx.exp(q) / (q + 1)])

        def items(degree):
            # mostly of the right length, so that valid dicts occur
            index = st.one_of(st.lists(st.integers(-1, 3), min_size=degree, max_size=degree),
                              st.lists(st.integers(-1, 3), max_size=4)).map(tuple)
            return st.tuples(st.just(degree), st.lists(st.tuples(index, values), max_size=4))

        seen = set()

        def prop(cls, case):
            degree, comps = case[0], dict(case[1])
            bad = [m for idx in comps if (m := _index_message(idx, degree, C.dim))]
            if bad:
                with pytest.raises(ValueError) as err:
                    cls(C, degree, comps)
                assert str(err.value) == bad[0]
                seen.add(bad[0].split()[1])
                return
            seen.add(len(comps) > 1)
            got = cls(C, degree, comps)
            want = {idx: v if isinstance(v, sx.Expr) else C.const(v) for idx, v in comps.items()}
            assert got.components == {idx: v for idx, v in want.items() if v.terms}
            for v in got.components.values():
                assert type(v) is sx.Expr and v.terms and v.chart == C
                assert all(type(c) is int or c.denominator != 1 for _, c in v.terms)

        self._given(prop, st.sampled_from([KForm, KVector]), st.integers(0, 3).flatmap(items))()
        # both errors, and valid dicts of one and of several components
        assert seen == {"tuple", "out", False, True}, seen

    def test_foreign_chart_raises(self, C):
        st = pytest.importorskip("hypothesis").strategies
        foreign = sx.darboux_contact(1, name="N")
        valid = st.sampled_from([(0, 1), (0, 2), (1, 2)])
        mine = st.sampled_from([1, C.coord("q"), C.zero()])

        def prop(cls, items, at, value):
            comps = dict(items)
            comps[at] = value
            with pytest.raises(sx.ChartMismatch):
                cls(C, 2, comps)

        self._given(prop, st.sampled_from([KForm, KVector]), st.lists(st.tuples(valid, mine), max_size=2),
                    valid, st.sampled_from([foreign.zero(), foreign.one(), foreign.coord("z")]))()


class TestSchouten:
    def test_constant_poisson(self):
        C2 = sx.darboux_symplectic(1)
        lam = KVector(C2, 2, {(0, 1): C2.one()})
        assert schouten_bracket(lam, lam).is_zero()

    def test_contact_calibration(self, C):
        lam, e = contact_pair(C)
        lhs = schouten_bracket(lam, lam)
        rhs = wedge_v(KVector.from_vector(e), lam).scale(2)
        assert (lhs - rhs).is_zero()
        assert schouten_bracket(lam, KVector.from_vector(e)).is_zero()

    def test_reduces_to_lie_bracket(self, C, rng):
        x, y = rand_vector(C, rng), rand_vector(C, rng)
        got = schouten_bracket(KVector.from_vector(x), KVector.from_vector(y))
        assert got == KVector.from_vector(lie_bracket(x, y))

    def test_graded_jacobi_bivectors(self, C, rng):
        for _ in range(4):
            a = rand_kvector(C, rng, 2, deg=1)
            assert schouten_bracket(a, schouten_bracket(a, a)).is_zero()


class TestLieDerivative:
    def test_hamiltonian_scaling_law(self, C, zt):
        # L_{X_f} Lam = [X_f, Lam] = +(Ef) Lam for the contact pair; the sign
        # is pinned here because it is easy to get wrong.
        from haantjes.jacobi import hamiltonian_vf, validate_jacobi
        lam, e = contact_pair(C)
        j = validate_jacobi(lam, e, zt)
        f = C.coord("z") * C.coord("q")
        lx = schouten_bracket(KVector.from_vector(hamiltonian_vf(f, j)), lam)
        resid = lx - lam.scale(e.apply_to(f))
        assert all(v.is_zero_expr() for _, v in resid.items())


class TestOperators:
    def test_identity(self, C, rng):
        x = rand_vector(C, rng)
        assert op_apply(Operator11.identity(C), x) == x

    def test_transpose_pairing(self, C, rng):
        k = Operator11(C, [[rand_poly(C, rng, 1) for _ in range(3)] for _ in range(3)])
        a = rand_kform(C, rng, 1)
        x = rand_vector(C, rng)
        lhs = sum((op_transpose_apply(k, a).covector()[i] * x[i] for i in range(3)), C.zero())
        rhs = sum((a.covector()[i] * op_apply(k, x)[i] for i in range(3)), C.zero())
        assert (lhs - rhs).is_zero_expr()


    # seeded sparse operators on the contact 5-chart, against literal entry
    # sums in Expr arithmetic

    @pytest.fixture
    def sparse(self):
        chart = sx.darboux_contact(2)
        rng = random.Random(26)
        return chart, _sparse_operator(chart, rng, 1, 3), _sparse_operator(chart, rng, 3, 0), rng

    def test_products_equal_literal_entry_sums(self, sparse):
        chart, a, b, _ = sparse
        n = chart.dim

        def literal(x, y, i, j):
            return sum((x.matrix[i][c] * y.matrix[c][j] for c in range(n)), chart.zero())

        ab = op_compose(a, b)
        comm = op_commutator(a, b)
        for i, j in product(range(n), repeat=2):
            assert ab.matrix[i][j] == literal(a, b, i, j)
            assert comm.matrix[i][j] == literal(a, b, i, j) - literal(b, a, i, j)
        assert op_compose(b, a) == Operator11(chart, [[literal(b, a, i, j) for j in range(n)] for i in range(n)])
        # the cases occur: an empty row or column of a product, an entry
        # with one pair, and commutator entries with and without terms
        assert ab.matrix[1] == (chart.zero(),) * n and all(r[0].is_zero_expr() for r in ab.matrix)
        assert any(sum(not a.matrix[i][c].is_zero_expr() and not b.matrix[c][j].is_zero_expr()
                       for c in range(n)) == 1 for i, j in product(range(n), repeat=2))
        entries = [e for row in comm.matrix for e in row]
        assert any(e.is_zero_expr() for e in entries) and not comm.is_zero_op()

    def test_apply_equals_literal_entry_sums(self, sparse):
        chart, a, _, rng = sparse
        n = chart.dim
        comps = [rand_poly(chart, rng) if i % 2 else 0 for i in range(n)]
        comps[1] = sx.exp(chart.coord("z")) / (chart.coord("q1") + 2)
        x = VectorField(chart, comps)
        alpha = KForm.one_form(chart, comps)
        got = op_apply(a, x)
        assert got.components == tuple(sum((a.matrix[r][c] * x[c] for c in range(n)), chart.zero())
                                       for r in range(n))
        co = alpha.covector()
        got_t = op_transpose_apply(a, alpha)
        assert got_t == KForm.one_form(chart, [sum((co[r] * a.matrix[r][j] for r in range(n)), chart.zero())
                                               for j in range(n)])
        assert got[1].is_zero_expr() and not got.is_zero_field()
        assert got_t[(3,)].is_zero_expr() and not got_t.is_zero()

    def test_commutator_of_an_operator_with_itself(self, sparse, monkeypatch):
        # [K, K] is the zero operator, built without a product: no _t_dot,
        # for K itself or an equal copy (before, each entry was one dot of
        # K K against -K K)
        chart, a, b, _ = sparse
        ks = [a, b, op_compose(a, b)]
        dots = []
        monkeypatch.setattr("haantjes.geometry._t_dot", lambda pairs: dots.append(pairs))
        for k in ks:
            for other in (k, Operator11(chart, k.matrix)):
                comm = op_commutator(k, other)
                assert comm == Operator11.zero(chart) and all(not e.terms for row in comm.matrix for e in row)
        assert dots == []

    def test_chart_mismatch(self, sparse):
        chart, a, b, _ = sparse
        other = sx.darboux_contact(2, name="N")
        foreign = Operator11.identity(other)
        for fn, args in ((op_compose, (a, foreign)), (op_compose, (foreign, a)),
                         (op_commutator, (a, foreign)), (op_commutator, (foreign, b)),
                         (op_apply, (a, VectorField.basis(other, 0))),
                         (op_transpose_apply, (a, KForm.d_coord(other, 0)))):
            with pytest.raises(sx.ChartMismatch):
                fn(*args)
        # an equal chart object is the same chart
        twin = Operator11.identity(sx.darboux_contact(2))
        assert op_compose(a, twin) == a and op_commutator(twin, b).is_zero_op()

    def test_commutator_budget_is_on_the_difference(self, C, monkeypatch):
        # AB - BA is one dot, so a commutator whose products exceed the
        # budget is still decided when the difference does not
        f = (C.coord("q") + C.coord("p") + C.coord("z") + 1) ** 4
        g = (C.coord("q") - C.coord("p") + 2 * C.coord("z") + 3) ** 4
        a, b = Operator11.diagonal(C, [f, g, f]), Operator11.diagonal(C, [g, f, g])
        product_nodes = sx._node_count((f * g).terms)
        monkeypatch.setattr(sx, "NODE_BUDGET", product_nodes - 1)
        with pytest.raises(sx.BudgetError):
            op_compose(a, b)
        assert op_commutator(a, b).is_zero_op()


def _sparse_operator(chart, rng, empty_row, empty_col):
    """About half the entries nonzero, none in row empty_row or column
    empty_col; a nonzero entry is a polynomial, a quotient or an exp
    multiple."""
    n = chart.dim

    def entry():
        e = rand_poly(chart, rng, 2, 2)
        kind = rng.randrange(3)
        if kind == 1:
            return e / (chart.coord(rng.randrange(n)) + rng.randint(1, 3))
        return e * sx.exp(chart.coord(rng.randrange(n))) if kind == 2 else e

    return Operator11(chart, [[entry() if r != empty_row and c != empty_col and rng.random() < 0.5 else 0
                               for c in range(n)] for r in range(n)])


class TestDot:
    def test_equals_left_fold(self, C, rng):
        p = C.coord("p")
        cases = [([rand_poly(C, rng, 3, 4) for _ in range(n)],
                  [rand_poly(C, rng, 3, 4) for _ in range(n)]) for n in (1, 2, 3, 7)]
        # quotients and exponentials, whose products merge atoms
        cases.append(([sx.exp(p) / (p + 1), rand_poly(C, rng), (p + 1) ** -1],
                      [rand_poly(C, rng), sx.exp(-p), p * sx.exp(p)]))
        for xs, ys in cases:
            assert dot(C, xs, ys) == sum((x * y for x, y in zip(xs, ys)), C.zero())

    def test_empty_is_zero(self, C):
        assert dot(C, [], []) == C.zero()

    def test_chart_mismatch(self, C):
        other = sx.darboux_contact(1, name="N")
        for xs, ys in (([other.one()], [C.one()]), ([C.one()], [other.one()])):
            with pytest.raises(sx.ChartMismatch):
                dot(C, xs, ys)
            with pytest.raises(sx.ChartMismatch):
                VectorField(C, xs + ys + [C.one()])
        # an equal chart object is the same chart: identity is only the fast path
        twin = sx.darboux_contact(1)
        assert twin is not C
        assert dot(C, [twin.coord("p")], [C.coord("q")]) == C.coord("q") * C.coord("p")
        assert VectorField(C, [twin.one(), 0, 0]) == VectorField.basis(C, 0)


def _literal_residuals(chart, a, m):
    """(A^T M - M A)[i][j] as two dots, over the full square."""
    cols_a, cols_m = list(zip(*a)), list(zip(*m))
    n = chart.dim
    return {(i, j): dot(chart, cols_a[i], cols_m[j]) - dot(chart, m[i], cols_a[j])
            for i in range(n) for j in range(n)}


def _charts_with_structures():
    """A 3-chart with its contact structure and a 4-chart with an LCS one."""
    c3 = sx.darboux_contact(1)
    c4 = sx.lcs_local(2)
    om, eta = standard_lcs_pair(c4, c4.coord("q1"))
    return [(c3, validate_contact(standard_contact_form(c3))), (c4, validate_lcs(om, eta))]


class TestCompatResiduals:
    @pytest.mark.parametrize("case", ["2-form", "flat", "bivector"])
    def test_matches_literal_difference(self, case, rng):
        charts = _charts_with_structures()
        if case == "flat":
            charts = charts[:1]     # a contact flat lives on odd charts only
        for chart, struct in charts:
            for _ in range(2):
                k = rand_operator(chart, rng).matrix
                if case == "2-form":
                    a, m = k, rand_kform(chart, rng, 2).full_matrix()
                elif case == "flat":
                    a, m = k, struct.flat
                else:
                    a, m = list(zip(*k)), rand_kvector(chart, rng, 2).full_matrix()
                got = dict(compat_residuals(chart, a, m, product(range(chart.dim), repeat=2)))
                want = {ij: e for ij, e in _literal_residuals(chart, a, m).items()
                        if not e.is_zero_expr()}
                assert got == want and got
                if case != "flat":
                    # an antisymmetric M gives a symmetric residual, so an
                    # upper triangle decides compatibility
                    assert all(got[(j, i)] == e for (i, j), e in got.items())

    def test_pairs_select_entries(self, rng):
        chart = sx.darboux_contact(1)
        k, m = rand_operator(chart, rng).matrix, rand_kform(chart, rng, 2).full_matrix()
        full = dict(compat_residuals(chart, k, m, product(range(3), repeat=2)))
        picked = list(compat_residuals(chart, k, m, [(0, 2), (0, 0), (1, 2)]))
        assert picked == [(ij, full[ij]) for ij in [(0, 2), (0, 0), (1, 2)] if ij in full]


class TestInducedBivector:
    """validate_contact and validate_lcs read Lambda off the sharp matrix S
    (S - R R^T and S); it must be Lambda(a, b) = B(sharp a, sharp b), with B
    = dtheta or Omega and sharp(dx^i) column i of S."""

    def _structures(self, rng):
        out = [(s, s.d_theta if isinstance(s, ContactStructure) else s.omega)
               for _, s in _charts_with_structures()]
        # conformal contact forms, whose Reeb fields have several components
        for c in (sx.darboux_contact(1), sx.darboux_contact(2)):
            f = sx.exp(c.coord(0)) * (c.coord(c.n_pairs) + rng.randint(1, 3))
            s = validate_contact(standard_contact_form(c).scale(f))
            out.append((s, s.d_theta))
        # an LCS pair with a rational Lee potential
        c4 = sx.lcs_local(2)
        x = [c4.coord(i) for i in range(c4.dim)]
        lee = (rng.randint(1, 3) * x[0] - x[1]) / (x[3] + rng.randint(1, 3))
        s = validate_lcs(*standard_lcs_pair(c4, lee))
        out.append((s, s.omega))
        return out

    def test_lambda_is_the_form_on_sharps(self, rng):
        structures = self._structures(rng)
        assert sum(any(not e.is_zero_expr() for e in s.reeb.components[:-1])
                   for s, _ in structures if isinstance(s, ContactStructure)) == 2
        for s, b in structures:
            assert s.validated
            chart = s.chart
            cols = [VectorField(chart, col) for col in zip(*s.sharp)]
            for i in range(chart.dim):
                for j in range(chart.dim):
                    lam = s.jacobi.lam.pair(KForm.d_coord(chart, i), KForm.d_coord(chart, j))
                    form = interior_product(cols[j], interior_product(cols[i], b))[()]
                    assert is_zero(lam - form).tag == "proven_zero"


def _against_the_oracle(C, m, rng):
    """Exact at seeded rational points: inv(M) M = I, and det(M) is sympy's
    determinant of the same entries."""
    n = len(m)
    d, inv = det(m), invert_matrix(m)
    xs = [sympy.Symbol(c) for c in C.coords]
    sym = sympy.Matrix([[to_sympy(e) for e in row] for row in m])
    checked = 0
    for pt in rational_points(C, rng, 6):
        memo = {}
        try:
            mv = [[value(e.terms, pt, memo) for e in row] for row in m]
            iv = [[value(e.terms, pt, memo) for e in row] for row in inv]
        except ZeroDivisionError:
            continue
        assert all(sum(iv[i][k] * mv[k][j] for k in range(n)) == (i == j)
                   for i in range(n) for j in range(n))
        assert value(d.terms, pt, memo) == sym.subs(dict(zip(xs, pt))).det()
        checked += 1
        if checked == 2:
            break
    assert checked == 2


class TestLinearAlgebra:
    def test_contact_flat_inverse(self, C):
        p = C.coord("p")
        one, zero = C.one(), C.zero()
        b = [[p * p, -one, -p], [one, zero, zero], [-p, zero, one]]
        assert det(b) == one
        inv = invert_matrix(b)
        for i in range(3):
            for j in range(3):
                s = sum((b[i][k] * inv[k][j] for k in range(3)), zero)
                assert s == (one if i == j else zero)

    def test_singular_rejected(self, C):
        zero = C.zero()
        with pytest.raises(ValueError):
            invert_matrix([[zero, zero, zero]] * 3)

    @pytest.mark.parametrize("n,seed", [(4, 1), (5, 2)])
    def test_rational_matrices_against_the_oracle(self, C, n, seed):
        rng = random.Random(seed)
        _against_the_oracle(C, rand_rational_matrix(C, rng, n), rng)

    @pytest.mark.parametrize("case", ["permutation", "sparse-4", "sparse-5"])
    def test_sparse_matrices_against_the_oracle(self, C, case):
        # the minor expansion skips the zero entries of a first column
        rng = random.Random(case)
        n = 5 if case == "sparse-5" else 4
        perm = list(range(n))
        while perm[0] == 0:
            rng.shuffle(perm)
        if case == "permutation":
            m = [[C.zero()] * n for _ in range(n)]
        else:
            m = rand_rational_matrix(C, rng, n)
            for r in range(n):
                for c in range(n):
                    if c != perm[r] and rng.random() < 0.5:
                        m[r][c] = C.zero()
            m[0][0] = C.zero()
        for r in range(n):
            m[r][perm[r]] = C.coord(rng.randrange(C.dim)) + rng.randint(1, 3)
        assert m[0][0].is_zero_expr() and any(not m[r][0].is_zero_expr() for r in range(n))
        _against_the_oracle(C, m, rng)

    def test_sparse_flat_skips_sub_minors(self, monkeypatch):
        # validating LS4 of models/lcs_example.hj made 53 geometry dots with
        # the dense expansion and Lambda contracted through Omega
        c4 = sx.lcs_local(2)
        factor = sx.exp(c4.coord("q1"))
        omega = KForm(c4, 2, {(0, 2): factor, (1, 3): factor})
        built, real = [], geometry.dot
        monkeypatch.setattr(geometry, "dot", lambda *a: built.append(real(*a)) or built[-1])
        assert validate_lcs(omega, KForm.d_coord(c4, 0)).validated
        assert len(built) == 28

    def test_inverse_builds_each_minor_once(self, C, monkeypatch):
        # the minor on (rows, cols) of a matrix of distinct parameters names
        # exactly the parameters a<r><c> of those rows and columns
        n = 4
        m = [[param(C, f"a{r}{c}") for c in range(n)] for r in range(n)]
        built, real = [], geometry.dot
        monkeypatch.setattr(geometry, "dot", lambda *a: built.append(real(*a)) or built[-1])
        invert_matrix(m)
        keys = []
        for e in built:
            names = {a[1] for mono, _ in e.terms for a, _ in mono}
            keys.append((tuple(sorted({int(s[1]) for s in names})),
                         tuple(sorted({int(s[2]) for s in names}))))
        assert len(set(keys)) == len(keys)
        full = tuple(range(n))
        assert {(full[:j] + full[j + 1:], full[:i] + full[i + 1:])
                for i in range(n) for j in range(n)} | {(full, full)} <= set(keys)
        # the full determinant, the 16 cofactors and 18 shared 2 x 2 minors;
        # each cofactor from scratch would take 4 dots of its own
        assert len(keys) == 35
