import random
from itertools import product

import pytest

import haantjes.symexpr as sx
from haantjes.contact import standard_contact_form, validate_contact
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
    lie_derivative,
    op_apply,
    op_compose,
    op_transpose_apply,
    raised,
    schouten_bracket,
    wedge,
    wedge_v,
)
from haantjes.lcs import standard_lcs_pair, validate_lcs
from haantjes.symexpr import is_zero

from conftest import rand_kform, rand_kvector, rand_operator, rand_poly, rand_vector


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
            w = rand_kform(C, rng, k) if k else KForm.from_scalar(rand_poly(C, rng))
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
        big = sx.darboux_contact(1).extended("t")
        e_z = VectorField.basis(big, 2)
        d_t = VectorField.basis(big, 3)
        w = wedge_v(KVector.from_vector(d_t), KVector.from_vector(e_z))
        assert w == KVector(big, 2, {(2, 3): -big.one()})


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
    def test_z_independent_form(self, C):
        theta = KForm(C, 1, {(0,): -C.coord("p"), (2,): C.one()})
        assert lie_derivative(VectorField.basis(C, 2), theta).is_zero()

    def test_scalar_is_directional(self, C, rng):
        x = rand_vector(C, rng)
        f = rand_poly(C, rng)
        assert (lie_derivative(x, f) - x.apply_to(f)).is_zero_expr()

    def test_commutes_with_d(self, C, rng):
        for _ in range(4):
            x = rand_vector(C, rng, deg=1)
            w = rand_kform(C, rng, 1)
            lhs = lie_derivative(x, exterior_derivative(w))
            rhs = exterior_derivative(lie_derivative(x, w))
            assert (lhs - rhs).is_zero()

    def test_hamiltonian_scaling_law(self, C, zt):
        # L_{X_f} Lam = +(Ef) Lam for the contact pair; the sign is pinned
        # here because it is easy to get wrong.
        from haantjes.jacobi import hamiltonian_vf, validate_jacobi
        lam, e = contact_pair(C)
        j = validate_jacobi(lam, e, zt)
        f = C.coord("z") * C.coord("q")
        lx = lie_derivative(hamiltonian_vf(f, j), lam)
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

    def test_raised_matches_pairing_of_sharps(self, rng):
        for chart, struct in _charts_with_structures():
            b = rand_kform(chart, rng, 2)
            sharps = [struct.sharp_form(KForm.d_coord(chart, i)) for i in range(chart.dim)]
            lam = raised(b, struct.sharp)
            assert lam.degree == 2
            for i in range(chart.dim):
                for j in range(i + 1, chart.dim):
                    assert lam[(i, j)] == b.apply(sharps[i], sharps[j])


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
