import random
from itertools import product

import pytest

import haantjes.symexpr as sx
from haantjes.checks import CheckReport
from haantjes.geometry import (
    KForm,
    KVector,
    Operator11,
    VectorField,
    compat_residuals,
    d_scalar,
    lie_bracket,
    schouten_bracket,
)
from haantjes.extended import ExtendedOperator, check_ejh
from haantjes.jacobi import (
    JacobiStructure,
    ParticularIntegralWitness,
    check_jh_compatibility,
    hamiltonian_vf,
    jacobi_bracket,
    lambda_sharp,
    particular_integral_check,
    poissonize,
    proposition_involutivity_check,
    validate_jacobi,
)
from haantjes.symexpr import ZeroTester, fn_symbol, is_zero
from haantjes.torsion import HaantjesBasis

from conftest import rand_operator, rand_poly


@pytest.fixture
def contact_jacobi(zt):
    chart = sx.darboux_contact(1)
    lam = KVector(chart, 2, {(0, 1): chart.one(), (1, 2): -chart.coord("p")})
    e = VectorField(chart, [chart.zero(), chart.zero(), chart.one()])
    return validate_jacobi(lam, e, zt)


@pytest.fixture
def poisson_jacobi(zt):
    chart = sx.darboux_symplectic(1, "P")
    return validate_jacobi(KVector(chart, 2, {(0, 1): chart.one()}), VectorField.zero(chart), zt)


class TestValidation:
    def test_poisson_case(self, poisson_jacobi):
        assert poisson_jacobi.validated

    def test_contact_pair(self, contact_jacobi):
        assert contact_jacobi.validated

    def test_transverse_e_invalid(self, zt):
        chart = sx.darboux_contact(1)
        j = validate_jacobi(KVector(chart, 2, {(0, 1): chart.one()}),
                            VectorField.basis(chart, 2), zt)
        assert not j.validated

    def test_e_in_span_valid(self, zt):
        # E = d_q wedges to zero against Lam = d_q ^ d_p: both conditions hold
        chart = sx.darboux_contact(1)
        j = validate_jacobi(KVector(chart, 2, {(0, 1): chart.one()}),
                            VectorField.basis(chart, 0), zt)
        assert j.validated


class TestBracket:
    def test_antisymmetry_diagonal(self, contact_jacobi, rng):
        chart = contact_jacobi.chart
        f = rand_poly(chart, rng)
        assert jacobi_bracket(f, f, contact_jacobi).is_zero_expr()

    def test_darboux_q_p(self, contact_jacobi):
        chart = contact_jacobi.chart
        assert jacobi_bracket(chart.coord("q"), chart.coord("p"), contact_jacobi) == chart.one()

    def test_poisson_reduction(self, poisson_jacobi, rng):
        chart = poisson_jacobi.chart
        f, g = rand_poly(chart, rng), rand_poly(chart, rng)
        lam_part = poisson_jacobi.lam.pair(d_scalar(f), d_scalar(g))
        assert (jacobi_bracket(f, g, poisson_jacobi) - lam_part).is_zero_expr()

    def test_jacobi_identity(self, contact_jacobi, zt, rng):
        j = contact_jacobi
        chart = j.chart
        for _ in range(3):
            f, g, h = (rand_poly(chart, rng, deg=1) for _ in range(3))
            cyc = (jacobi_bracket(f, jacobi_bracket(g, h, j), j)
                   + jacobi_bracket(g, jacobi_bracket(h, f, j), j)
                   + jacobi_bracket(h, jacobi_bracket(f, g, j), j))
            assert zt(cyc).is_proven_zero


class TestHamiltonianField:
    def test_constant_gives_minus_e(self, contact_jacobi):
        assert hamiltonian_vf(contact_jacobi.chart.one(), contact_jacobi) == -contact_jacobi.e_field

    def test_matches_contact_field(self, contact_jacobi):
        chart = contact_jacobi.chart
        h = chart.coord("p") - chart.coord("z")
        xh = hamiltonian_vf(h, contact_jacobi)
        assert xh == VectorField(chart, [chart.one(), chart.coord("p"), chart.coord("z")])

    def test_coordinate_hamiltonian_field(self, contact_jacobi):
        # X_q = sharp(dq) - q E = -d_p - q d_z on the Darboux chart
        chart = contact_jacobi.chart
        xq = hamiltonian_vf(chart.coord("q"), contact_jacobi)
        assert xq == VectorField(chart, [chart.zero(), -chart.one(), -chart.coord("q")])

    def test_sharp_is_the_matrix_rows_dotted_with_df(self):
        # lambda_sharp against the rows of j.full_matrix() dotted with df,
        # literal Expr sums, on seeded pairs with zero components and
        # polynomial, quotient and exp entries (validity is not needed)
        rng = random.Random(28)
        for chart in (sx.darboux_contact(1), sx.darboux_symplectic(2), sx.darboux_contact(2)):
            n, zero = chart.dim, chart.zero()

            def entry():
                e = rand_poly(chart, rng, 2, 2)
                kind = rng.randrange(4)
                if kind == 1:
                    return e / (chart.coord(rng.randrange(n)) + 2)
                if kind == 2:
                    return e * sx.exp(chart.coord(rng.randrange(n)))
                return e if kind == 3 else zero

            for _ in range(3):
                lam = KVector(chart, 2, {(i, k): entry() for i in range(n) for k in range(i + 1, n)})
                j = JacobiStructure(chart, lam, VectorField(chart, [entry() for _ in range(n)]))
                f = entry() + chart.coord(0) * entry()
                df = [f.diff(k) for k in range(n)]
                rows = [sum((row[k] * df[k] for k in range(n)), zero) for row in j.full_matrix()]
                assert lambda_sharp(j, d_scalar(f)) == VectorField(chart, rows)
                assert hamiltonian_vf(f, j) == VectorField(chart, [r - f * e for r, e in
                                                                   zip(rows, j.e_field.components)])

    def test_defining_relation(self, contact_jacobi, rng):
        # {g,f} = X_f g + g Ef pins the sharp convention
        j = contact_jacobi
        chart = j.chart
        for _ in range(5):
            f, g = rand_poly(chart, rng), rand_poly(chart, rng)
            xf = hamiltonian_vf(f, j)
            resid = jacobi_bracket(g, f, j) - (xf.apply_to(g) + g * j.e_field.apply_to(f))
            assert resid.is_zero_expr()

    def test_antihomomorphism(self, contact_jacobi, rng):
        j = contact_jacobi
        chart = j.chart
        for _ in range(4):
            f, g = rand_poly(chart, rng), rand_poly(chart, rng)
            lhs = hamiltonian_vf(jacobi_bracket(f, g, j), j)
            rhs = lie_bracket(hamiltonian_vf(f, j), hamiltonian_vf(g, j))
            assert (lhs + rhs).is_zero_field()

    def test_lambda_scaling_law(self, contact_jacobi, rng):
        # L_{X_f} Lam = [X_f, Lam] = +(Ef) Lam on the contact pair.  The
        # opposite sign also circulates in the literature, but the defining
        # relation for X_f above forces this one; the test pins what
        # actually holds.
        j = contact_jacobi
        chart = j.chart
        for _ in range(4):
            f = rand_poly(chart, rng)
            lx = schouten_bracket(KVector.from_vector(hamiltonian_vf(f, j)), j.lam)
            resid = lx - j.lam.scale(j.e_field.apply_to(f))
            assert all(e.is_zero_expr() for _, e in resid.items())

    def test_constancy_criterion(self, contact_jacobi, zt):
        # (ii): g constant along X_f iff {g,f} - g Ef = 0, both directions
        j = contact_jacobi
        chart = j.chart
        q, p, z = (chart.coord(i) for i in range(3))
        f = p - z
        xf = hamiltonian_vf(f, j)
        # non-constant case: both sides provably nonzero
        crit = jacobi_bracket(p, f, j) - p * j.e_field.apply_to(f)
        assert (crit - xf.apply_to(p)).is_zero_expr()
        assert zt(crit).tag == "proven_nonzero"
        assert zt(xf.apply_to(p)).tag == "proven_nonzero"
        # constant case: g = q along X_1 = -E, both sides provably zero
        x1 = hamiltonian_vf(chart.one(), j)
        crit0 = jacobi_bracket(q, chart.one(), j) - q * j.e_field.apply_to(chart.one())
        assert zt(crit0).is_proven_zero and zt(x1.apply_to(q)).is_proven_zero


class TestCompatibility:
    def test_identity(self, contact_jacobi, zt):
        assert check_jh_compatibility(Operator11.identity(contact_jacobi.chart),
                                      contact_jacobi, zt=zt).passed

    def test_paired_diagonal(self, zt):
        chart = sx.darboux_symplectic(2)
        lam = KVector(chart, 2, {(0, 2): chart.one(), (1, 3): chart.one()})
        j = validate_jacobi(lam, VectorField.zero(chart), zt)
        l, m = fn_symbol(chart, "lam"), fn_symbol(chart, "mu")
        assert check_jh_compatibility(Operator11.diagonal(chart, [l, m, l, m]), j, zt=zt).passed
        assert not check_jh_compatibility(Operator11.diagonal(chart, [l, l, m, m]), j, zt=zt).passed

    def test_upper_triangle_decides_like_the_full_square(self, contact_jacobi, zt, rng):
        # K L - L K^T is symmetric, so a failing report lists each
        # off-diagonal residual once, with the full square's verdict
        chart = contact_jacobi.chart
        k2 = Operator11.diagonal(chart, [chart.one(), chart.one(), chart.zero()])
        rep = check_jh_compatibility(k2, contact_jacobi, zt=zt)
        assert [lab for lab, _ in rep.details] == ["(KL - LK^T)[1][2]"]
        for k in [k2] + [rand_operator(chart, rng) for _ in range(4)]:
            rep = check_jh_compatibility(k, contact_jacobi, zt=zt)
            square = dict(compat_residuals(chart, list(zip(*k.matrix)), contact_jacobi.full_matrix(),
                                           product(range(chart.dim), repeat=2)))
            full = CheckReport("square")
            for (i, jj), e in square.items():
                full.require_zero(f"[{i}][{jj}]", zt(e))
            assert rep.status == full.status
            labels = [lab for lab, _ in rep.details]
            assert len(labels) == len(set(labels)) == len({tuple(sorted(ij)) for ij in square})

    def test_omega_variant(self, zt):
        chart = sx.darboux_symplectic(2)
        lam = KVector(chart, 2, {(0, 2): chart.one(), (1, 3): chart.one()})
        j = validate_jacobi(lam, VectorField.zero(chart), zt)
        omega = KForm(chart, 2, {(0, 2): chart.one(), (1, 3): chart.one()})
        l, m = fn_symbol(chart, "lam"), fn_symbol(chart, "mu")
        k = Operator11.diagonal(chart, [l, m, l, m])
        assert check_jh_compatibility(k, j, zt=zt).passed
        # the symplectic special case O K = K^T O
        square = product(range(chart.dim), repeat=2)
        assert all(zt(e).accepts_zero for _, e in compat_residuals(chart, k.matrix, omega.full_matrix(), square))


class TestInvolutivity:
    def test_poisson_two_dof(self, zt):
        chart = sx.darboux_symplectic(2)
        q1, q2 = chart.coord(0), chart.coord(1)
        lam = KVector(chart, 2, {(0, 2): chart.one(), (1, 3): chart.one()})
        j = validate_jacobi(lam, VectorField.zero(chart), zt)
        k = Operator11.diagonal(chart, [q1, q2, q1, q2])
        basis = HaantjesBasis([Operator11.identity(chart), k])
        rep = proposition_involutivity_check(q1 + q2, basis, j, zt)
        assert rep.passed

    def test_plain_operator_of_worked_example_not_jh(self, contact_jacobi, zt):
        # only the extended operator (K2, p d_p, 0, 0) is EJH-compatible;
        # its plain (1,1) part alone fails K Lam = Lam K^T
        chart = contact_jacobi.chart
        k2 = Operator11.diagonal(chart, [chart.one(), chart.one(), chart.zero()])
        assert not check_jh_compatibility(k2, contact_jacobi, zt=zt).passed

    def test_lcs_induced_jacobi_with_nonzero_e(self, zt):
        # E-terms of the proposition identity are nonzero here
        from haantjes.lcs import induced_jacobi_from_lcs, standard_lcs_pair, validate_lcs
        chart = sx.lcs_local(2)
        q1, q2, p1, p2 = (chart.coord(i) for i in range(4))
        om, eta = standard_lcs_pair(chart, q1)
        l = validate_lcs(om, eta, zt)
        j = induced_jacobi_from_lcs(l, zt)
        h = q1 * p1 + q2
        k = Operator11.diagonal(chart, [q1 * p1, q2, q1 * p1, q2])
        basis = HaantjesBasis([Operator11.identity(chart), k])
        assert not j.e_field.apply_to(h).is_zero_expr()
        rep = proposition_involutivity_check(h, basis, j, zt)
        assert rep.passed

    def test_single_identity_basis(self, contact_jacobi, zt):
        # H_1 = H: the identity 0 = H EH - H EH holds trivially, and the
        # singleton chain is accepted
        h = contact_jacobi.chart.coord("p") - contact_jacobi.chart.coord("z")
        rep = proposition_involutivity_check(
            h, HaantjesBasis([Operator11.identity(contact_jacobi.chart)]), contact_jacobi, zt)
        assert rep.passed

    def test_incompatible_rejected(self, zt):
        chart = sx.darboux_symplectic(2)
        lam = KVector(chart, 2, {(0, 2): chart.one(), (1, 3): chart.one()})
        j = validate_jacobi(lam, VectorField.zero(chart), zt)
        bad = Operator11.diagonal(chart, [chart.coord(0), chart.coord(0), chart.coord(1), chart.coord(1)])
        basis = HaantjesBasis([Operator11.identity(chart), bad])
        rep = proposition_involutivity_check(chart.coord(0) + chart.coord(1), basis, j, zt)
        assert not rep.passed


class TestParticularIntegrals:
    def test_constants_of_motion(self, poisson_jacobi, zt):
        chart = poisson_jacobi.chart
        q, p = chart.coord("q"), chart.coord("p")
        h = q**2 + p**2
        w = ParticularIntegralWitness(coefficients=[[chart.zero()]])
        rep = particular_integral_check([h], h, poisson_jacobi, w, zt)
        assert rep.passed

    def test_dissipated_vs_involution(self, contact_jacobi, zt):
        # {H,H} = 0 exactly, yet H is dissipated: the report distinguishes
        chart = contact_jacobi.chart
        h = chart.coord("p") - chart.coord("z")
        w = ParticularIntegralWitness(coefficients=[[chart.zero()]])
        rep = particular_integral_check([h], h, contact_jacobi, w, zt)
        assert rep.passed
        assert any("dissipated" in n for n in rep.notes)

    def test_supplied_coefficient(self, contact_jacobi, zt):
        chart = contact_jacobi.chart
        q, p, z = (chart.coord(i) for i in range(3))
        h = p - z
        # {p, H} expands to exactly 0, so the exact coefficient is a = 0;
        # p is still dissipated (X_H p = p), which the report distinguishes
        w = ParticularIntegralWitness(coefficients=[[chart.zero()]])
        rep = particular_integral_check([p], h, contact_jacobi, w, zt)
        assert rep.passed
        assert any("dissipated" in n for n in rep.notes)
        # and a wrong coefficient fails
        w2 = ParticularIntegralWitness(coefficients=[[chart.one()]])
        assert not particular_integral_check([p], h, contact_jacobi, w2, zt).passed


class TestPoissonization:
    def test_poisson_case(self, poisson_jacobi, zt):
        p_tilde, rep = poissonize(poisson_jacobi, zt,
                                  test_pairs=[(poisson_jacobi.chart.coord(0),
                                               poisson_jacobi.chart.coord(1))])
        assert rep.passed
        t_idx = p_tilde.chart.dim - 1
        assert p_tilde[(0, 1)] == sx.exp(-p_tilde.chart.coord(t_idx))

    def test_contact_case(self, contact_jacobi, zt, rng):
        chart = contact_jacobi.chart
        pairs = [(rand_poly(chart, rng, deg=1), rand_poly(chart, rng, deg=1)) for _ in range(3)]
        _, rep = poissonize(contact_jacobi, zt, test_pairs=pairs)
        assert rep.passed

    def test_lift_check(self, contact_jacobi, zt):
        # the trivial lift K (+) 1 is compatible with the Poissonized bivector
        # exactly when KL = LK^T and KE = E, which are eq1 and eq2 of the EJH
        # system route for the extended operator (K, 0, 0, 1)
        chart = contact_jacobi.chart

        def lift_check(k):
            ek = ExtendedOperator(k, VectorField.zero(chart), KForm.zero(chart, 1), chart.one())
            rep = check_ejh(ek, contact_jacobi, zt)
            assert rep.data["routes_agree"]
            failed = {lab.split(": ")[1][:3] for lab, c in rep.details
                      if isinstance(c, sx.ZeroCertainty) and c.rejects_zero}
            return rep, {"KL=LK^T": "fail" if "eq1" in failed else "pass",
                         "KE=E": "fail" if "eq2" in failed else "pass"}

        rep, data = lift_check(Operator11.identity(chart))
        assert rep.passed and data["KE=E"] == "pass"
        rep2, data2 = lift_check(Operator11.identity(chart).scale(chart.const(2)))
        assert not rep2.passed and data2["KE=E"] == "fail"
        assert data2["KL=LK^T"] == "pass"
