import pytest

import haantjes.lcs as lcs
import haantjes.symexpr as sx
from haantjes.geometry import KForm, KVector, Operator11, VectorField, interior_product
from haantjes.jacobi import jacobi_bracket
from haantjes.lcs import (
    check_lcsh,
    eta_KE_check,
    induced_jacobi_from_lcs,
    lcs_bracket,
    lcs_hamiltonian_vf,
    standard_lcs_pair,
    theorem9_check,
    validate_lcs,
)
from haantjes.symexpr import ZeroTester, exp as exp_
from haantjes.torsion import HaantjesBasis

from conftest import rand_poly


@pytest.fixture
def L1(zt):
    chart = sx.lcs_local(1)
    om, eta = standard_lcs_pair(chart, chart.coord("q"))
    return validate_lcs(om, eta, zt)


@pytest.fixture
def L2(zt):
    chart = sx.lcs_local(2)
    om, eta = standard_lcs_pair(chart, chart.coord("q1"))
    return validate_lcs(om, eta, zt)


class TestValidation:
    def test_conformal_n1(self, L1):
        assert L1.validated
        q = L1.chart.coord("q")
        assert L1.e_field == VectorField(L1.chart, [L1.chart.zero(), -exp_(-q)])

    def test_symplectic_case(self, zt):
        chart = sx.lcs_local(1)
        om, _ = standard_lcs_pair(chart, chart.zero())
        l = validate_lcs(om, KForm.zero(chart, 1), zt)
        assert l.validated and l.e_field.is_zero_field()

    def test_lee_condition_failure(self, zt):
        chart = sx.lcs_local(2)
        om, _ = standard_lcs_pair(chart, chart.zero())
        bad = validate_lcs(om, KForm.d_coord(chart, 2), zt)  # eta = dp1, not Lee
        assert not bad.validated

    def test_wrong_inverse_caught(self, zt, monkeypatch):
        # the back-check flat(E) = eta is the only guard on the inverse
        chart = sx.lcs_local(2)
        om, eta = standard_lcs_pair(chart, chart.coord("q1"))
        real = lcs.invert_matrix
        monkeypatch.setattr(lcs, "invert_matrix", lambda m: [[2 * v for v in row] for row in real(m)])
        bad = validate_lcs(om, eta, zt)
        assert not bad.validated
        assert any(label.startswith("flat(E) - eta") for label, _ in bad.validity.details)

    def test_flat_sharp_identity(self, L1):
        chart = L1.chart
        for i in range(chart.dim):
            v = VectorField.basis(chart, i)
            back = L1.sharp_form(KForm.one_form(chart, [
                sum((L1.flat[a][j] * v[j] for j in range(chart.dim)), chart.zero())
                for a in range(chart.dim)
            ]))
            assert back == v


class TestInducedJacobi:
    def test_printed_local_form(self, L1, zt):
        j = induced_jacobi_from_lcs(L1, zt)
        assert j.validated
        q = L1.chart.coord("q")
        assert j.lam == KVector(L1.chart, 2, {(0, 1): exp_(-q)})

    def test_symplectic_reduction(self, zt):
        chart = sx.lcs_local(1)
        om, _ = standard_lcs_pair(chart, chart.zero())
        l = validate_lcs(om, KForm.zero(chart, 1), zt)
        j = induced_jacobi_from_lcs(l, zt)
        assert j.lam == KVector(chart, 2, {(0, 1): chart.one()})
        assert j.e_field.is_zero_field()


class TestDynamics:
    def test_zero_hamiltonian_field_symplectic(self, zt):
        chart = sx.lcs_local(1)
        om, _ = standard_lcs_pair(chart, chart.zero())
        l = validate_lcs(om, KForm.zero(chart, 1), zt)
        assert lcs_hamiltonian_vf(chart.one(), l).is_zero_field()

    def test_eta_xf_is_minus_ef(self, L1, zt, rng):
        chart = L1.chart
        for _ in range(4):
            f = rand_poly(chart, rng)
            xf = lcs_hamiltonian_vf(f, L1)
            resid = interior_product(xf, L1.eta)[()] + L1.e_field.apply_to(f)
            assert zt(resid).is_proven_zero

    def test_bracket_triangle(self, zt, rng):
        # lcs_bracket = Omega(X_f, X_g) = induced Jacobi bracket, for both
        # chart sizes and Lee potentials 0, q, q + p
        for n in (1, 2):
            chart = sx.lcs_local(n)
            q = chart.coord(0)
            p = chart.coord(n)
            for lee in (chart.zero(), q, q + p):
                om, eta = standard_lcs_pair(chart, lee)
                struct = validate_lcs(om, eta, zt)
                assert struct.validated
                j = induced_jacobi_from_lcs(struct, zt)
                for _ in range(2):
                    f, g = rand_poly(chart, rng), rand_poly(chart, rng)
                    xf = lcs_hamiltonian_vf(f, struct)
                    xg = lcs_hamiltonian_vf(g, struct)
                    br = lcs_bracket(f, g, struct)
                    assert zt(br - struct.omega.apply(xf, xg)).is_proven_zero
                    assert zt(br - jacobi_bracket(f, g, j)).is_proven_zero
                    assert zt(br + lcs_bracket(g, f, struct)).is_proven_zero

    def test_evolution_law(self, L1, zt, rng):
        chart = L1.chart
        for _ in range(3):
            f, h = rand_poly(chart, rng), rand_poly(chart, rng)
            xh = lcs_hamiltonian_vf(h, L1)
            resid = xh.apply_to(f) - (lcs_bracket(f, h, L1)
                                      + f * interior_product(xh, L1.eta)[()])
            assert zt(resid).is_proven_zero

    def test_hamiltonian_not_conserved(self, L1, zt):
        h = L1.chart.coord("q")
        xh = lcs_hamiltonian_vf(h, L1)
        resid = xh.apply_to(h) - h * interior_product(xh, L1.eta)[()]
        assert zt(resid).is_proven_zero


class TestCompatibility:
    def test_identity(self, L1, zt):
        assert check_lcsh(Operator11.identity(L1.chart), L1, zt).passed

    def test_scalar_operator_n2(self, L2, zt):
        lam = sx.fn_symbol(L2.chart, "lam")
        k = Operator11.identity(L2.chart).scale(lam)
        assert check_lcsh(k, L2, zt).passed

    def test_mismatched_pairing_fails(self, L2, zt):
        chart = L2.chart
        lam, mu = sx.fn_symbol(chart, "lam"), sx.fn_symbol(chart, "mu")
        bad = Operator11.diagonal(chart, [lam, mu, mu, lam])
        assert not check_lcsh(bad, L2, zt).passed

    def test_eta_ke_automatic_for_compatible(self, L2, zt):
        chart = L2.chart
        k = Operator11.diagonal(chart, [chart.coord(0), chart.coord(1),
                                        chart.coord(0), chart.coord(1)])
        assert check_lcsh(k, L2, zt).passed
        assert eta_KE_check(k, L2, zt).passed


class TestTheorem9:
    def test_n1_scalar_chain(self, L1, zt):
        chart = L1.chart
        q = chart.coord("q")
        rep = theorem9_check(q, HaantjesBasis([Operator11.diagonal(chart, [q, q])],
                                              names=["K"]), L1, zt)
        assert rep.passed

    def test_symplectic_collapse(self, zt):
        chart = sx.lcs_local(2)
        om, _ = standard_lcs_pair(chart, chart.zero())
        l = validate_lcs(om, KForm.zero(chart, 1), zt)
        q1, q2 = chart.coord(0), chart.coord(1)
        k = Operator11.diagonal(chart, [q1, q2, q1, q2])
        rep = theorem9_check(q1 + q2, HaantjesBasis([Operator11.identity(chart), k]), l, zt)
        assert rep.passed

    def test_identity_basis(self, L1, zt):
        rep = theorem9_check(L1.chart.coord("q"),
                             HaantjesBasis([Operator11.identity(L1.chart)]), L1, zt)
        assert rep.passed

    def test_n2_nontrivial(self, L2, zt):
        chart = L2.chart
        q1, q2 = chart.coord(0), chart.coord(1)
        k = Operator11.diagonal(chart, [q1, q2, q1, q2])
        rep = theorem9_check(q1 + q2, HaantjesBasis([Operator11.identity(chart), k],
                                                    names=["I", "K"]), L2, zt)
        assert rep.passed

    def test_poissonization_of_lcs_jacobi(self, L1, zt):
        # nested exponentials: e^{-t} against e^{-l} factors cancel exactly
        from haantjes.jacobi import poissonize
        j = induced_jacobi_from_lcs(L1, zt)
        _, rep = poissonize(j, zt, test_pairs=[(L1.chart.coord("q"), L1.chart.coord("p"))])
        assert rep.passed

    def test_broken_eta_ke_rejected_at_preconditions(self, zt):
        chart = sx.lcs_local(2)
        om, eta = standard_lcs_pair(chart, chart.coord(0) + chart.coord(2))  # l = q1 + p1
        l = validate_lcs(om, eta, zt)
        assert l.validated
        bad = Operator11(chart, [[chart.one() if (i, j) == (0, 0) else chart.zero()
                                  for j in range(4)] for i in range(4)])
        assert not eta_KE_check(bad, l, zt).passed
        rep = theorem9_check(chart.coord(0), HaantjesBasis([bad], names=["Kbad"]), l, zt)
        assert not rep.passed
        labels = [str(lab) for lab, _ in rep.details]
        assert any("eta(KE)" in lab for lab in labels)
