import random

import pytest

import haantjes.extended as extended
import haantjes.symexpr as sx
from haantjes.extended import (
    ExtFormPair,
    ExtPair,
    ExtendedBasis,
    ExtendedOperator,
    build_action_angle_basis,
    check_ejh,
    check_extended_algebra,
    ext_apply,
    ext_bracket,
    ext_compose,
    ext_compose_check,
    ext_haantjes,
    ext_identity,
    ext_nijenhuis_eval,
    ext_transpose_apply,
    is_ext_haantjes,
    lambda_e_sharp,
    thm_main_check,
    verify_ext_chain,
)
from haantjes.contact import induced_jacobi_from_contact, standard_contact_form, validate_contact
from haantjes.geometry import KForm, KVector, Operator11, VectorField, d_scalar
from haantjes.symexpr import ZeroTester, fn_symbol

from conftest import commuting_pair, rand_kform, rand_operator, rand_poly, rand_vector, self_only_matrix


@pytest.fixture
def C():
    return sx.darboux_contact(1)


@pytest.fixture
def jacobi_c(C, zt):
    c = validate_contact(standard_contact_form(C), zt)
    return induced_jacobi_from_contact(c, zt)


def worked_example_ops(C):
    one, zero, p = C.one(), C.zero(), C.coord("p")
    ek1 = ext_identity(C)
    ek2 = ExtendedOperator(
        Operator11.diagonal(C, [one, one, zero]),
        VectorField(C, [zero, p, zero]),
        KForm.zero(C, 1), zero, name="EK2")
    return ek1, ek2


def rand_extop(chart, rng, deg=1, sparse=True):
    zero_chance = 0.4 if sparse else 0.0
    k = rand_operator(chart, rng, deg)
    y = rand_vector(chart, rng, deg) if rng.random() > zero_chance else VectorField.zero(chart)
    g = rand_kform(chart, rng, 1, deg) if rng.random() > zero_chance else KForm.zero(chart, 1)
    ks = rand_poly(chart, rng, deg) if rng.random() > zero_chance else chart.zero()
    return ExtendedOperator(k, y, g, ks)


def ext_haantjes_eval(ek, a, b):
    """Extended Haantjes torsion from its defining formula, the Nijenhuis
    torsion evaluated literally on composite arguments (slow oracle)."""
    ka, kb = ext_apply(ek, a), ext_apply(ek, b)
    out = ext_apply(ek, ext_apply(ek, ext_nijenhuis_eval(ek, a, b)))
    out = out + ext_nijenhuis_eval(ek, ka, kb)
    return out - ext_apply(ek, ext_nijenhuis_eval(ek, a, kb) + ext_nijenhuis_eval(ek, ka, b))


class TestBasicOps:
    def test_apply_reads_off_pair(self, C, rng):
        ek = rand_extop(C, rng, sparse=False)
        got = ext_apply(ek, ExtPair(VectorField.zero(C), C.one()))
        assert got.x_field == ek.y_field and (got.f_scalar - ek.k_scalar).is_zero_expr()

    def test_identity(self, C, rng):
        x = rand_vector(C, rng)
        f = rand_poly(C, rng)
        got = ext_apply(ext_identity(C), ExtPair(x, f))
        assert got.x_field == x and got.f_scalar == f

    def test_worked_example_application(self, C):
        _, ek2 = worked_example_ops(C)
        got = ext_apply(ek2, ExtPair(VectorField.basis(C, 2), C.one()))
        assert got.x_field == VectorField(C, [C.zero(), C.coord("p"), C.zero()])
        assert got.f_scalar.is_zero_expr()

    def test_bracket_antisymmetry(self, C, rng):
        a = ExtPair(rand_vector(C, rng), rand_poly(C, rng))
        assert ext_bracket(a, a).is_zero_pair()

    def test_bracket_example(self, C):
        got = ext_bracket(ExtPair(VectorField.basis(C, 0), C.zero()),
                          ExtPair(VectorField.zero(C), C.coord("q")))
        assert got.x_field.is_zero_field() and got.f_scalar == C.one()

    def test_bracket_jacobi_identity(self, C, rng):
        for _ in range(3):
            a, b, c = (ExtPair(rand_vector(C, rng, 1), rand_poly(C, rng, 1)) for _ in range(3))
            cyc = (ext_bracket(a, ext_bracket(b, c))
                   + ext_bracket(b, ext_bracket(c, a))
                   + ext_bracket(c, ext_bracket(a, b)))
            assert cyc.x_field.is_zero_field() and cyc.f_scalar.is_zero_expr()


class TestTranspose:
    def test_identity_on_pairs(self, C, rng):
        fp = ExtFormPair(rand_kform(C, rng, 1), rand_poly(C, rng))
        got = ext_transpose_apply(ext_identity(C), fp)
        assert (got.alpha - fp.alpha).is_zero() and (got.f_scalar - fp.f_scalar).is_zero_expr()

    def test_worked_example(self, C):
        _, ek2 = worked_example_ops(C)
        h = C.coord("p") - C.coord("z")
        got = ext_transpose_apply(ek2, ExtFormPair(d_scalar(h), h))
        assert got.alpha == KForm(C, 1, {(1,): C.one()})
        assert got.f_scalar == C.coord("p")

    def test_pairing_consistency(self, C, rng):
        for _ in range(5):
            ek = rand_extop(C, rng)
            fp = ExtFormPair(rand_kform(C, rng, 1), rand_poly(C, rng))
            pr = ExtPair(rand_vector(C, rng), rand_poly(C, rng))
            lhs = ext_transpose_apply(ek, fp).pair(pr)
            rhs = fp.pair(ext_apply(ek, pr))
            assert (lhs - rhs).is_zero_expr()


class TestCompose:
    def test_identity_neutral(self, C, rng):
        ek = rand_extop(C, rng)
        assert ext_compose_check(ext_identity(C), ek, ZeroTester(5)).passed

    def test_worked_example_abelian(self, C, zt):
        ek1, ek2 = worked_example_ops(C)
        ab = ext_compose(ek1, ek2)
        ba = ext_compose(ek2, ek1)
        from haantjes.extended import _ext_commutator_residuals
        assert all(e.is_zero_expr() for _, e in _ext_commutator_residuals(ab, ba))

    def test_formula_vs_direct_50_random(self, C, rng):
        zt = ZeroTester(seed=555)
        for _ in range(50):
            a = rand_extop(C, rng)
            b = rand_extop(C, rng)
            assert ext_compose_check(a, b, zt).passed


class TestTorsions:
    def test_extended_identity(self, C, zt):
        assert is_ext_haantjes(ext_identity(C), zt).passed

    def test_worked_example_operator(self, C, zt):
        _, ek2 = worked_example_ops(C)
        assert is_ext_haantjes(ek2, zt).passed

    def test_diagonal_abstract_reduces_to_classical(self, C, zt):
        ek = ExtendedOperator(
            Operator11.diagonal(C, [fn_symbol(C, "l1"), fn_symbol(C, "l2"), fn_symbol(C, "l3")]),
            VectorField.zero(C), KForm.zero(C, 1), C.zero())
        assert is_ext_haantjes(ek, zt).passed

    def test_bilinearity_against_literal(self, C, zt, rng):
        # table values times coefficient functions = literal evaluation
        f = fn_symbol(C, "bf")
        for _ in range(2):
            ek = rand_extop(C, rng)
            lhs = ext_nijenhuis_eval(
                ek, ExtPair(VectorField.basis(C, 0).scale(f), C.zero()),
                ExtPair(VectorField.basis(C, 1), C.zero()))
            base = ext_nijenhuis_eval(
                ek, ExtPair(VectorField.basis(C, 0), C.zero()),
                ExtPair(VectorField.basis(C, 1), C.zero()))
            diff = lhs - base.scale(f)
            assert all(zt(e).is_proven_zero for _, e in diff.residuals())

    def test_table_matches_literal_eval(self, C):
        # a non-Haantjes operator, so a contraction that drops terms fails
        ek = rand_extop(C, random.Random(7), sparse=False)
        gens = [ExtPair(VectorField.basis(C, i), C.zero()) for i in range(C.dim)]
        gens.append(ExtPair(VectorField.zero(C), C.one()))
        table = ext_haantjes(ek)
        assert list(table) == [(u, v) for u in range(len(gens)) for v in range(u + 1, len(gens))]
        assert not all(h.is_zero_pair() for h in table.values())
        for (u, v), h in table.items():
            assert h == ext_haantjes_eval(ek, gens[u], gens[v]), (u, v)

    def test_example_algebra(self, C, zt):
        ek1, ek2 = worked_example_ops(C)
        rep = check_extended_algebra(ExtendedBasis([ek1, ek2], names=["EK1", "EK2"]), zt)
        assert rep.passed

    def test_one_torsion_per_distinct_operator(self, zt, monkeypatch):
        # EA EB = EB EA: 8 torsions, not 9, and the same report as a run that
        # computes one per label
        chart = sx.Chart("R3", ("x", "y", "z"))

        def basis():
            return [ExtendedOperator(k, VectorField.zero(chart), KForm.zero(chart, 1),
                                     chart.const(c), name=nm)
                    for k, c, nm in zip(commuting_pair(chart), (1, 2), ("EA", "EB"))]

        calls = []
        real = extended.is_ext_haantjes
        monkeypatch.setattr(extended, "is_ext_haantjes", lambda ek, zt: calls.append(ek) or real(ek, zt))
        shared = check_extended_algebra(ExtendedBasis(basis()), zt)
        assert len(calls) == 8
        calls.clear()
        compose = extended.ext_compose

        def self_only(ek):
            self_only_matrix(ek.k_op)
            return ek

        monkeypatch.setattr(extended, "ext_compose", lambda a, b: self_only(compose(a, b)))
        unshared = check_extended_algebra(ExtendedBasis([self_only(ek) for ek in basis()]), zt)
        assert len(calls) == 9
        assert shared == unshared and shared.status == "fail"


class TestEJH:
    def test_extended_identity_always_compatible(self, C, jacobi_c, zt):
        rep = check_ejh(ext_identity(C), jacobi_c, zt)
        assert rep.passed and rep.data["routes_agree"]

    def test_worked_example(self, C, jacobi_c, zt):
        _, ek2 = worked_example_ops(C)
        rep = check_ejh(ek2, jacobi_c, zt)
        assert rep.passed and rep.data["routes_agree"]

    def test_pure_y_fails(self, C, jacobi_c, zt):
        bad = ExtendedOperator(Operator11.zero(C), VectorField.basis(C, 0),
                               KForm.zero(C, 1), C.zero())
        rep = check_ejh(bad, jacobi_c, zt)
        assert not rep.passed and rep.data["routes_agree"]

    def test_dual_route_agreement_50_random(self, C, jacobi_c, rng):
        # operator-identity route and three-equation route must agree on
        # passing AND failing inputs; zero disagreements tolerated
        zt = ZeroTester(seed=777)
        outcomes = {"pass": 0, "fail": 0}
        for _ in range(50):
            ek = rand_extop(C, rng)
            rep = check_ejh(ek, jacobi_c, zt)
            assert rep.data["routes_agree"], rep.data
            outcomes["pass" if rep.passed else "fail"] += 1
        assert outcomes["fail"] > 0  # the corpus genuinely exercises failures


class TestChains:
    def test_extended_identity_chain(self, C, zt, rng):
        h = rand_poly(C, rng)
        rep = verify_ext_chain(h, ExtendedBasis([ext_identity(C)]), zt)
        assert rep.passed
        assert (rep.data["potentials"][0] - h).is_zero_expr()

    def test_worked_example_chain(self, C, zt):
        ek1, ek2 = worked_example_ops(C)
        h = C.coord("p") - C.coord("z")
        rep = verify_ext_chain(h, ExtendedBasis([ek1, ek2], names=["EK1", "EK2"]), zt)
        assert rep.passed
        assert rep.data["potentials"][0] == h
        assert rep.data["potentials"][1] == C.coord("p")
        assert rep.data["rank"] == 2

    def test_inconsistent_operator_flagged(self, C, zt):
        bad = ExtendedOperator(Operator11.identity(C), VectorField.basis(C, 1),
                               KForm.zero(C, 1), C.zero())
        rep = verify_ext_chain(C.coord("p") - C.coord("z"), ExtendedBasis([bad]), zt)
        assert not rep.passed


class TestMainTheorem:
    def test_worked_example(self, C, jacobi_c, zt):
        ek1, ek2 = worked_example_ops(C)
        rep = thm_main_check(C.coord("p") - C.coord("z"),
                             ExtendedBasis([ek1, ek2], names=["EK1", "EK2"]), jacobi_c, zt)
        assert rep.passed

    def test_identity_basis(self, C, jacobi_c, zt):
        rep = thm_main_check(C.coord("p") - C.coord("z"),
                             ExtendedBasis([ext_identity(C)]), jacobi_c, zt)
        assert rep.passed

    def test_dissipation_rate_of_second_potential(self, C, jacobi_c, zt):
        from haantjes.jacobi import hamiltonian_vf
        h = C.coord("p") - C.coord("z")
        xh = hamiltonian_vf(h, jacobi_c)
        h2 = C.coord("p")
        resid = xh.apply_to(h2) + h2 * jacobi_c.e_field.apply_to(h)
        assert resid.is_zero_expr()

    def test_precondition_failure_rejected(self, C, jacobi_c, zt):
        bad = ExtendedOperator(Operator11.zero(C), VectorField.basis(C, 0),
                               KForm.zero(C, 1), C.zero())
        rep = thm_main_check(C.coord("p") - C.coord("z"), ExtendedBasis([bad]), jacobi_c, zt)
        assert not rep.passed


class TestActionAngle:
    def test_n1_standard(self, zt):
        chart = sx.Chart("AA1", ("phi", "J", "Z"), ("darboux-contact", 1))
        j = chart.coord("J")
        h = j * j / 2
        basis, rep = build_action_angle_basis([h, j], chart, zt)
        assert rep.passed
        assert rep.data["singular_locus"] == ["nu_1 = J = 0"]
        c = validate_contact(standard_contact_form(chart), zt)
        js = induced_jacobi_from_contact(c, zt)
        assert all(check_ejh(ek, js, zt).passed for ek in basis.operators)
        assert thm_main_check(h, basis, js, zt).passed

    def test_n2_standard(self, zt):
        chart = sx.Chart("AA2", ("phi1", "phi2", "J1", "J2", "Z"), ("darboux-contact", 2))
        j1, j2 = chart.coord("J1"), chart.coord("J2")
        h = (j1 * j1 + j2 * j2) / 2
        basis, rep = build_action_angle_basis([h, j1, j2], chart, zt)
        assert rep.passed
        c = validate_contact(standard_contact_form(chart), zt)
        js = induced_jacobi_from_contact(c, zt)
        assert all(check_ejh(ek, js, zt).passed for ek in basis.operators)
        tm = thm_main_check(h, basis, js, zt)
        assert tm.passed
        assert check_extended_algebra(basis, zt).passed

    def test_single_hamiltonian_trivial(self, zt):
        chart = sx.Chart("AA1b", ("phi", "J", "Z"), ("darboux-contact", 1))
        j = chart.coord("J")
        basis, rep = build_action_angle_basis([j * j / 2], chart, zt)
        assert rep.passed and len(basis.operators) == 1

    def test_degenerate_hessian_rejected(self, zt):
        chart = sx.Chart("AA1c", ("phi", "J", "Z"), ("darboux-contact", 1))
        j = chart.coord("J")
        basis, rep = build_action_angle_basis([j, j * j / 2], chart, zt)
        assert basis is None and not rep.passed

    def test_angle_dependence_rejected(self, zt):
        chart = sx.Chart("AA1d", ("phi", "J", "Z"), ("darboux-contact", 1))
        j, phi = chart.coord("J"), chart.coord("phi")
        basis, rep = build_action_angle_basis([j * j / 2 + phi], chart, zt)
        assert basis is None and not rep.passed
