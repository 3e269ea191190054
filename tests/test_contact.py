import random
from itertools import product

import pytest

import haantjes.symexpr as sx
from haantjes.contact import (
    appendix_family,
    check_contact_haantjes,
    classify_special_kind,
    induced_jacobi_from_contact,
    is_dissipated,
    is_homogeneous_deg0_momenta,
    reeb_eigen_check,
    special_structure_operator,
    standard_contact_form,
    techain_check,
    theorem6_check,
    theta_Kf_condition,
    validate_contact,
)
from haantjes.geometry import (
    KForm,
    KVector,
    Operator11,
    VectorField,
    compat_residuals,
    d_scalar,
    interior_product,
    op_apply,
    op_commutator,
    op_compose,
)
from haantjes.jacobi import hamiltonian_vf, jacobi_bracket
from haantjes.lcs import check_lcsh, eta_KE_check, induced_jacobi_from_lcs, theorem9_check, validate_lcs
from haantjes.symexpr import ZeroTester, exp, fn_symbol, is_zero
from haantjes.torsion import HaantjesBasis, check_haantjes_algebra, haantjes_torsion, is_haantjes

from conftest import rand_poly


@pytest.fixture
def C1():
    return sx.darboux_contact(1)


@pytest.fixture
def C2():
    return sx.darboux_contact(2)


@pytest.fixture
def cs1(C1, zt):
    return validate_contact(standard_contact_form(C1), zt)


@pytest.fixture
def cs2(C2, zt):
    return validate_contact(standard_contact_form(C2), zt)


class TestValidation:
    def test_darboux_n1(self, cs1, C1):
        assert cs1.validated
        assert cs1.reeb == VectorField.basis(C1, 2)

    def test_degenerate_theta_rejected(self, C1, zt):
        deg = validate_contact(KForm(C1, 1, {(2,): C1.one()}), zt)
        assert not deg.validated

    def test_darboux_n2(self, cs2, C2):
        assert cs2.validated
        assert cs2.reeb == VectorField.basis(C2, 4)

    def test_reeb_relations(self, cs1):
        assert interior_product(cs1.reeb, cs1.theta)[()] == cs1.chart.one()
        assert interior_product(cs1.reeb, cs1.d_theta).is_zero()

    def test_flat_sharp_identity(self, cs1, C1):
        # sharp(flat(v)) = v, through row-wise matrix-vector products
        def mv(m, x):
            return [sum((a * b for a, b in zip(row, x)), C1.zero()) for row in m]
        for i in range(C1.dim):
            v = VectorField.basis(C1, i)
            assert VectorField(C1, mv(cs1.sharp, mv(cs1.flat, v.components))) == v



def _degenerate(kind, zt):
    """(structure, K, basis of K, h): theta = dz, or Omega = 0 dq ^ dp with
    eta = dq, both failing validation, and K the identity."""
    if kind == "contact":
        ch = sx.darboux_contact(1)
        s = validate_contact(KForm(ch, 1, {(2,): ch.one()}), zt)
    else:
        ch = sx.lcs_local(1)
        s = validate_lcs(KForm(ch, 2, {(0, 1): ch.zero()}), d_scalar(ch.coord(0)), zt)
    k = Operator11.identity(ch)
    return s, k, HaantjesBasis([k]), ch.coord(0)


class TestUnvalidatedStructure:
    """A check on a structure that failed validation is undecided, and the
    induced Jacobi pair of one is refused, naming the failed validation."""

    @pytest.mark.parametrize("kind, call, raises", [
        ("contact", lambda s, k, b, h, zt: is_dissipated(h, h, s, zt), False),
        ("contact", lambda s, k, b, h, zt: theorem6_check(h, b, s, zt), False),
        ("contact", lambda s, k, b, h, zt: techain_check(h, b, s, "first", zt), False),
        ("contact", lambda s, k, b, h, zt: induced_jacobi_from_contact(s, zt), True),
        ("contact", lambda s, k, b, h, zt: reeb_eigen_check(k, s, zt), False),
        ("contact", lambda s, k, b, h, zt: check_contact_haantjes(k, s, zt), False),
        ("lcs", lambda s, k, b, h, zt: theorem9_check(h, b, s, zt), False),
        ("lcs", lambda s, k, b, h, zt: induced_jacobi_from_lcs(s, zt), True),
        ("lcs", lambda s, k, b, h, zt: check_lcsh(k, s, zt), False),
        ("lcs", lambda s, k, b, h, zt: eta_KE_check(k, s, zt), False),
    ], ids=["dissipated", "theorem6", "techain", "induced-contact", "reeb", "contact-haantjes",
            "theorem9", "induced-lcs", "lcsh", "eta_ke"])
    def test_check_is_unknown(self, zt, kind, call, raises):
        s, k, basis, h = _degenerate(kind, zt)
        assert s.validity.status == "fail"
        note = f"{kind} did not validate: fail"
        if raises:
            with pytest.raises(ValueError, match=note):
                call(s, k, basis, h, zt)
        else:
            rep = call(s, k, basis, h, zt)
            assert (rep.status, rep.notes) == ("unknown", [note])


class TestInducedJacobi:
    def test_printed_darboux_forms(self, cs1, C1, zt):
        j = induced_jacobi_from_contact(cs1, zt)
        assert j.validated
        assert j.lam == KVector(C1, 2, {(0, 1): C1.one(), (1, 2): -C1.coord("p")})
        assert j.e_field == VectorField.basis(C1, 2)

    def test_n2_two_blocks(self, cs2, C2, zt):
        j = induced_jacobi_from_contact(cs2, zt)
        assert j.validated
        expect = KVector(C2, 2, {
            (0, 2): C2.one(), (1, 3): C2.one(),
            (2, 4): -C2.coord(2), (3, 4): -C2.coord(3),
        })
        assert j.lam == expect


class TestHamiltonianDynamics:
    def test_worked_example_field(self, cs1, C1):
        h = C1.coord("p") - C1.coord("z")
        assert hamiltonian_vf(h, cs1.jacobi) == VectorField(C1, [C1.one(), C1.coord("p"), C1.coord("z")])

    def test_unit_hamiltonian_minus_reeb(self, cs1):
        assert hamiltonian_vf(cs1.chart.one(), cs1.jacobi) == -cs1.reeb

    def test_hamiltonian_dissipation_rate(self, cs1, C1):
        h = C1.coord("p") - C1.coord("z")
        xh = hamiltonian_vf(h, cs1.jacobi)
        assert (xh.apply_to(h) + h * cs1.reeb.apply_to(h)).is_zero_expr()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("conformal", [False, True], ids=["theta", "exp(q)theta"])
    def test_defining_equations(self, n, conformal, zt, rng):
        # X_f of s.jacobi is the contact field: i_X theta = -f and
        # i_X dtheta = df - (Rf) theta, read off the forms alone
        chart = sx.darboux_contact(n)
        theta = standard_contact_form(chart)
        if conformal:
            theta = theta.scale(exp(chart.coord(0)))
        s = validate_contact(theta, zt)
        assert s.validated
        for f in [rand_poly(chart, rng) for _ in range(3)] + [fn_symbol(chart, "f")]:
            x = hamiltonian_vf(f, s.jacobi)
            assert zt(interior_product(x, s.theta)[()] + f).is_proven_zero
            resid = interior_product(x, s.d_theta) - (d_scalar(f) - s.theta.scale(s.reeb.apply_to(f)))
            assert all(zt(e).is_proven_zero for _, e in resid.items())

    def test_dissipated_quantities(self, cs1, C1, zt):
        h = C1.coord("p") - C1.coord("z")
        assert is_dissipated(h, h, cs1, zt).passed
        assert is_dissipated(C1.coord("p"), h, cs1, zt).passed
        assert not is_dissipated(C1.coord("q"), h, cs1, zt).passed

    def test_evolution_law_random(self, cs1, C1, zt, rng):
        j = induced_jacobi_from_contact(cs1, zt)
        for _ in range(4):
            f = rand_poly(C1, rng)
            h = rand_poly(C1, rng)
            xh = hamiltonian_vf(h, cs1.jacobi)
            resid = xh.apply_to(f) - (jacobi_bracket(f, h, j) - f * cs1.reeb.apply_to(h))
            assert resid.is_zero_expr()


class TestCompatibility:
    def test_identity_passes_all(self, cs1, zt):
        k = Operator11.identity(cs1.chart)
        assert check_contact_haantjes(k, cs1, zt).passed
        # sharp K^T = K sharp, as the matrix identity K^T flat = flat K
        square = product(range(cs1.chart.dim), repeat=2)
        assert all(zt(e).accepts_zero for _, e in compat_residuals(cs1.chart, k.matrix, cs1.flat, square))

    def test_asymmetric_operator_fails(self, cs1, C1, zt):
        k = Operator11(C1, [[C1.zero(), C1.one(), C1.zero()],
                            [C1.zero()] * 3, [C1.zero()] * 3])
        assert not check_contact_haantjes(k, cs1, zt).passed

    def test_appendix_family_not_dtheta_symmetric(self, cs2, C2, zt):
        # the quasi-compatible general form does NOT satisfy the symmetric
        # compatibility: the pure-A instance is a counterexample
        a, z = fn_symbol(C2, "A"), C2.zero()
        k = Operator11.diagonal(C2, [a, z, -a, z, z])
        rep = check_contact_haantjes(k, cs2, zt)
        assert not rep.passed

    def test_theta_condition_on_hamiltonian_fields_scalar_op(self, cs1, C1, zt):
        # part (b) of the compatibility, K^T theta ^ theta = 0, is the
        # theta-condition on Hamiltonian fields: those of abstract f and g
        # span every tangent vector
        k = Operator11.identity(C1).scale(fn_symbol(C1, "s"))
        assert check_contact_haantjes(k, cs1, zt).passed

    def test_reeb_eigen_identity(self, cs1, zt):
        rep = reeb_eigen_check(Operator11.identity(cs1.chart), cs1, zt)
        assert rep.passed and rep.data["factor"] == cs1.chart.one()

    def test_reeb_eigen_appendix(self, cs2, C2, zt):
        d = fn_symbol(C2, "D")
        b = fn_symbol(C2, "Bf")
        kzz = fn_symbol(C2, "Kzz")
        rep = reeb_eigen_check(appendix_family(C2, "F1", {"D": d, "B": b, "Kzz": kzz}), cs2, zt)
        assert rep.passed and rep.data["factor"] == kzz
        qk2z, pk1z = fn_symbol(C2, "qK2z"), fn_symbol(C2, "pK1z")
        qk1z = fn_symbol(C2, "qk1z", deps=[0, 1, 2, 4])
        f3 = appendix_family(C2, "F3", {"D": d, "qK2z": qk2z, "pK1z": pk1z, "qk1z": qk1z})
        rep3 = reeb_eigen_check(f3, cs2, zt)
        assert rep3.passed and rep3.data["factor"] == d

    def test_reeb_eigen_failure(self, cs1, C1, zt):
        k = Operator11(C1, [[C1.zero()] * 3, [C1.zero()] * 3,
                            [C1.one(), C1.zero(), C1.zero()]])
        # K R = K d_z = 0, proportional; but K d_z with a q-component fails
        k2 = Operator11(C1, [[C1.zero(), C1.zero(), C1.one()],
                             [C1.zero()] * 3, [C1.zero()] * 3])
        assert reeb_eigen_check(k, cs1, zt).passed
        assert not reeb_eigen_check(k2, cs1, zt).passed


class TestThetaKf:
    def test_identity(self, cs1, C1, zt):
        assert theta_Kf_condition(Operator11.identity(C1), fn_symbol(C1, "f"), cs1, zt).passed

    def test_first_kind_all_f(self, cs2, C2, zt):
        k = special_structure_operator(C2, [[C2.zero()] * 2] * 2, b_upper=C2.one())
        assert theta_Kf_condition(k, fn_symbol(C2, "f"), cs2, zt).passed

    def test_second_kind_degree_split(self, cs2, C2, zt):
        k = special_structure_operator(C2, [[C2.one(), C2.zero()], [C2.zero(), C2.zero()]],
                                       kzz=C2.one())
        assert theta_Kf_condition(k, C2.coord("q1"), cs2, zt).passed
        assert not theta_Kf_condition(k, C2.coord("p1"), cs2, zt).passed


class TestHomogeneity:
    def test_coordinate(self, C2, zt):
        assert is_homogeneous_deg0_momenta(C2.coord("q1"), C2, zt).passed

    def test_momentum_ratio(self, C2, zt):
        f = C2.coord("p1") / C2.coord("p2")
        assert is_homogeneous_deg0_momenta(f, C2, zt).passed

    def test_momentum_fails(self, C2, zt):
        assert not is_homogeneous_deg0_momenta(C2.coord("p1"), C2, zt).passed


class TestClassification:
    def test_first_kind_instances(self, cs2, C2, zt):
        kb = special_structure_operator(C2, [[C2.zero()] * 2] * 2, b_upper=C2.const(3))
        kc = special_structure_operator(C2, [[C2.zero()] * 2] * 2, c_lower=C2.const(2))
        for k in (kb, kc):
            assert is_haantjes(k, zt).passed
            kind, _ = classify_special_kind(k, cs2, zt)
            assert kind == "first"

    def test_second_kind_instances(self, cs2, C2, zt):
        k1 = special_structure_operator(C2, [[C2.one(), C2.zero()], [C2.zero(), C2.zero()]],
                                        kzz=C2.one())
        g = fn_symbol(C2, "g")
        k2 = special_structure_operator(C2, [[g, C2.zero()], [C2.zero(), g]], kzz=g)
        for k in (k1, k2):
            kind, ev = classify_special_kind(k, cs2, zt)
            assert kind == "second", [str(d) for d in ev.details]
        assert is_haantjes(k1, zt).passed
        assert is_haantjes(k2, zt).passed

    def test_identity_is_neither(self, cs2, C2, zt):
        kind, _ = classify_special_kind(Operator11.identity(C2), cs2, zt)
        assert kind == "neither"

    def test_reeb_projector_is_second_kind(self, cs1, C1, zt):
        # dz (x) dz satisfies every structural condition with a zero x-block
        # and K^z_z = 1, and its torsion vanishes: honestly second kind
        k = Operator11(C1, [[C1.zero()] * 3, [C1.zero()] * 3,
                            [C1.zero(), C1.zero(), C1.one()]])
        assert haantjes_torsion(k).is_zero()
        kind, _ = classify_special_kind(k, cs1, zt)
        assert kind == "second"

    def test_calibration_identity_recorded(self, cs2, C2, zt):
        k = special_structure_operator(C2, [[C2.one(), C2.zero()], [C2.zero(), C2.zero()]],
                                       kzz=C2.one())
        _, ev = classify_special_kind(k, cs2, zt)
        labels = [lab for lab, _ in ev.details]
        assert any("calibration" in lab for lab in labels)


class TestTeChain:
    def test_first_kind_constant(self, cs2, C2, zt):
        k = special_structure_operator(C2, [[C2.zero()] * 2] * 2, b_upper=C2.one())
        rep = techain_check(C2.coord("q1") + C2.coord("q2"),
                            HaantjesBasis([k], names=["Kb"]), cs2, "first", zt)
        assert rep.passed

    def test_first_kind_nonconstant(self, cs2, C2, zt):
        b = C2.coord("p2") - C2.coord("p1")
        k = special_structure_operator(C2, [[C2.zero()] * 2] * 2, b_upper=b)
        rep = techain_check(C2.coord("q1") + C2.coord("q2"),
                            HaantjesBasis([k], names=["Kb2"]), cs2, "first", zt)
        assert rep.passed

    def test_second_kind_instances(self, cs2, C2, zt):
        q1, q2 = C2.coord("q1"), C2.coord("q2")
        k1 = special_structure_operator(C2, [[C2.one(), C2.zero()], [C2.zero(), C2.zero()]],
                                        kzz=C2.one())
        rep1 = techain_check(q1 * q1 + q2, HaantjesBasis([k1], names=["K1"]), cs2, "second", zt)
        assert rep1.passed
        k2 = special_structure_operator(C2, [[C2.zero(), C2.zero()], [C2.zero(), C2.const(3)]],
                                        kzz=C2.const(3))
        rep2 = techain_check(q1 + q2 * q2 * q2, HaantjesBasis([k2], names=["K2"]), cs2, "second", zt)
        assert rep2.passed

    def test_second_kind_requires_homogeneity(self, cs2, C2, zt):
        k1 = special_structure_operator(C2, [[C2.one(), C2.zero()], [C2.zero(), C2.zero()]],
                                        kzz=C2.one())
        rep = techain_check(C2.coord("p1"), HaantjesBasis([k1]), cs2, "second", zt)
        assert not rep.passed

    def test_identity_basis_reported_honestly(self, cs1, C1, zt):
        rep = techain_check(C1.coord("p") - C1.coord("z"),
                            HaantjesBasis([Operator11.identity(C1)]), cs1, "first", zt)
        assert not rep.passed

    def test_projector_toy_first_kind_identities(self, cs1, C1, zt):
        # the kernel-theta projector has the first-kind structure and chain,
        # and the bracket identities only need those; its Haantjes torsion
        # does NOT vanish, which the algebra-level check reports separately
        one, zero, p = C1.one(), C1.zero(), C1.coord("p")
        proj = Operator11(C1, [[one, zero, zero], [zero, one, zero], [p, zero, zero]])
        kind, _ = classify_special_kind(proj, cs1, zt)
        assert kind == "first"
        rep = techain_check(C1.coord("q"), HaantjesBasis([proj]), cs1, "first", zt)
        assert rep.passed
        assert not haantjes_torsion(proj).is_zero()


class TestTheorem6:
    def test_first_kind_instance(self, cs2, C2, zt):
        k = special_structure_operator(C2, [[C2.zero()] * 2] * 2, b_upper=C2.one())
        rep = theorem6_check(C2.coord("q1") + C2.coord("q2"),
                             HaantjesBasis([k], names=["Kb"]), cs2, zt)
        assert rep.passed

    def test_second_kind_instance(self, cs2, C2, zt):
        q1, q2 = C2.coord("q1"), C2.coord("q2")
        k = special_structure_operator(C2, [[C2.one(), C2.zero()], [C2.zero(), C2.zero()]],
                                       kzz=C2.one())
        rep = theorem6_check(q1 * q1 + q2, HaantjesBasis([k], names=["K1"]), cs2, zt)
        assert rep.passed


class TestAppendixFamilies:
    def _funcs(self, C2, tag=""):
        return {
            "D": fn_symbol(C2, "D" + tag),
            "B": fn_symbol(C2, "B" + tag),
            "Kzz": fn_symbol(C2, "Kzz" + tag),
        }

    def test_f1_f2_haantjes_abstract(self, C2, zt):
        for fam in ("F1", "F2"):
            k = appendix_family(C2, fam, self._funcs(C2))
            assert haantjes_torsion(k).is_zero(), fam

    def test_f3_haantjes_abstract(self, C2, zt):
        d = fn_symbol(C2, "D")
        k = appendix_family(C2, "F3", {
            "D": d,
            "qK2z": fn_symbol(C2, "qK2z"),
            "pK1z": fn_symbol(C2, "pK1z"),
            "qk1z": fn_symbol(C2, "qk1z", deps=[0, 1, 2, 4]),
        })
        assert haantjes_torsion(k).is_zero()

    def test_f1_f2_concrete_instances(self, C2, zt):
        q1, q2, p1, z = C2.coord(0), C2.coord(1), C2.coord(2), C2.coord(4)
        f1 = appendix_family(C2, "F1", {"D": z, "B": q1 * q2, "Kzz": p1})
        assert haantjes_torsion(f1).is_zero()
        f2 = appendix_family(C2, "F2", {"D": C2.coord(3), "B": sx.exp(z), "Kzz": C2.one()})
        assert is_haantjes(f2, zt).passed

    def test_f1_family_abelian(self, C2, zt):
        a = appendix_family(C2, "F1", self._funcs(C2, "1"))
        b = appendix_family(C2, "F1", self._funcs(C2, "2"))
        assert op_commutator(a, b).is_zero_op()
        rep = check_haantjes_algebra(HaantjesBasis([a, b], names=["F1a", "F1b"]), zt)
        assert rep.passed

    def test_f2_family_abelian(self, C2, zt):
        a = appendix_family(C2, "F2", self._funcs(C2, "1"))
        b = appendix_family(C2, "F2", self._funcs(C2, "2"))
        assert op_commutator(a, b).is_zero_op()

    def test_f3_noncommuting_unless_same_function(self, C2, zt):
        d = fn_symbol(C2, "D")
        shared = {"D": d, "qK2z": fn_symbol(C2, "qK2z"), "pK1z": fn_symbol(C2, "pK1z")}
        a = appendix_family(C2, "F3", dict(shared, qk1z=fn_symbol(C2, "ka", deps=[0, 1, 2, 4])))
        b = appendix_family(C2, "F3", dict(shared, qk1z=fn_symbol(C2, "kb", deps=[0, 1, 2, 4])))
        comm = op_commutator(a, b)
        assert not comm.is_zero_op()
        nonzero = [e for row in comm.matrix for e in row if not e.is_zero_expr()]
        assert all(is_zero(e, seed=3).tag == "proven_nonzero" for e in nonzero)
        same = appendix_family(C2, "F3", dict(shared, qk1z=fn_symbol(C2, "ka", deps=[0, 1, 2, 4])))
        assert op_commutator(a, same).is_zero_op()

    def test_f3_dependence_constraint(self, C2):
        d = fn_symbol(C2, "D")
        with pytest.raises(ValueError):
            appendix_family(C2, "F3", {
                "D": d, "qK2z": d, "pK1z": d,
                "qk1z": fn_symbol(C2, "bad"),  # depends on p2
            })

    def test_requires_dim5_chart(self, C1):
        with pytest.raises(ValueError):
            appendix_family(C1, "F1", {})
