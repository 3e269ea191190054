import random

import pytest

import haantjes.symexpr as sx
from haantjes.checks import CheckReport
from haantjes.extended import (
    ExtendedBasis,
    ExtendedOperator,
    build_action_angle_basis,
    check_ejh,
    check_extended_algebra,
    ext_identity,
    thm_main_check,
    verify_ext_chain,
)
from haantjes.contact import induced_jacobi_from_contact, standard_contact_form, validate_contact
from haantjes.geometry import (
    KForm,
    Operator11,
    VectorField,
    d_scalar,
    interior_product,
    lie_bracket,
    op_apply,
    op_commutator,
    op_compose,
    op_transpose_apply,
)
from haantjes.symexpr import ZeroTester, fn_symbol
from haantjes.torsion import haantjes_torsion, is_haantjes

from conftest import rand_kform, rand_operator, rand_poly, rand_vector


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


# The oracle: the extended theory's formulas on pairs (X, f), written out
# literally.  The library has no pair type; it runs extended operators as
# their lifts, so these formulas share none of its extended-layer code.


def pair_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def pair_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def pair_apply(ek, p):
    """EK (X, f) = (K X + f Y, gamma(X) + k f)."""
    x, f = p
    return op_apply(ek.k_op, x) + ek.y_field.scale(f), interior_product(x, ek.gamma)[()] + ek.k_scalar * f


def pair_bracket(a, b):
    """[(X, f), (Z, h)] = ([X, Z], X h - Z f)."""
    (x, f), (z, h) = a, b
    return lie_bracket(x, z), x.apply_to(h) - z.apply_to(f)


def pair_nijenhuis(ek, a, b):
    ka, kb = pair_apply(ek, a), pair_apply(ek, b)
    out = pair_sub(pair_bracket(ka, kb), pair_apply(ek, pair_add(pair_bracket(ka, b), pair_bracket(a, kb))))
    return pair_add(out, pair_apply(ek, pair_apply(ek, pair_bracket(a, b))))


def pair_haantjes(ek, a, b):
    """The Haantjes torsion from its defining formula, the Nijenhuis torsion
    evaluated literally on composite arguments."""
    ka, kb = pair_apply(ek, a), pair_apply(ek, b)
    out = pair_apply(ek, pair_apply(ek, pair_nijenhuis(ek, a, b)))
    out = pair_add(out, pair_nijenhuis(ek, ka, kb))
    return pair_sub(out, pair_apply(ek, pair_add(pair_nijenhuis(ek, a, kb), pair_nijenhuis(ek, ka, b))))


def generators(chart):
    """(d_i, 0) for each coordinate, then (0, 1): the lifts are the frame of M x R."""
    gens = [(VectorField.basis(chart, i), chart.zero()) for i in range(chart.dim)]
    return gens + [(VectorField.zero(chart), chart.one())]


def lift(p):
    """The t-independent field X + f d_t of a pair (X, f)."""
    x, f = p
    big = x.chart.extended()
    return VectorField(big, [c.on_chart(big) for c in x.components + (f,)])


def lift_form(alpha, f):
    """The 1-form alpha + f dt of a form pair (alpha, f)."""
    big = alpha.chart.extended()
    return KForm.one_form(big, [c.on_chart(big) for c in alpha.covector() + (f,)])


def column(k, j):
    """Column j of the matrix of k, the field K d_j."""
    return VectorField(k.chart, [row[j] for row in k.matrix])


def is_zero_pair(p):
    return p[0].is_zero_field() and p[1].is_zero_expr()


class TestBasicOps:
    def test_apply_reads_off_pair(self, C, rng):
        ek = rand_extop(C, rng, sparse=False)
        assert column(ek.lifted, C.dim) == lift((ek.y_field, ek.k_scalar))
        x, f = rand_vector(C, rng), rand_poly(C, rng)
        assert op_apply(ek.lifted, lift((x, f))) == lift(pair_apply(ek, (x, f)))

    def test_identity(self, C, rng):
        assert ext_identity(C).lifted == Operator11.identity(C.extended())
        x, f = rand_vector(C, rng), rand_poly(C, rng)
        assert pair_apply(ext_identity(C), (x, f)) == (x, f)

    def test_worked_example_application(self, C):
        _, ek2 = worked_example_ops(C)
        got = op_apply(ek2.lifted, lift((VectorField.basis(C, 2), C.one())))
        assert got == lift((VectorField(C, [C.zero(), C.coord("p"), C.zero()]), C.zero()))

    def test_lift_is_independent_of_t(self, rng):
        # every lifted entry, including those of the algebra check's module
        # combinations, has a structurally zero derivative along t
        for chart in (sx.darboux_contact(1), sx.darboux_contact(2)):
            f = fn_symbol(chart, "f")
            for ek in (rand_extop(chart, rng, sparse=False), rand_extop(chart, rng).scale(f)):
                lifted = ek.lifted
                assert lifted.chart == chart.extended()
                assert all(e.diff(chart.dim).is_zero_expr() for row in lifted.matrix for e in row)

    def test_lift_on_a_chart_with_t(self, rng):
        chart = sx.Chart("T", ("q", "p", "t"))
        ek = rand_extop(chart, rng, sparse=False)
        assert ek.lifted.chart.coords == ("q", "p", "t", "t1")
        assert column(ek.lifted, 3) == lift((ek.y_field, ek.k_scalar))

    def test_bracket_antisymmetry(self, C, rng):
        # the pair bracket is the Lie bracket of the lifts
        for _ in range(3):
            a, b = ((rand_vector(C, rng), rand_poly(C, rng)) for _ in range(2))
            assert lie_bracket(lift(a), lift(b)) == lift(pair_bracket(a, b))
            assert is_zero_pair(pair_bracket(a, a))

    def test_bracket_example(self, C):
        got = lie_bracket(lift((VectorField.basis(C, 0), C.zero())), lift((VectorField.zero(C), C.coord("q"))))
        assert got == VectorField.basis(C.extended(), C.dim)

    def test_bracket_jacobi_identity(self, C, rng):
        for _ in range(3):
            a, b, c = ((rand_vector(C, rng, 1), rand_poly(C, rng, 1)) for _ in range(3))
            cyc = pair_add(pair_add(pair_bracket(a, pair_bracket(b, c)), pair_bracket(b, pair_bracket(c, a))),
                           pair_bracket(c, pair_bracket(a, b)))
            assert is_zero_pair(cyc)


class TestTranspose:
    def test_identity_on_pairs(self, C, rng):
        alpha = lift_form(rand_kform(C, rng, 1), rand_poly(C, rng))
        assert op_transpose_apply(ext_identity(C).lifted, alpha) == alpha

    def test_worked_example(self, C):
        _, ek2 = worked_example_ops(C)
        h = C.coord("p") - C.coord("z")
        got = op_transpose_apply(ek2.lifted, lift_form(d_scalar(h), h))
        assert got == lift_form(KForm(C, 1, {(1,): C.one()}), C.coord("p"))

    def test_pairing_consistency(self, C, rng):
        # EK^T (alpha, f) = (K^T alpha + f gamma, alpha(Y) + k f), and it is
        # the transpose of EK under the pairing of pairs
        for _ in range(5):
            ek = rand_extop(C, rng)
            alpha, f = rand_kform(C, rng, 1), rand_poly(C, rng)
            got = op_transpose_apply(ek.lifted, lift_form(alpha, f))
            want = lift_form(op_transpose_apply(ek.k_op, alpha) + ek.gamma.scale(f),
                             interior_product(ek.y_field, alpha)[()] + ek.k_scalar * f)
            assert got == want
            x = lift((rand_vector(C, rng), rand_poly(C, rng)))
            kx = op_apply(ek.lifted, x)
            assert (interior_product(x, got)[()]
                    - interior_product(kx, lift_form(alpha, f))[()]).is_zero_expr()


class TestCompose:
    def test_identity_neutral(self, C, rng):
        ek = rand_extop(C, rng)
        ident = ext_identity(C).lifted
        assert op_compose(ident, ek.lifted) == ek.lifted == op_compose(ek.lifted, ident)

    def test_worked_example_abelian(self, C, zt):
        ek1, ek2 = worked_example_ops(C)
        assert op_commutator(ek1.lifted, ek2.lifted).is_zero_op()

    def test_formula_vs_direct_50_random(self, C, rng):
        # column u of the product of lifts is EK_a EK_b applied to generator u
        gens = generators(C)
        for _ in range(50):
            a, b = rand_extop(C, rng), rand_extop(C, rng)
            ab = op_compose(a.lifted, b.lifted)
            for u, g in enumerate(gens):
                assert column(ab, u) == lift(pair_apply(a, pair_apply(b, g))), u


class TestTorsions:
    def test_extended_identity(self, C, zt):
        assert is_haantjes(ext_identity(C).lifted, zt).passed

    def test_worked_example_operator(self, C, zt):
        _, ek2 = worked_example_ops(C)
        assert is_haantjes(ek2.lifted, zt).passed

    def test_diagonal_abstract_reduces_to_classical(self, C, zt):
        ek = ExtendedOperator(
            Operator11.diagonal(C, [fn_symbol(C, "l1"), fn_symbol(C, "l2"), fn_symbol(C, "l3")]),
            VectorField.zero(C), KForm.zero(C, 1), C.zero())
        assert is_haantjes(ek.lifted, zt).passed

    def test_bilinearity_against_literal(self, C, zt, rng):
        # the pair torsion is function-bilinear, so its values on the
        # generators, the frame of the lift, determine it
        f = fn_symbol(C, "bf")
        gens = generators(C)
        for _ in range(2):
            ek = rand_extop(C, rng)
            lhs = pair_nijenhuis(ek, (gens[0][0].scale(f), C.zero()), gens[1])
            base = pair_nijenhuis(ek, gens[0], gens[1])
            diff = pair_sub(lhs, (base[0].scale(f), f * base[1]))
            assert all(zt(e).is_proven_zero for e in diff[0].components + (diff[1],))

    def test_table_matches_literal_eval(self):
        # a non-Haantjes operator, so a contraction that drops terms fails;
        # the torsion and the products of the lifts against the pair formulas
        # on every generator pair, on a 3-chart and a 5-chart
        rng = random.Random(7)
        for chart in (sx.darboux_contact(1), sx.darboux_contact(2)):
            gens = generators(chart)
            ek, other = rand_extop(chart, rng, sparse=False), rand_extop(chart, rng)
            table = haantjes_torsion(ek.lifted)
            assert not table.is_zero()
            for u in range(len(gens)):
                for v in range(u + 1, len(gens)):
                    assert table[u, v] == lift(pair_haantjes(ek, gens[u], gens[v])), (u, v)
            for a, b in ((ek, other), (other, ek)):
                ab = op_compose(a.lifted, b.lifted)
                for u, g in enumerate(gens):
                    assert column(ab, u) == lift(pair_apply(a, pair_apply(b, g))), u

    def test_scaling_law_on_the_lift(self, C):
        # H_{fK} = f^4 H_K on the lift, which lets the extended algebra check
        # report f*K with the torsion of K
        ek = rand_extop(C, random.Random(11), sparse=False)
        base = haantjes_torsion(ek.lifted)
        assert not base.is_zero()
        f = fn_symbol(C, "f")
        scaled = haantjes_torsion(ek.scale(f).lifted)
        f4 = f.on_chart(base.chart) ** 4
        for i in range(base.chart.dim):
            for j in range(i + 1, base.chart.dim):
                for c, d in zip(scaled[i, j].components, base[i, j].components):
                    assert (c - f4 * d).is_zero_expr(), (i, j)

    def test_example_algebra(self, C, zt):
        ek1, ek2 = worked_example_ops(C)
        rep = check_extended_algebra(ExtendedBasis([ek1, ek2], names=["EK1", "EK2"]), zt)
        assert rep.passed


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

    def test_y_along_e_fails_on_the_diagonal_only(self, C, jacobi_c, zt):
        # Y = E, with K, gamma and k zero: eq1[a][b] = Y_a E_b + Y_b E_a is
        # nonzero only at a = b = z, so a route without the diagonal passes
        bad = ExtendedOperator(Operator11.zero(C), jacobi_c.e_field, KForm.zero(C, 1), C.zero())
        rep = check_ejh(bad, jacobi_c, zt)
        assert rep.data["system_route"] == rep.data["operator_route"] == "fail"
        failed = [l for l, c in rep.details if l.startswith("ejh-system-route: ") and c.rejects_zero]
        assert failed == ["ejh-system-route: eq1[2,2]"]

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


    def test_system_route_is_symmetric_and_decides_like_the_full_loop(self, C, jacobi_c):
        # eq1[a][b] = L(K^T dx_a, dx_b) + Y_a E_b - L(dx_a, K^T dx_b) + Y_b E_a
        # in literal matrix sums is symmetric, so the route builds a <= b
        # only; its status must be that of the full (a, b) loop
        zt = ZeroTester(seed=777)
        rng = random.Random(28)
        c5 = sx.darboux_contact(2)
        j5 = induced_jacobi_from_contact(validate_contact(standard_contact_form(c5), zt), zt)
        statuses, built = set(), 0
        for chart, j in ((C, jacobi_c), (c5, j5)):
            n, zero = chart.dim, chart.zero()
            ops = [ext_identity(chart)] + [rand_extop(chart, rng, sparse=sparse) for sparse in (True, False) * 3]
            if chart is C:
                ops.append(worked_example_ops(C)[1])
            for ek in ops:
                lam, k, y, e = j.lam.full_matrix(), ek.k_op.matrix, ek.y_field, j.e_field
                g = ek.gamma.covector()

                def eq1(a, b):
                    return (sum((k[a][i] * lam[i][b] for i in range(n)), zero) + y[a] * e[b]
                            - sum((lam[a][i] * k[b][i] for i in range(n)), zero) + y[b] * e[a])

                full = CheckReport("full loop")
                for a in range(n):
                    for b in range(n):
                        assert eq1(a, b) == eq1(b, a)
                        full.require_zero("eq1", zt(eq1(a, b)))
                for a in range(n):
                    full.require_zero("eq2", zt(sum((g[i] * lam[i][a] - k[a][i] * e[i] for i in range(n)), zero)
                                                + ek.k_scalar * e[a]))
                full.require_zero("eq3", zt(sum((g[i] * e[i] for i in range(n)), zero)))
                rep = check_ejh(ek, j, zt)
                assert rep.data["system_route"] == full.status and rep.data["routes_agree"]
                labels = [l for l, _ in rep.details if l.startswith("ejh-system-route: eq1")]
                assert all(int(l[-4]) <= int(l[-2]) for l in labels)
                statuses.add(full.status)
                built += len(labels)
        assert statuses == {"pass", "fail"} and built


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
