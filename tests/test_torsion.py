import pathlib
import random

import pytest

import haantjes.symexpr as sx
import haantjes.torsion as torsion
from haantjes.cli import parse_model
from haantjes.geometry import KForm, Operator11, VectorField, d_scalar
from haantjes.symexpr import ZeroTester, fn_symbol, is_zero
from haantjes.torsion import (
    HaantjesBasis,
    check_haantjes_algebra,
    frobenius_codistribution,
    frobenius_distribution,
    haantjes_eval,
    haantjes_torsion,
    invariance_check,
    is_haantjes,
    nijenhuis_eval,
    nijenhuis_torsion,
    verify_chain,
)

from conftest import commuting_pair, rand_operator, rand_point, rand_poly, self_only_matrix


MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"


@pytest.fixture
def C2():
    return sx.Chart("R2", ("x", "y"))


def _appendix_pattern(name):
    """The nonzero entries of operator `name` in models/appendix_families.hj."""
    k = parse_model((MODELS / "appendix_families.hj").read_text()).declaration(name).payload["value"]
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
_SPARSE_CASES = [(mask, dim) for mask in ("upper", "lower", "block", "nilpotent", "diagonal+nilpotent")
                 for dim in (3, 4, 5)] + [("F1", 5), ("F2", 5), ("F3", 5)]


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
        # the frame table differentiates each entry of K once per coordinate
        chart = sx.Chart("R4", ("x", "y", "z", "w"))
        k = rand_operator(chart, random.Random(53))
        calls = []
        diff = sx.Expr.diff
        monkeypatch.setattr(sx.Expr, "diff", lambda e, which: calls.append(which) or diff(e, which))
        assert not nijenhuis_torsion(k).is_zero()
        assert 0 < len(calls) <= chart.dim ** 3

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

    def test_frame_table_matches_literal_eval(self, C2):
        # every pair i < j up to a 4-chart, so the factored contraction reads
        # s(e_a, e_j) for j >= 2; canonical terms make the match exact
        rng = random.Random(43)
        charts = (C2, sx.Chart("R3", ("x", "y", "z")), sx.Chart("R4", ("x", "y", "z", "w")))
        for chart, count in zip(charts, (3, 2, 2)):
            for _ in range(count):
                k = rand_operator(chart, rng)
                h = haantjes_torsion(k)
                for i in range(chart.dim):
                    for j in range(i + 1, chart.dim):
                        lit = haantjes_eval(k, VectorField.basis(chart, i), VectorField.basis(chart, j))
                        assert h[(i, j)].components == lit.components, (chart.name, i, j)

    @pytest.mark.parametrize("mask,dim", _SPARSE_CASES)
    def test_sparse_tables_match_literal_eval(self, mask, dim):
        # zero entries leave some s(e_a, e_j) unread, so haantjes_torsion skips
        # them; the literal formulas check both tables exactly on every pair
        chart = sx.Chart(f"R{dim}", tuple(f"x{i+1}" for i in range(dim)))
        rng = random.Random(47)
        keep = _MASKS[mask]
        k = Operator11(chart, [[rand_poly(chart, rng) if keep(dim, r, c) else chart.zero()
                                for c in range(dim)] for r in range(dim)])
        tau, h = nijenhuis_torsion(k), haantjes_torsion(k)
        for i in range(dim):
            for j in range(i + 1, dim):
                x, y = VectorField.basis(chart, i), VectorField.basis(chart, j)
                assert tau[(i, j)].components == nijenhuis_eval(k, x, y).components, (i, j)
                assert h[(i, j)].components == haantjes_eval(k, x, y).components, (i, j)

    def test_numeric_cross_check(self, C2, rng):
        # symbolic torsions vs finite differences of the defining formulas
        from oracle import symbolic_torsions, torsions_match_fd
        for _ in range(4):
            k = rand_operator(C2, rng, deg=2)
            pt = rand_point(C2, rng)
            assert torsions_match_fd(k, pt, symbolic_torsions(k))


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
        # one per label
        chart = sx.Chart("R3", ("x", "y", "z"))
        calls = []
        real = torsion.is_haantjes
        monkeypatch.setattr(torsion, "is_haantjes", lambda k, zt: calls.append(k) or real(k, zt))
        shared = check_haantjes_algebra(HaantjesBasis(list(commuting_pair(chart)), names=["A", "B"]), zt)
        assert len(calls) == 6
        calls.clear()
        compose = torsion.op_compose
        monkeypatch.setattr(torsion, "op_compose", lambda a, b: self_only_matrix(compose(a, b)))
        ops = [self_only_matrix(k) for k in commuting_pair(chart)]
        unshared = check_haantjes_algebra(HaantjesBasis(ops, names=["A", "B"]), zt)
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

    def test_verdict_is_no_surer_than_its_torsions(self):
        # a tester that can only sample: the torsion of A passes as
        # probably_zero, and so must every algebra member that reads it
        chart = sx.Chart("R3", ("x", "y", "z"))
        x, y, z = (chart.coord(i) for i in range(3))
        a = Operator11(chart, [[x * y, z, 0], [0, y, x], [y * z, 0, x + z]])

        def sampling(e):
            return sx.PROVEN_ZERO if e.is_zero_expr() else sx.ZeroCertainty("probably_zero", samples=1)

        torsion_rep = is_haantjes(a, sampling)
        assert (torsion_rep.status, torsion_rep.certainty.tag) == ("pass", "probably_zero")
        rep = check_haantjes_algebra(HaantjesBasis([Operator11.identity(chart), a], names=["I", "A"]), sampling)
        assert (rep.status, rep.certainty.tag) == ("pass", "probably_zero")


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
        assert frobenius_codistribution(rep.data["forms"], zt).passed

    def test_chain_implies_invariance(self, zt):
        # a generator's codistribution is preserved by the whole basis
        chart = sx.darboux_symplectic(2)
        q1, q2 = chart.coord(0), chart.coord(1)
        basis = HaantjesBasis([Operator11.identity(chart),
                               Operator11.diagonal(chart, [q1, q2, q1, q2])])
        chain = verify_chain(q1 + q2, basis, zt)
        assert chain.passed
        for k in basis.operators:
            assert invariance_check(k, chain.data["forms"], zt).passed


class TestFrobenius:
    def test_single_closed_form(self, zt):
        chart = sx.darboux_contact(1)
        h = chart.coord("p") * chart.coord("q")
        assert frobenius_codistribution([d_scalar(h)], zt).passed

    def test_coordinate_plane(self, zt):
        chart = sx.Chart("R3", ("x", "y", "z"))
        rep = frobenius_distribution([VectorField.basis(chart, 0), VectorField.basis(chart, 1)], zt)
        assert rep.passed

    def test_contact_kernel_not_integrable(self, zt):
        chart = sx.darboux_contact(1)
        p = chart.coord("p")
        f1 = VectorField.basis(chart, 1)
        f2 = VectorField(chart, [chart.one(), chart.zero(), p])
        rep = frobenius_distribution([f1, f2], zt)
        assert not rep.passed


class TestInvariance:
    def test_identity_always_passes(self, C2, zt, rng):
        forms = [KForm.d_coord(C2, 0)]
        assert invariance_check(Operator11.identity(C2), forms, zt).passed

    def test_diagonal_eigencoform(self, C2, zt):
        k = Operator11.diagonal(C2, [fn_symbol(C2, "l1"), fn_symbol(C2, "l2")])
        assert invariance_check(k, [KForm.d_coord(C2, 0)], zt).passed

    def test_nilpotent_off_span(self, C2, zt):
        k = Operator11(C2, [[C2.zero(), C2.one()], [C2.zero(), C2.zero()]])
        # K^T dx2 = 0 stays in any span; K^T dx1 = dx2 escapes span{dx1}
        assert invariance_check(k, [KForm.d_coord(C2, 1)], zt).passed
        assert not invariance_check(k, [KForm.d_coord(C2, 0)], zt).passed

