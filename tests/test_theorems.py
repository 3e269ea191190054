"""Theorems take their premises as reports: a premise's status, certainty
and evidence reach the theorem's verdict through `CheckReport.merge`."""

from itertools import combinations_with_replacement

import pytest

import haantjes.contact as contact
import haantjes.extended as extended
import haantjes.jacobi as jacobi
import haantjes.lcs as lcs
import haantjes.symexpr as sx
from haantjes.checks import CheckReport
from haantjes.geometry import KForm, KVector, Operator11, VectorField, compat_residuals, op_compose
from haantjes.symexpr import ZeroCertainty, ZeroTester
from haantjes.torsion import HaantjesBasis

SAMPLED = ZeroCertainty("probably_zero")


def _sampled_pass(*args, **kwargs) -> CheckReport:
    """A passing premise decided by sampling alone."""
    return CheckReport("sampled premise").require_zero("sampled residual", SAMPLED)


def _theorem9(zt):
    chart = sx.lcs_local(1)
    q = chart.coord("q")
    l = lcs.validate_lcs(*lcs.standard_lcs_pair(chart, q), zt)
    return lcs.theorem9_check(q, HaantjesBasis([Operator11.diagonal(chart, [q, q])]), l, zt)


def _thm_main(zt):
    chart = sx.darboux_contact(1)
    one, zero, p = chart.one(), chart.zero(), chart.coord("p")
    j = contact.induced_jacobi_from_contact(
        contact.validate_contact(contact.standard_contact_form(chart), zt), zt)
    ek2 = extended.ExtendedOperator(Operator11.diagonal(chart, [one, one, zero]),
                                    VectorField(chart, [zero, p, zero]), KForm.zero(chart, 1), zero)
    basis = extended.ExtendedBasis([extended.ext_identity(chart), ek2], names=["EK1", "EK2"])
    return extended.thm_main_check(p - chart.coord("z"), basis, j, zt)


def _second_kind(zt):
    """A second-kind operator on the Darboux contact 5-chart, its contact
    structure and a chain generator of momentum degree zero."""
    chart = sx.darboux_contact(2)
    k = contact.special_structure_operator(chart, [[chart.one(), chart.zero()], [chart.zero(), chart.zero()]],
                                           kzz=chart.one())
    c = contact.validate_contact(contact.standard_contact_form(chart), zt)
    q1, q2 = chart.coord("q1"), chart.coord("q2")
    return k, c, q1 * q1 + q2


def _theorem6(zt):
    k, c, h = _second_kind(zt)
    return contact.theorem6_check(h, HaantjesBasis([k], names=["K1"]), c, zt)


def _techain(zt):
    k, c, h = _second_kind(zt)
    return contact.techain_check(h, HaantjesBasis([k], names=["K1"]), c, "second", zt)


def _involutivity(zt):
    chart = sx.darboux_symplectic(2)
    q1, q2 = chart.coord(0), chart.coord(1)
    lam = KVector(chart, 2, {(0, 2): chart.one(), (1, 3): chart.one()})
    j = jacobi.validate_jacobi(lam, VectorField.zero(chart), zt)
    basis = HaantjesBasis([Operator11.identity(chart), Operator11.diagonal(chart, [q1, q2, q1, q2])])
    return jacobi.proposition_involutivity_check(q1 + q2, basis, j, zt)


@pytest.mark.parametrize("theorem, module, premise", [
    (_theorem9, lcs, "check_lcsh"),
    (_thm_main, extended, "check_ejh"),
    (_theorem6, contact, "theta_Kf_condition"),
    (_techain, contact, "is_homogeneous_deg0_momenta"),
    (_involutivity, jacobi, "check_jh_compatibility"),
], ids=["theorem9", "thm_main", "theorem6", "techain", "involutivity"])
def test_a_sampled_premise_makes_the_theorem_sampled(monkeypatch, zt, theorem, module, premise):
    rep = theorem(zt)
    assert (rep.status, rep.certainty.tag) == ("pass", "proven_zero")
    monkeypatch.setattr(module, premise, _sampled_pass)
    rep = theorem(zt)
    assert (rep.status, rep.certainty.tag) == ("pass", "probably_zero")


class _Undecided(ZeroTester):
    """A zero tester that leaves the given expressions undecided."""

    def __init__(self, exprs, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "exprs", exprs)

    def __call__(self, e):
        return ZeroCertainty("unknown") if e in self.exprs else super().__call__(e)


def test_theorem6_with_an_undecided_dtheta_symmetry_is_unknown(zt):
    k, c, h = _second_kind(zt)
    chart = c.chart
    q1 = chart.coord("q1")
    # K^{p1}_{p1} = 1 + w with w = (q1^2 - 1)/(q1 - 1) - (q1 + 1), which
    # vanishes but not structurally: the p-rows enter neither the chain nor
    # theta(K X_f), so only the dtheta-symmetry premise reads w
    rows = [list(row) for row in k.matrix]
    rows[2][2] = rows[2][2] + (q1 * q1 - 1) / (q1 - 1) - (q1 + 1)
    k = Operator11(chart, rows)
    basis = HaantjesBasis([k], names=["K1"])
    assert contact.theorem6_check(h, basis, c, zt).passed
    pairs = list(combinations_with_replacement(range(chart.dim), 2))
    resids = {e for op in (k, op_compose(k, k))
              for _, e in compat_residuals(chart, op.matrix, c.d_theta.full_matrix(), pairs)}
    assert resids
    rep = contact.theorem6_check(h, basis, c, _Undecided(resids, seed=zt.seed))
    assert (rep.status, rep.certainty.tag) == ("unknown", "unknown")
    assert ("preconditions: K1 dtheta-symmetric: dtheta-symmetry [0,2]",
            ZeroCertainty("unknown")) in rep.details
