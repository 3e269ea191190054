"""Jacobi structures: brackets, Hamiltonian fields, compatibility,
particular integrals, Poissonization.

Compatibility K L = L K^T goes through `geometry.compat_residuals` with
A = K^T.  `lambda_hat` builds the bivector Lambda^ = Lambda + d_t ^ E on
M x R once per run: Poissonization scales it by e^{-t}, and the EJH operator
route of `extended` tests lifted extended operators against it.  The
chain-bracket identity {H_a,H_b} = H_a E H_b - H_b E H_a is stated once here
and shared with the contact and LCS theorems.

Sign conventions, fixed once and calibrated by the test suite:

* the Jacobi bracket is {f,g} = L(df,dg) + f Eg - g Ef with {q,p} = +1 on
  the Darboux contact chart;
* the Hamiltonian field is forced by {g,f} = X_f g + g Ef, which pins the
  musical map to  (sharp a)^i = sum_j L^ij a_j  (argument in the second
  slot).  Contact and LCS structures carry their induced pair as
  ``s.jacobi``, so their Hamiltonian fields and brackets are these, by
  construction.  The EJH compatibility of `extended` is
  K^ Lambda^ = Lambda^ K^^T, which does not depend on the slot its sharp map
  contracts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

from .checks import CheckReport, once
from .geometry import (
    KVector,
    Operator11,
    VectorField,
    compat_residuals,
    d_scalar,
    schouten_bracket,
    wedge_v,
)
from .symexpr import (
    Chart,
    Expr,
    ZeroTester,
    exp as exp_,
)
from .torsion import HaantjesBasis, verify_chain

__all__ = [
    "JacobiStructure",
    "ParticularIntegralWitness",
    "check_jh_compatibility",
    "hamiltonian_vf",
    "jacobi_bracket",
    "lambda_hat",
    "particular_integral_check",
    "poissonize",
    "proposition_involutivity_check",
    "validate_jacobi",
]


@dataclass
class JacobiStructure:
    chart: Chart
    lam: KVector            # bivector
    e_field: VectorField
    validity: Optional[CheckReport] = None

    @property
    def validated(self) -> bool:
        return self.validity is not None and self.validity.passed


def validate_jacobi(lam: KVector, e_field: VectorField, zt: ZeroTester = ZeroTester()) -> JacobiStructure:
    """Certify [L,L] = 2 E ^ L and [L,E] = 0."""
    if lam.degree != 2:
        raise ValueError("lambda must be a bivector")
    if lam.chart != e_field.chart:
        raise ValueError("lambda and E on different charts")
    rep = CheckReport("jacobi-structure")
    r1 = schouten_bracket(lam, lam) - wedge_v(KVector.from_vector(e_field), lam).scale(2)
    for idx, e in r1.items():
        rep.require_zero(f"[L,L]-2E^L [{idx}]", zt(e))
    r2 = schouten_bracket(lam, KVector.from_vector(e_field))
    for idx, e in r2.items():
        rep.require_zero(f"[L,E] [{idx}]", zt(e))
    return JacobiStructure(lam.chart, lam, e_field, rep)


def jacobi_bracket(f: Expr, g: Expr, j: JacobiStructure) -> Expr:
    return j.lam.pair(d_scalar(f), d_scalar(g)) + f * j.e_field.apply_to(g) - g * j.e_field.apply_to(f)


def hamiltonian_vf(f: Expr, j: JacobiStructure) -> VectorField:
    """X_f = sharp(df) - f E, the unique field with {g,f} = X_f g + g Ef."""
    return j.lam.sharp(d_scalar(f)) - j.e_field.scale(f)


def check_jh_compatibility(k: Operator11, j: JacobiStructure, zt: ZeroTester = ZeroTester()) -> CheckReport:
    """K L = L K^T componentwise.  K L - L K^T is symmetric, since L is
    antisymmetric, so only the entries i <= j are tested."""
    rep = CheckReport("jh-compatibility")
    chart = j.chart
    upper = combinations_with_replacement(range(chart.dim), 2)
    for (i, jj), resid in compat_residuals(chart, list(zip(*k.matrix)), j.lam.full_matrix(), upper):
        rep.require_zero(f"(KL - LK^T)[{i}][{jj}]", zt(resid))
    return rep


def _require_chain_brackets(rep: CheckReport, pots: Sequence[Expr], j: JacobiStructure,
                            zt: ZeroTester) -> None:
    """{H_a,H_b} = H_a E H_b - H_b E H_a for every pair a < b of potentials."""
    e = j.e_field
    for a, b in combinations(range(len(pots)), 2):
        ha, hb = pots[a], pots[b]
        resid = jacobi_bracket(ha, hb, j) - (ha * e.apply_to(hb) - hb * e.apply_to(ha))
        rep.require_zero(f"{{H{a+1},H{b+1}}} identity", zt(resid))


def proposition_involutivity_check(
    h: Expr,
    basis: HaantjesBasis,
    j: JacobiStructure,
    zt: ZeroTester = ZeroTester(),
) -> CheckReport:
    """On a Jacobi-Haantjes chain: {H_i,H_j} = H_i E H_j - H_j E H_i for all
    potential pairs, and the evolution consequence dH_i/dt = -H E H_i."""
    rep = CheckReport("jh-involutivity")
    pre = CheckReport("preconditions")
    chain = once(verify_chain, h, basis, zt)
    pre.merge(replace(chain, name="chain verified"))
    for nm, k in zip(basis.names, basis.operators):
        pre.merge(replace(check_jh_compatibility(k, j, zt=zt), name=f"{nm} JH-compatible"))
    rep.merge(pre)
    pots = chain.data["potentials"]
    if not chain.passed or any(p is None for p in pots):
        return rep.reject("chain with explicit potentials required")
    _require_chain_brackets(rep, pots, j, zt)
    e = j.e_field
    xh = hamiltonian_vf(h, j)
    for a, ha in enumerate(pots):
        resid = jacobi_bracket(ha, h, j) - (ha * e.apply_to(h) - h * e.apply_to(ha))
        rep.require_zero(f"{{H{a+1},H}} identity", zt(resid))
        evol = xh.apply_to(ha) + h * e.apply_to(ha)
        rep.require_zero(f"dH{a+1}/dt = -H E H{a+1}", zt(evol))
    rep.data["potentials"] = pots
    return rep


# ---------------------------------------------------------------------------
# Particular integrals


@dataclass
class ParticularIntegralWitness:
    """How to certify {f_i, H} = sum_j a^i_j f_j.

    ``coefficients`` holds the a^i_j matrix.  ``pair_coefficients``
    optionally certifies particular involution {f_i, f_j} = sum_k a^{ij}_k f_k.
    """

    coefficients: Sequence[Sequence[Expr]]
    pair_coefficients: Optional[dict] = None


def particular_integral_check(
    f_list: Sequence[Expr],
    h: Expr,
    j: JacobiStructure,
    witness: ParticularIntegralWitness,
    zt: ZeroTester = ZeroTester(),
) -> CheckReport:
    rep = CheckReport("particular-integrals")
    for i, fi in enumerate(f_list):
        resid = jacobi_bracket(fi, h, j)
        for jj, fj in enumerate(f_list):
            resid = resid - witness.coefficients[i][jj] * fj
        rep.require_zero(f"{{f{i+1},H}} - sum a f", zt(resid))
    if witness.pair_coefficients is not None:
        for (a, b), coeffs in witness.pair_coefficients.items():
            resid = jacobi_bracket(f_list[a], f_list[b], j)
            for jj, fj in enumerate(f_list):
                resid = resid - coeffs[jj] * fj
            rep.require_zero(f"{{f{a+1},f{b+1}}} - sum a f", zt(resid))
    # conservation vs dissipation bookkeeping: a == 0 rows are constants
    # of motion in the bracket sense, yet may still be dissipated.
    xh = hamiltonian_vf(h, j)
    for i, fi in enumerate(f_list):
        if all(c.is_zero_expr() for c in witness.coefficients[i]):
            rate = xh.apply_to(fi)
            rep.data.setdefault("evolution_rates", {})[f"f{i+1}"] = str(rate)
            if not zt(rate).accepts_zero:
                rep.notes.append(
                    f"f{i+1}: bracket-involution holds but X_H f{i+1} != 0 (dissipated)"
                )
    return rep


# ---------------------------------------------------------------------------
# Poissonization


def lambda_hat(j: JacobiStructure) -> KVector:
    """The bivector Lambda^ = Lambda + d_t ^ E on j.chart.extended(), so
    Lambda^(a, t) = -E^a.  It is independent of t, it is e^t times the
    Poissonized P~, and its first-slot sharp is the (Lambda, E)-sharp map of
    the extended theory.  Its callers take it through the run memo, once
    per run for each pair, and do not change it."""
    big = j.chart.extended()
    it = big.dim - 1
    comps = {ab: v.on_chart(big) for ab, v in j.lam.components.items()}
    for a, ea in enumerate(j.e_field.components):
        comps[(a, it)] = -ea.on_chart(big)
    return KVector(big, 2, comps)


def poissonize(j: JacobiStructure, zt: ZeroTester = ZeroTester(), test_pairs: Sequence = ()) -> tuple:
    """P~ = e^{ -t }(L + dt ^ E) = e^{ -t } Lambda^ on the chart extended by t.

    Returns (p_tilde, report); the report certifies [P~,P~] = 0 and, for
    each supplied (f, g) pair, the bracket restriction identity with the
    liftings f~ = e^t f.
    """
    lam_hat = once(lambda_hat, j)
    big = lam_hat.chart
    it = big.dim - 1
    t = big.coord(it)
    p_tilde = lam_hat.scale(exp_(-t))
    rep = CheckReport("poissonization")
    sn = schouten_bracket(p_tilde, p_tilde)
    for idx, e in sn.items():
        rep.require_zero(f"[P~,P~] [{idx}]", zt(e))
    et = exp_(t)
    for f, g in test_pairs:
        fl = f.on_chart(big) * et
        gl = g.on_chart(big) * et
        pb = p_tilde.pair(d_scalar(fl), d_scalar(gl))
        restricted = (et * pb).subst({it: big.zero()})
        resid = restricted - jacobi_bracket(f, g, j).on_chart(big)
        rep.require_zero(f"bracket restriction ({f},{g})", zt(resid))
    return p_tilde, rep
