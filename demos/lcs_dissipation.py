#!/usr/bin/env python3
"""Locally conformal symplectic structures and their chain identities.

The conformal factor lives in an exact exponential atom, so validation,
the induced Jacobi pair and every bracket identity certify symbolically.
"""

import haantjes.symexpr as sx
from haantjes import (
    HaantjesBasis,
    Operator11,
    ZeroTester,
    check_lcsh,
    eta_KE_check,
    hamiltonian_vf,
    induced_jacobi_from_lcs,
    jacobi_bracket,
    standard_lcs_pair,
    theorem9_check,
    validate_lcs,
)

zt = ZeroTester(seed=5)

chart = sx.lcs_local(2)
q1, q2, p1 = chart.coord("q1"), chart.coord("q2"), chart.coord("p1")
omega, eta = standard_lcs_pair(chart, q1)      # Lee potential l = q1
print("Omega =", omega)
print("eta   =", eta)

L = validate_lcs(omega, eta, zt)
print("validated:", L.validity.summary())
print("E = sharp(eta) =", L.e_field)

J = induced_jacobi_from_lcs(L, zt)
print("induced Lambda =", J.lam)

H = q1 + q2
XH = hamiltonian_vf(H, L.jacobi)
print("\nH =", H, "  X_H =", XH)
print("Hdot = H eta(X_H):", (XH.apply_to(H)))

K = Operator11.diagonal(chart, [q1, q2, q1, q2])
print("\ncompatible operator K = diag(q1, q2, q1, q2)")
print("Omega-symmetry:", check_lcsh(K, L, zt).status)
print("eta(KE) = 0:   ", eta_KE_check(K, L, zt).status)

rep = theorem9_check(H, HaantjesBasis([Operator11.identity(chart), K], names=["I", "K"]), L, zt)
print("chain + bracket identities:", rep.summary())
print("potentials:", [str(x) for x in rep.data["potentials"]])
h1, h2 = rep.data["potentials"]
print("{H1,H2} =", jacobi_bracket(h1, h2, L.jacobi), " (equals H1 E H2 - H2 E H1)")

print("\n=== a broken operator is rejected before any conclusion ===")
chart2 = sx.lcs_local(2)
om2, eta2 = standard_lcs_pair(chart2, chart2.coord(0) + chart2.coord(2))
L2 = validate_lcs(om2, eta2, zt)
bad = Operator11(chart2, [[chart2.one() if (i, j) == (0, 0) else chart2.zero()
                           for j in range(4)] for i in range(4)])
print("eta(KE) for the broken operator:", eta_KE_check(bad, L2, zt).data["eta(KE)"])
rep2 = theorem9_check(chart2.coord(0), HaantjesBasis([bad], names=["Kbad"]), L2, zt)
print("theorem check:", rep2.status, "-", [lab for lab, _ in rep2.details if "eta(KE)" in str(lab)])
