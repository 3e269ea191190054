#!/usr/bin/env python3
"""The dissipative system H = p - z on the contact 3-chart, end to end.

Walks through the whole toolchain on one example: validate the contact
form, read off the Reeb field and the Hamiltonian dynamics, build the
induced Jacobi pair, then show that the rank-2 extended operator basis
generates a chain whose potentials are independent dissipated quantities
in involution.
"""

import haantjes.symexpr as sx
from haantjes import (
    ExtendedBasis,
    ExtendedOperator,
    KForm,
    Operator11,
    VectorField,
    ZeroTester,
    check_ejh,
    check_extended_algebra,
    ext_identity,
    hamiltonian_vf,
    induced_jacobi_from_contact,
    is_dissipated,
    jacobi_bracket,
    poissonize,
    standard_contact_form,
    thm_main_check,
    validate_contact,
    verify_ext_chain,
)

zt = ZeroTester(seed=1)

chart = sx.darboux_contact(1)
q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
H = p - z

print("chart:", chart)
theta = standard_contact_form(chart)
print("contact form  theta =", theta)

cs = validate_contact(theta, zt)
print("validated:", cs.validity.summary())
print("Reeb field    R =", cs.reeb)

XH = hamiltonian_vf(H, cs.jacobi)
print("\nHamiltonian   H =", H)
print("dynamics    X_H =", XH)
print("dissipation rate  RH =", cs.reeb.apply_to(H))
print("H dissipated? ", is_dissipated(H, H, cs, zt).summary())
print("p dissipated? ", is_dissipated(p, H, cs, zt).summary())
print("q dissipated? ", is_dissipated(q, H, cs, zt).summary())

J = induced_jacobi_from_contact(cs, zt)
print("\ninduced Jacobi pair:")
print("  Lambda =", J.lam)
print("  E      =", J.e_field)
print("  {q,p}  =", jacobi_bracket(q, p, J))

# the rank-2 extended basis: the extended identity and (diag(1,1,0), p d_p, 0, 0)
EK1 = ext_identity(chart)
EK2 = ExtendedOperator(
    Operator11.diagonal(chart, [chart.one(), chart.one(), chart.zero()]),
    VectorField(chart, [chart.zero(), p, chart.zero()]),
    KForm.zero(chart, 1), chart.zero(), name="EK2")
basis = ExtendedBasis([EK1, EK2], names=["EK1", "EK2"])

print("\nextended algebra:", check_extended_algebra(basis, zt).summary())
for ek in basis.operators:
    print(f"EJH compatibility of {ek.name}:", check_ejh(ek, J, zt).summary())

chain = verify_ext_chain(H, basis, zt)
print("\nextended chain:", chain.summary())
print("potentials:", [str(x) for x in chain.data["potentials"]],
      " (independent: rank", chain.data["rank"], ")")

thm = thm_main_check(H, basis, J, zt)
print("dissipation-involution theorem:", thm.summary())
h1, h2 = chain.data["potentials"]
print("  {H1,H2} =", jacobi_bracket(h1, h2, J))

p_tilde, rep = poissonize(J, zt, test_pairs=[(q, p), (p, z)])
print("\nPoissonization on", p_tilde.chart, ":", rep.summary())
print("  P~ =", p_tilde)
