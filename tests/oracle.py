"""Exact oracles that share no code with the kernel they check.

`to_sympy` reads an Expr's canonical terms into sympy, and `value` evaluates
them at a rational point; neither calls the kernel.  An Expr's ``terms`` are
``((monomial, coefficient), ...)``, a monomial ``((atom, exponent), ...)``,
and an atom one of (see ``haantjes.symexpr``):

    (0, i)                      the i-th chart coordinate
    (1, name)                   a parameter
    (2, name, deps, parts)      a partial of an abstract function of deps
    (3, key, terms)             exp(terms)
    (4, key, terms)             terms, raised to the (negative) exponent

`torsions_match` checks the kernel's Nijenhuis and Haantjes frame tables of
an operator K at rational points.  sympy differentiates K's entries, and
tau and H are computed in Fractions from their definitions (Haantjes,
Indag. Math. 17, 1955), with K^r_c the r-th component of K e_c:

    tau(e_i, e_j)^r = sum_c K^c_i d_c K^r_j - K^c_j d_c K^r_i
                            - K^r_c (d_i K^c_j - d_j K^c_i),
    H(X, Y) = K^2 tau(X, Y) + tau(KX, KY) - K (tau(X, KY) + tau(KX, Y)),

with tau extended bilinearly.  Equality is exact.

`defined_torsions` is that computation, from an operator's 1-jet at a point
(`one_jet`, `jet_at`).  `jet_mul` and `jet_add` give the 1-jets of products
and sums by the product rule, so a test can also check an identity that the
kernel never builds: if H_K = 0, then H_{p(K)} = 0 for every polynomial
p(K) = sum_j a_j K^j whose coefficients a_j are functions (O. I.
Bogoyavlenskij, J. Math. Phys. 45, 2004; P. Tempesta and G. Tondo, Ann.
Mat. Pura Appl. 201, 2022), the rule by which an algebra check lets the
ring member K*K read the torsion of a Haantjes generator K.
"""

from fractions import Fraction

import sympy

from haantjes.torsion import haantjes_torsion, nijenhuis_torsion

COORD, PARAM, FN, EXP, INV = range(5)


def to_sympy(e):
    """e in sympy, with one Symbol per chart coordinate, named after it."""
    return _sympy_terms(e.terms, [sympy.Symbol(c) for c in e.chart.coords])


def _sympy_terms(t, xs):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(_sympy_atom(a, xs) ** k for a, k in m)) for m, c in t))


def _sympy_atom(a, xs):
    tag = a[0]
    if tag == COORD:
        return xs[a[1]]
    if tag == PARAM:
        return sympy.Symbol(a[1])
    if tag == FN:
        _, name, deps, parts = a
        f = sympy.Function(name)(*(xs[d] for d in deps))
        return sympy.diff(f, *(xs[p] for p in parts)) if parts else f
    if tag == EXP:
        return sympy.exp(_sympy_terms(a[2], xs))
    return _sympy_terms(a[2], xs)


def value(t, pt, memo=None):
    """The exact value of the terms t of a rational expression at pt, a
    Fraction per coordinate; ZeroDivisionError at a pole.  memo, a dict
    kept across calls at the same pt, values each inverse-power base once."""
    memo = {} if memo is None else memo
    total = Fraction(0)
    for m, v in t:
        for a, k in m:
            if a[0] == COORD:
                x = pt[a[1]]
            elif a[0] == INV:
                if (x := memo.get(a)) is None:
                    x = memo[a] = value(a[2], pt, memo)
            else:
                raise ValueError(f"not a rational expression: atom {a[:2]}")
            v *= x if k == 1 else x**k
        total += v
    return total


def rational_points(chart, rng, count):
    """count seeded points, a Fraction per coordinate."""
    return [tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in chart.coords)
            for _ in range(count)]


def torsions_match(k, points):
    """Whether the kernel's Nijenhuis and Haantjes tables of k equal the
    definitions' values at each point."""
    xs = [sympy.Symbol(c) for c in k.chart.coords]
    jet = one_jet([[to_sympy(e) for e in col] for col in zip(*k.matrix)], xs)
    tau_k, h_k = nijenhuis_torsion(k), haantjes_torsion(k)
    for pt in points:
        tau, h = defined_torsions(*jet_at(jet, xs, pt))
        for (i, j), hv in h.items():
            for r, v in enumerate(hv):
                if (value(tau_k[i, j][r].terms, pt) != tau[i][j][r]
                        or value(h_k[i, j][r].terms, pt) != v):
                    return False
    return True


def one_jet(cols, xs):
    """[cols, d_x cols for each coordinate x in xs]: an operator's frame
    columns K e_c, sympy expressions in the Symbols xs, and their partials."""
    return [cols] + [[[sympy.diff(e, x) for e in col] for col in cols] for x in xs]


def jet_at(jet, xs, pt):
    """The 1-jet (kc, dkc) of `one_jet` at pt, in Fractions: kc[c] = K e_c,
    so K v = _lin(v, kc), and dkc[m][c] = d_m (K e_c)."""
    at = {x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(xs, pt)}
    kc, *dkc = [[[Fraction(e.xreplace(at)) for e in col] for col in m] for m in jet]
    return kc, dkc


def jet_mul(a, b):
    """The 1-jet of the operator product AB from the 1-jets a of A and b of
    B at one point (see `jet_at`), by the product rule."""
    (a0, da), (b0, db) = a, b
    return ([_lin(bc, a0) for bc in b0],
            [[[u + w for u, w in zip(_lin(bc, dam), _lin(dbc, a0))] for bc, dbc in zip(b0, dbm)]
             for dam, dbm in zip(da, db)])


def jet_add(a, b):
    """The 1-jet of A + B from the 1-jets a of A and b of B at one point."""
    def add(u, v):
        return [[x + y for x, y in zip(p, q)] for p, q in zip(u, v)]

    (a0, da), (b0, db) = a, b
    return add(a0, b0), [add(p, q) for p, q in zip(da, db)]


def defined_torsions(kc, dkc):
    """(tau, h) of the operator with 1-jet (kc, dkc) at a point (see
    `jet_at`), in Fractions, from the definitions above: tau[i][j][r] for
    every i, j, and h[i, j][r] for i < j."""
    rn = range(len(kc))
    # tau[i][j][r], by the coordinate formula above
    tau = [[[u - w - z for u, w, z in zip(
                _lin(kc[i], [d[j] for d in dkc]), _lin(kc[j], [d[i] for d in dkc]),
                _lin([a - b for a, b in zip(dkc[i][j], dkc[j][i])], kc))]
            for j in rn] for i in rn]
    h = {}
    for i in rn:
        for j in range(i + 1, len(kc)):
            # tau(K e_i, K e_j), and tau(e_i, K e_j) + tau(K e_i, e_j)
            t_kk = _lin(kc[i], [_lin(kc[j], tau[a]) for a in rn])
            mixed = [u + w for u, w in zip(_lin(kc[j], tau[i]),
                                           _lin(kc[i], [tau[a][j] for a in rn]))]
            h[i, j] = [u + w - z for u, w, z in zip(_lin(_lin(tau[i][j], kc), kc), t_kk,
                                                    _lin(mixed, kc))]
    return tau, h


def _lin(weights, vectors):
    """sum_a weights[a] vectors[a]."""
    out = [0] * len(vectors[0])
    for w, v in zip(weights, vectors):
        if w:
            out = [o + w * x for o, x in zip(out, v)]
    return out
