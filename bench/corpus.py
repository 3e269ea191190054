"""Seeded zero-test corpus for the ``zero_test`` workload.

Each item is a pair of expression trees ``(lhs, rhs)`` with the answer fixed
when the item is built: ``True`` when ``lhs - rhs`` vanishes identically.
Trees are nested tuples interpreted twice: by ``to_expr`` through the public
``haantjes`` operations, and by ``to_sympy`` for the independent cross-check.

Eleven kinds, each one a family and a truth value, are interleaved so that
every run of eleven consecutive items holds one of each.  An odd number of
equally weighted kinds keeps the median unit time inside one kind's
distribution instead of on the gap between two kinds.
"""

from __future__ import annotations

import random
from fractions import Fraction

COORDS = ("x", "y", "z")

# (kind name, family, construction answer).  ``exp_rational`` true items hit
# a known defect of the zero tester (distinct exp atoms whose arguments agree
# only after clearing denominators are certified nonzero); they stay in the
# corpus so that the wrong verdicts show in the failure share.
KINDS = (
    ("poly_square.true", "poly", True),
    ("poly_product.true", "poly", True),
    ("poly.false", "poly", False),
    ("cleared.true", "cleared", True),
    ("cleared.false", "cleared", False),
    ("exp_weighted.true", "exp_weighted", True),
    ("exp_weighted.false", "exp_weighted", False),
    ("quotient.true", "quotient", True),
    ("quotient.false", "quotient", False),
    ("exp_rational.true", "exp_rational", True),
    ("exp_rational.false", "exp_rational", False),
)


class _Draw:
    """The two random streams an item is drawn from."""

    def __init__(self, shape: random.Random, coef: random.Random):
        self.shape = shape
        self.coef = coef


def _num(v):
    return ("n", Fraction(v))


def _add(*xs):
    out = xs[0]
    for x in xs[1:]:
        out = ("+", out, x)
    return out


def _mul(*xs):
    out = xs[0]
    for x in xs[1:]:
        out = ("*", out, x)
    return out


def _sub(a, b):
    return ("-", a, b)


def _div(a, b):
    return ("/", a, b)


def _monomial(draw, degree):
    factors = [_num(draw.coef.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))]
    for _ in range(degree):
        factors.append(("c", draw.shape.choice(COORDS)))
    return _mul(*factors)


def _poly(draw, terms, degree, constant=True):
    """A polynomial of ``terms`` monomials of degrees cycling through
    1..degree, plus a nonzero constant when ``constant`` (so denominators are
    never monomials and never vanish at the origin).  Fixed degrees keep the
    cost of an item nearly independent of the seed."""
    parts = [_monomial(draw, 1 + i % degree) for i in range(terms)]
    if constant:
        parts.append(_num(draw.coef.choice((-3, -2, -1, 1, 2, 3))))
    return _add(*parts)


def _coords_in(tree):
    if tree[0] == "c":
        return {tree[1]}
    return set().union(*(_coords_in(t) for t in tree[1:] if isinstance(t, tuple)))


def _item(draw, kind):
    _, family, truth = kind
    if family == "poly":
        a, b, c = _poly(draw, 3, 2), _poly(draw, 3, 2), _poly(draw, 2, 2)
        if kind[0] == "poly_square.true":
            lhs = _mul(("^", _add(a, b), 2), c)
            rhs = _add(_mul(a, a, c), _mul(_num(2), a, b, c), _mul(b, b, c))
        else:
            lhs = _mul(_add(a, b), _sub(a, b), c)
            rhs = _mul(_sub(_mul(a, a), _mul(b, b)), c)
        if not truth:
            rhs = _add(rhs, _monomial(draw, draw.shape.randint(1, 3)))
        return lhs, rhs
    if family in ("cleared", "exp_weighted"):
        a, c = _poly(draw, 3, 2), _poly(draw, 3, 2)
        b, d = _poly(draw, 2, 2), _poly(draw, 2, 2)
        num = _add(_mul(a, d), _mul(c, b))
        if not truth:
            num = _add(num, _num(1))
        lhs = _add(_div(a, b), _div(c, d))
        rhs = _div(num, _mul(b, d))
        if family == "exp_weighted":
            w = ("exp", _poly(draw, 2, 2, constant=False))
            lhs, rhs = _mul(w, lhs), _mul(w, rhs)
        return lhs, rhs
    if family == "quotient":
        f, g = _poly(draw, 3, 3), _poly(draw, 2, 2)
        var = draw.shape.choice(sorted(_coords_in(g)))
        fx, gx = ("d", f, var), ("d", g, var)
        lhs = ("d", _div(f, g), var)
        cross = _mul(f, gx)
        top = _sub(_mul(fx, g), cross) if truth else _add(_mul(fx, g), cross)
        return lhs, _div(top, ("^", g, 2))
    if family == "exp_rational":
        a, c = _poly(draw, 2, 2), _poly(draw, 2, 2)
        b, d = _poly(draw, 2, 1), _poly(draw, 2, 1)
        num = _add(_mul(a, d), _mul(c, b))
        if not truth:
            num = _add(num, _mul(b, d))
        weight = _poly(draw, 2, 1)
        lhs = _mul(weight, ("exp", _add(_div(a, b), _div(c, d))))
        rhs = _mul(weight, ("exp", _div(num, _mul(b, d))))
        return lhs, rhs
    raise ValueError(family)


def build(seed: int, per_kind: int) -> list:
    """Return ``per_kind * len(KINDS)`` items ``(kind, lhs, rhs, truth)``,
    interleaved by kind.

    Which coordinates each monomial uses comes from a fixed generator and
    the coefficients come from ``seed``: the seed changes the inputs while
    the cost of a run, which depends mostly on the shapes, stays steady."""
    draw = _Draw(shape=random.Random(0), coef=random.Random(seed))
    return [
        (kind[0], *_item(draw, kind), kind[2])
        for _ in range(per_kind)
        for kind in KINDS
    ]


def to_expr(tree, chart):
    """Interpret a tree through the public ``haantjes`` expression API."""
    from haantjes import exp

    tag = tree[0]
    if tag == "n":
        return chart.const(tree[1])
    if tag == "c":
        return chart.coord(tree[1])
    if tag == "exp":
        return exp(to_expr(tree[1], chart))
    if tag == "d":
        return to_expr(tree[1], chart).diff(tree[2])
    if tag == "^":
        return to_expr(tree[1], chart) ** tree[2]
    a, b = to_expr(tree[1], chart), to_expr(tree[2], chart)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    return a / b


def to_sympy(tree, sp, symbols):
    """Interpret a tree with sympy; shares no code with ``haantjes``."""
    tag = tree[0]
    if tag == "n":
        return sp.Rational(tree[1].numerator, tree[1].denominator)
    if tag == "c":
        return symbols[tree[1]]
    if tag == "exp":
        return sp.exp(to_sympy(tree[1], sp, symbols))
    if tag == "d":
        return sp.diff(to_sympy(tree[1], sp, symbols), symbols[tree[2]])
    if tag == "^":
        return to_sympy(tree[1], sp, symbols) ** tree[2]
    a, b = to_sympy(tree[1], sp, symbols), to_sympy(tree[2], sp, symbols)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    return a / b


def sympy_disagreements(items, seed: int, per_kind: int) -> list:
    """Check the construction answers of ``per_kind`` items of each kind,
    drawn with ``seed``, with ``sympy.simplify``; return the kinds where
    sympy disagrees.  Raises ImportError when sympy is not installed."""
    import sympy

    symbols = {c: sympy.Symbol(c) for c in COORDS}
    by_kind: dict = {}
    for item in items:
        by_kind.setdefault(item[0], []).append(item)
    rng = random.Random(seed)
    bad = []
    for kind, group in by_kind.items():
        for _, lhs, rhs, truth in rng.sample(group, min(per_kind, len(group))):
            residual = sympy.simplify(to_sympy(lhs, sympy, symbols)
                                      - to_sympy(rhs, sympy, symbols))
            if (residual == 0) != truth:
                bad.append(kind)
    return bad
