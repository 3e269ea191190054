import random

import pytest

import haantjes.symexpr as sx
from haantjes.geometry import KForm, KVector, Operator11, VectorField
from haantjes.symexpr import ZeroTester


@pytest.fixture
def zt():
    return ZeroTester(seed=1234)


@pytest.fixture
def contact1():
    return sx.darboux_contact(1)


@pytest.fixture
def contact2():
    return sx.darboux_contact(2)


def declared(model, name):
    """The value of the declaration `name` of a parsed model."""
    return next(d for d in model.declarations if d.name == name).payload["value"]


def rand_poly(chart, rng, deg=2, terms=3):
    """Small random polynomial in the chart coordinates."""
    coords = [chart.coord(i) for i in range(chart.dim)]
    e = chart.const(rng.randint(-3, 3))
    for _ in range(terms):
        t = chart.const(rng.randint(-2, 2))
        for _ in range(rng.randint(1, deg)):
            t = t * coords[rng.randrange(chart.dim)]
        e = e + t
    return e


def rand_rational_matrix(chart, rng, n):
    """n x n matrix of small random polynomials, about a quarter of them
    divided by a coordinate plus a positive integer."""
    def entry():
        e = rand_poly(chart, rng, 1, 1)
        if rng.random() < 0.25:
            e = e / (chart.coord(rng.randrange(chart.dim)) + rng.randint(1, 3))
        return e
    return [[entry() for _ in range(n)] for _ in range(n)]


def rand_vector(chart, rng, deg=2):
    return VectorField(chart, [rand_poly(chart, rng, deg) for _ in range(chart.dim)])


def rand_operator(chart, rng, deg=1):
    return Operator11(chart, [[rand_poly(chart, rng, deg) for _ in range(chart.dim)]
                              for _ in range(chart.dim)])


def rand_kform(chart, rng, degree, deg=2):
    from itertools import combinations
    comps = {}
    for idx in combinations(range(chart.dim), degree):
        comps[idx] = rand_poly(chart, rng, deg)
    return KForm(chart, degree, comps)


def rand_kvector(chart, rng, degree, deg=2):
    from itertools import combinations
    comps = {}
    for idx in combinations(range(chart.dim), degree):
        comps[idx] = rand_poly(chart, rng, deg)
    return KVector(chart, degree, comps)


@pytest.fixture
def rng():
    return random.Random(20250808)


class _SelfOnly(tuple):
    """A tuple equal only to itself, hashed by identity."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other


def self_only_matrix(k):
    """k, with a matrix equal to no other: an algebra check then computes
    one torsion per label, the unshared reference run."""
    k.matrix = _SelfOnly(k.matrix)
    return k


def commuting_pair(chart):
    """A non-Haantjes operator A and A + I on a 3-dimensional chart: they
    commute, and A(A + I) is the one ring product that repeats."""
    x, y, z = (chart.coord(i) for i in range(3))
    a = Operator11(chart, [[0, z, 0], [0, 0, x], [y, 0, 0]])
    return a, a + Operator11.identity(chart)
