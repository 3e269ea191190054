import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy

import haantjes.symexpr as sx
from haantjes.checks import CheckReport, memo_scope, once
from haantjes.geometry import KForm, Operator11, VectorField, dot
from haantjes.symexpr import (
    Chart,
    ChartMismatch,
    Expr,
    ParseError,
    ZeroTester,
    fn_symbol,
    is_zero,
    param,
    parse_scalar,
    simplify,
)
from haantjes.torsion import _radial_potential

from conftest import rand_poly
from oracle import to_sympy


@pytest.fixture
def chart():
    return sx.darboux_contact(1)


class TestCanonicalisation:
    def test_additive_identity(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        assert (q + 0 * p) == q

    def test_exp_merge(self, chart):
        u = chart.coord("q") * chart.coord("p")
        assert (sx.exp(u) * sx.exp(-u)) == 1

    def test_commutative_folding(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        assert (p * q - q * p).is_zero_expr()

    def test_simplify_idempotent_and_semantic(self, chart):
        rng = random.Random(7)
        for i in range(200):
            e = rand_poly(chart, rng, deg=3, terms=4)
            if i % 3 == 1:
                den = rand_poly(chart, rng, deg=1, terms=2) + chart.coord("q") ** 4 + 1
                e = e * den**-1
            elif i % 3 == 2:
                den = rand_poly(chart, rng, deg=2, terms=2) + chart.coord("p") ** 5
                if den.is_zero_expr():
                    den = den + 1
                e = e * den**-2
            s = simplify(e)
            assert simplify(s) == s
            assert is_zero(e - s).is_proven_zero

    @pytest.mark.parametrize("value", [0.1, 1.5, 2.0, "1/3", Decimal("0.5")], ids=repr)
    def test_only_exact_constants(self, chart, value):
        # a float would store its binary fraction (0.1 as 3602879701896397 /
        # 2**55): every route to a constant takes an int or a Fraction only
        q = chart.coord("q")
        for build in (lambda: sx.rational(chart, value), lambda: chart.const(value),
                      lambda: Operator11(chart, [[value, 0, 0], [0, 1, 0], [0, 0, 1]]),
                      lambda: VectorField(chart, [value, 1, 0]), lambda: q.subst({"q": value}),
                      lambda: q * value):
            with pytest.raises(TypeError):
                build()
        assert sx.rational(chart, Fraction(1, 10)) == chart.const(Fraction(1, 10)) == Fraction(1, 10)
        assert q.subst({"q": Fraction(1, 4)}) == Fraction(1, 4) and q.subst({"q": 3}) == 3

    def test_binomial_identity(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        assert ((q + p) ** 2 - q**2 - 2 * q * p - p**2).is_zero_expr()

    def test_negative_power_normalisation(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        assert ((q + p) ** -1) ** -1 == (q + p)
        assert (2 * q + 2 * p) ** -1 == Fraction(1, 2) * (q + p) ** -1
        # no GCD computation in canonical form: the cancellation is is_zero's job
        assert is_zero((q + p) ** -2 * (q + p) ** 2 - 1).is_proven_zero

    def test_chart_mismatch(self, chart):
        other = sx.darboux_contact(1, "N")
        with pytest.raises(ChartMismatch):
            chart.coord("q") + other.coord("q")
        # an equal chart object is the same chart: identity is only the fast path
        twin = sx.darboux_contact(1)
        assert twin is not chart
        assert (chart.coord("q") + twin.coord("p")).terms == (twin.coord("q") + twin.coord("p")).terms

    def test_immutable(self, chart):
        q = chart.coord("q")
        for name, value in (("terms", ()), ("chart", sx.darboux_contact(1, "N"))):
            with pytest.raises(AttributeError):
                setattr(q, name, value)
            with pytest.raises(AttributeError):
                delattr(q, name)
        assert q.chart is chart and q == chart.coord("q") and not q.is_zero_expr()

    def test_zero_inverse_raises(self, chart):
        with pytest.raises(ZeroDivisionError):
            chart.zero() ** -1

    def test_constant_hashes_as_its_value(self, chart):
        # a constant equals its int or Fraction, so it must hash as one too
        half = chart.const(Fraction(1, 2))
        for expr, value in ((chart.zero(), 0), (chart.one(), 1), (half, Fraction(1, 2))):
            assert expr == value and hash(expr) == hash(value)
            assert value in {expr} and expr in {value}
            assert {value: "number"}[expr] == "number" and {expr: "expr"}[value] == "expr"
        assert len({0, chart.zero(), Fraction(0), chart.one(), 1}) == 2
        calls = []

        def f(x):
            calls.append(x)
            return len(calls)

        with memo_scope():
            assert once(f, 0) == once(f, chart.zero()) == 1
            assert once(f, Fraction(1, 2)) == once(f, half) == 2
            assert once(f, chart.coord("q")) == 3


class TestDiff:
    def test_product(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        assert (p * q).diff("q") == p

    def test_chain_rule(self, chart):
        z = chart.coord("z")
        assert sx.exp(z**2).diff("z") == 2 * z * sx.exp(z**2)

    def test_mixed_partials_structural(self, chart):
        f = fn_symbol(chart, "f", ["q", "p"])
        assert f.diff("q").diff("p") == f.diff("p").diff("q")
        assert f.diff("z").is_zero_expr()

    def test_commutes_on_random_corpus(self, chart):
        rng = random.Random(11)
        for _ in range(30):
            e = rand_poly(chart, rng, deg=3) * sx.exp(rand_poly(chart, rng, deg=1, terms=1))
            for i in range(chart.dim):
                for j in range(chart.dim):
                    d1 = e.diff(i).diff(j)
                    d2 = e.diff(j).diff(i)
                    assert is_zero(d1 - d2).accepts_zero

    def test_linearity(self, chart):
        rng = random.Random(13)
        a, b = param(chart, "a"), param(chart, "b")
        for _ in range(20):
            e1 = rand_poly(chart, rng)
            e2 = rand_poly(chart, rng)
            lhs = (a * e1 + b * e2).diff("q")
            rhs = a * e1.diff("q") + b * e2.diff("q")
            assert lhs == rhs

    def test_quotient(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        r = q / p
        # d(q/p)/dp = -q/p^2
        assert is_zero(r.diff("p") + q * p**-2).is_proven_zero


class TestIsZero:
    def test_proven_zero_polynomial(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        assert is_zero((q + p) ** 2 - q**2 - 2 * q * p - p**2).is_proven_zero

    def test_proven_nonzero_with_witness(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        cert = is_zero(q - p, seed=3)
        assert cert.tag == "proven_nonzero"
        assert cert.witness is not None

    def test_exp_cancellation(self, chart):
        q = chart.coord("q")
        assert is_zero(sx.exp(q) * sx.exp(-q) - 1).is_proven_zero

    def test_ratio_cross_multiplication(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        lhs = (q - p) / (q**2 - p**2)
        rhs = 1 / (q + p)
        assert is_zero(lhs - rhs, seed=5).is_proven_zero

    def test_exp_group_nonzero(self, chart):
        q = chart.coord("q")
        cert = is_zero(sx.exp(q) + q, seed=5)
        assert cert.tag == "proven_nonzero"

    @pytest.mark.parametrize("case", ["equal exp arguments", "one exp group", "exp left in an inverse power"])
    def test_undecided_exp_residual_is_unknown(self, chart, case):
        # P = prod (7q - k), k = -20..20, vanishes at every sample point k/7,
        # but not in floats, where rounding reads it as nonzero.  Nine nested
        # inverse powers of exp(q) are more than clearing removes.  Neither
        # may fail require_zero or pass require_nonzero.
        q = chart.coord("q")
        big_p = 1
        for k in range(-20, 21):
            big_p = big_p * (7 * q - k)
        nested = sx.exp(q) + 1
        for _ in range(8):
            nested = sx.exp(q) + 1 / nested
        a, b = 1 / (q + 1), (q + 2) / ((q + 1) * (q + 2))
        e, note = {
            "equal exp arguments": (big_p * sx.exp(a) - big_p * sx.exp(b), "no nonzero sample found"),
            "one exp group": (big_p * sx.exp(q), "no nonzero sample found"),
            "exp left in an inverse power": (1 / nested - q, "exponential inside an uncleared inverse power"),
        }[case]
        cert = is_zero(e, seed=42)
        assert (cert.tag, cert.witness, cert.rejects_zero, cert.note) == ("unknown", None, False, note), str(cert)
        assert CheckReport("r").require_zero("e", cert).status == "unknown"
        assert CheckReport("r").require_nonzero("e", cert).status == "unknown"

    def test_seeded_determinism(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        c1 = is_zero(q * p - 1, seed=77)
        c2 = is_zero(q * p - 1, seed=77)
        assert c1 == c2

    def test_sampler_seeded_on_demand(self, chart, monkeypatch):
        # the origin, the first sample point, needs no random numbers: a
        # residual it decides makes no random.Random, and one that needs
        # later points draws them from one Random(seed), as before
        made = []

        class Counted(random.Random):
            def __init__(self, seed):
                made.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(sx.random, "Random", Counted)
        q, p, z = (chart.coord(i) for i in range(3))
        for e in (q + 1, q * p - 1, sx.exp(q) * (p + 2), (q + 1) ** -1 + p):
            assert is_zero(e, seed=5).tag == "proven_nonzero", e
        assert made == []
        for e, witness in [
            (q * p, {"q": Fraction(19, 7), "p": Fraction(-4, 7)}),
            (q * p - q * z**2, {"q": Fraction(19, 7), "p": Fraction(-4, 7), "z": Fraction(2, 7)}),
            ((q + 1) ** -1 - 1 + q * p, {"q": Fraction(19, 7), "p": Fraction(-4, 7)}),
            (sx.exp(q) * q * p, {"q": Fraction(19, 7), "p": Fraction(-4, 7)}),
        ]:
            made.clear()
            cert = is_zero(e, seed=5)
            assert (cert.tag, cert.witness) == ("proven_nonzero", witness), e
            assert made == [5], e


class TestDiffAgainstSympy:
    """Expr.diff equals sympy's derivative of the same expression, read into
    sympy by a converter that shares no code with the kernel."""

    @staticmethod
    def _same(a, b):
        return a == b or sympy.cancel(sympy.expand(a - b)) == 0

    def test_random_polynomials(self, chart):
        xs = [sympy.Symbol(c) for c in chart.coords]
        rng = random.Random(17)
        for _ in range(20):
            e = rand_poly(chart, rng, deg=3)
            for i, x in enumerate(xs):
                assert self._same(to_sympy(e.diff(i)), sympy.diff(to_sympy(e), x)), (str(e), i)

    @pytest.mark.parametrize("build", [
        lambda q, p, z, g, h: g * q + g.diff("p") * h,
        lambda q, p, z, g, h: h.diff("z") * g.diff("q") - q * h,
        lambda q, p, z, g, h: sx.exp(q * p + z) * (q + 1) + sx.exp(-q) * g,
        lambda q, p, z, g, h: (q + p**2) ** -2 * z + 1 / (q * p - 1),
        lambda q, p, z, g, h: (2 * q + 2) ** -1 * sx.exp(z / (q + 1)) + h / (g + 1),
    ], ids=["fn-partials", "fn-restricted-deps", "exp", "inverse-powers", "mixed"])
    def test_abstract_exp_and_inverse_atoms(self, chart, build):
        xs = [sympy.Symbol(c) for c in chart.coords]
        e = build(*(chart.coord(i) for i in range(3)), fn_symbol(chart, "g"),
                  fn_symbol(chart, "h", ["q", "z"]))
        for i, x in enumerate(xs):
            assert self._same(to_sympy(e.diff(i)), sympy.diff(to_sympy(e), x)), i
            for j, y in enumerate(xs):
                # second partials, taken in both orders
                want = sympy.diff(to_sympy(e), x, y)
                assert self._same(to_sympy(e.diff(i).diff(j)), want), (i, j)
                assert self._same(to_sympy(e.diff(j).diff(i)), want), (i, j)


def _product_rule(t, i):
    """dt/dx_i by the product rule, one factor and one coordinate at a time:
    one (rest, d factor) pair per factor, summed by one kernel dot, a base's
    partial taken anew at each occurrence.  This is how the kernel took a
    partial before its one-pass gradient, so it is the reference for when a
    partial exceeds the node budget."""
    pairs = []
    for m, c in t:
        for pos, (a, e) in enumerate(m):
            if a[0] == sx._C:
                da = sx._T_ONE if a[1] == i else ()
            elif a[0] == sx._F:
                da = sx._t_atom((sx._F, a[1], a[2], tuple(sorted(a[3] + (i,))))) if i in a[2] else ()
            elif a[0] == sx._P:
                da = ()
            else:
                da = _product_rule(a[2], i)
            if not da:
                continue
            rest = list(m)
            if a[0] == sx._E:
                pass  # d(exp u) = exp(u) du
            elif e == 1:
                del rest[pos]
            else:
                rest[pos] = (a, e - 1)
            pairs.append((((tuple(rest), c * e),), da))
    return sx._t_dot(pairs)


def _budgeted(fn, *args):
    """fn(*args), or BudgetError when it raises one."""
    try:
        return fn(*args)
    except sx.BudgetError:
        return sx.BudgetError


class TestGradient:
    """`_t_grad` takes all requested partials in one pass: each equals
    sympy's derivative (`oracle.to_sympy`, then `sympy.diff`) and, exactly,
    the product rule taken one coordinate at a time, and it raises
    BudgetError exactly when that route does."""

    @staticmethod
    def _exprs(chart):
        st = pytest.importorskip("hypothesis").strategies
        q, p, z = (chart.coord(i) for i in range(3))
        g, h = fn_symbol(chart, "g"), fn_symbol(chart, "h", ["q", "z"])
        leaves = st.sampled_from([q, p, z, param(chart, "a"), g, h, fn_symbol(chart, "g", parts=[1, 2]),
                                  fn_symbol(chart, "h", ["q", "z"], parts=[0]), chart.const(2),
                                  chart.const(Fraction(-1, 3))])

        def grow(kids):
            def inverse(e, k):
                return (e * e + 1) ** -k
            return st.one_of(st.tuples(kids, kids).map(lambda ab: ab[0] + ab[1]),
                             st.tuples(kids, kids).map(lambda ab: ab[0] * ab[1]),
                             kids.map(sx.exp),
                             st.tuples(kids, st.integers(1, 2)).map(lambda ek: inverse(*ek)))

        return st.recursive(leaves, grow, max_leaves=6)

    def test_partials_against_sympy_and_the_product_rule(self, chart):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        xs = [sympy.Symbol(c) for c in chart.coords]

        @hyp.settings(derandomize=True, database=None, max_examples=80, deadline=None)
        @hyp.given(self._exprs(chart), st.permutations(range(3)).flatmap(
            lambda order: st.integers(1, 3).map(lambda k: order[:k])))
        def prop(e, coords):
            seen.update((a[0], bool(a[0] == sx._F and a[3])) for t in _walk_terms(e.terms)
                        for m, _ in t for a, _ in m)
            grad = sx._t_grad(e.terms, coords)
            assert len(grad) == len(coords)
            for i, d in zip(coords, grad):
                assert d == _product_rule(e.terms, i), (str(e), i)
                want = sympy.diff(to_sympy(e), xs[i])
                got = to_sympy(Expr(chart, d))
                assert got == want or sympy.simplify(got - want) == 0, (str(e), i)

        seen = set()
        prop()
        # coordinates, parameters, functions with and without parts, exp and
        # inverse-power atoms
        assert seen == {(sx._C, False), (sx._P, False), (sx._F, False), (sx._F, True), (sx._E, False),
                        (sx._W, False)}

    def test_budget_error_exactly_when_the_product_rule_raises(self, chart):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        raised = []

        @hyp.settings(derandomize=True, database=None, max_examples=150, deadline=None)
        @hyp.given(self._exprs(chart), st.sampled_from([4, 8, 16, 32, 64, 128]))
        def prop(e, budget):
            saved, sx.NODE_BUDGET = sx.NODE_BUDGET, budget
            try:
                want = [_budgeted(_product_rule, e.terms, i) for i in range(3)]
                got = _budgeted(sx._t_grad, e.terms, range(3))
            finally:
                sx.NODE_BUDGET = saved
            if sx.BudgetError in want:
                assert got is sx.BudgetError, str(e)
            else:
                assert got == want, str(e)
            raised.append(got is sx.BudgetError)

        prop()
        assert 10 <= sum(raised) <= len(raised) - 10

class TestParser:
    def test_simple(self, chart):
        assert parse_scalar("p - z", chart) == chart.coord("p") - chart.coord("z")

    def test_fraction_literal(self, chart):
        e = parse_scalar("3/4", chart)
        assert e.as_rational() == Fraction(3, 4)

    def test_power_and_exp(self, chart):
        q = chart.coord("q")
        assert parse_scalar("q^3", chart) == q**3
        assert parse_scalar("(q+1)^-2", chart) == (q + 1) ** -2
        assert parse_scalar("exp(q^2)", chart) == sx.exp(q**2)

    def test_abstract_function_atom(self, chart):
        e = parse_scalar("f(q,p)", chart)
        assert e == fn_symbol(chart, "f", ["q", "p"])

    def test_repeated_argument_rejected(self, chart):
        # argument order is immaterial, so f(q, q) could only be a second
        # symbol beside f(q), and f(q,q) - f(q) would read proven_nonzero
        with pytest.raises(ValueError):
            fn_symbol(chart, "g", deps=["q", "q"])
        with pytest.raises(ParseError) as err:
            parse_scalar("1 + f(q,q)", chart)
        assert "1:5" in str(err.value) and "twice" in str(err.value)

    @pytest.mark.parametrize("text,line,col", [("(q, p)", 1, 1), ("  (q, p)", 1, 3), ("\n [q, 1]", 2, 2)])
    def test_non_scalar_reported_at_its_first_token(self, chart, text, line, col):
        with pytest.raises(ParseError, match="expected a scalar expression") as err:
            parse_scalar(text, chart)
        assert (err.value.line, err.value.col) == (line, col)

    def test_unknown_ident_is_param(self, chart):
        assert parse_scalar("a", chart) == param(chart, "a")

    @pytest.mark.parametrize("text,col", [("_t * q", 1), ("q + _modf(q, p)", 5)])
    def test_verifier_names_refused(self, chart, text, col):
        # names that begin with '_' stay reserved for the verifier's own
        # symbols (the module coefficient _modf of an algebra check is one),
        # so a model may not name a parameter or a function so
        with pytest.raises(ParseError) as err:
            parse_scalar(text, chart)
        assert str(err.value).startswith(f"1:{col}: ") and "'_'" in str(err.value)
        assert parse_scalar("t_ * q", chart) == param(chart, "t_") * chart.coord("q")
        # library code keeps building them
        assert fn_symbol(chart, "_modf").diff("q") == fn_symbol(chart, "_modf", parts=[0])

    def test_error_position(self, chart):
        with pytest.raises(ParseError) as err:
            parse_scalar("q + )", chart)
        assert "1:5" in str(err.value)

    @pytest.mark.parametrize("text,ch,pos", [("q + ²", "²", "1:5"), ("2²*q", "²", "1:2"),
                                             ("q\n\t+ ½", "½", "2:4")])
    def test_digit_that_is_no_integer(self, chart, text, ch, pos):
        # '²'.isdigit() is true, but int() cannot read it: it is an
        # unexpected character where it stands, as '½' is
        with pytest.raises(ParseError) as err:
            parse_scalar(text, chart)
        assert str(err.value) == f"{pos}: unexpected character {ch!r}"

    def test_unicode_letters_and_digits(self, chart):
        # identifiers are a letter or '_' and then letters, digits or '_'
        # (str.isalpha, str.isalnum); integers are decimal digits of any script
        q = chart.coord("q")
        assert parse_scalar("q²", chart) == param(chart, "q²")
        assert parse_scalar("é*q", chart) == q * param(chart, "é")
        assert str(parse_scalar("é*q", chart)) == "q*é"
        assert parse_scalar("٣*q", chart) == 3 * q

    @pytest.mark.parametrize("text", ["(q, p)", "[q]", "d(q) /\\ d(p)", "(q, p) + 1"])
    def test_non_scalar_syntax_rejected(self, chart, text):
        # tuples, lists and wedges belong to the model language, not to scalars
        with pytest.raises(ParseError):
            parse_scalar(text, chart)


class TestLexer:
    """Token positions, against the offsets at which a generated text put
    each token.  A (line, col) is read back through the text's lines, not
    the way the lexer counts them."""

    WORDS = {"q": "q", "p1": "p1", "é": "é", "ζeta_2": "ζeta_2", "q²": "q²", "_x": "_x",
             "exp": "exp", "12": 12, "٣": 3, "0": 0}
    OPS = ["+", "-", "*", "/", "/\\", "^", "(", ")", ",", "[", "]"]
    GAPS = ["", " ", "\t", "\n", "  \n\t", "\r\n", "\n\n "]

    @staticmethod
    def _offset(text, line, col):
        return sum(len(s) + 1 for s in text.split("\n")[: line - 1]) + col - 1

    def _build(self, items):
        """(text, [(offset, piece)]) with each piece after its gap; words
        that would run together get a space."""
        text, placed, prev = "", [], None
        for gap, piece in items:
            if not gap and prev in self.WORDS and piece in self.WORDS:
                gap = " "
            text += gap
            placed.append((len(text), piece))
            text += piece
            prev = piece
        return text, placed

    def _given(self, prop, *extra):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        item = st.tuples(st.sampled_from(self.GAPS), st.sampled_from([*self.WORDS, *self.OPS]))
        return hyp.settings(derandomize=True, database=None, max_examples=80, deadline=None)(
            hyp.given(st.lists(item, max_size=14), *extra)(prop))

    def test_token_positions(self):
        def prop(items):
            text, placed = self._build(items)
            tokens = sx._Lexer(text).tokens
            assert len(tokens) == len(placed) + 1 and tokens[-1][:2] == ("eof", None)
            for (kind, value, line, col), (off, piece) in zip(tokens, placed):
                assert self._offset(text, line, col) == off and text.startswith(piece, off)
                if piece in self.WORDS:
                    want = self.WORDS[piece]
                    assert (kind, value) == ("int" if isinstance(want, int) else "ident", want)
                else:
                    assert kind == value == piece
            line, col = tokens[-1][2:]
            assert self._offset(text, line, col) == len(text)

        self._given(prop)()

    def test_unexpected_character_on_a_later_line(self):
        st = pytest.importorskip("hypothesis").strategies

        def prop(items, bad):
            head, _ = self._build(items)
            # a space keeps '²' or '½' from continuing an identifier
            text = head + "\n" + " " + bad + " q"
            with pytest.raises(ParseError) as err:
                sx._Lexer(text)
            e = err.value
            assert e.message == f"unexpected character {bad!r}" and e.line >= 2
            assert self._offset(text, e.line, e.col) == len(head) + 2

        self._given(prop, st.sampled_from(["$", "²", "½", ".", "@", "Ⅻ", "{", ";"]))()


class TestFuzzSemantics:
    """Differential oracle: random expression trees evaluated through the
    canonical kernel must agree with a direct Fraction evaluator that never
    canonicalises anything."""

    def _gen(self, chart, rng, depth):
        if depth == 0 or rng.random() < 0.3:
            choice = rng.randrange(3)
            if choice == 0:
                i = rng.randrange(chart.dim)
                return chart.coord(i), lambda a, i=i: a[i]
            if choice == 1:
                c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                return chart.const(c), lambda a, c=c: c
            name = rng.choice(["al", "be"])
            return param(chart, name), lambda a, n=name: a[n]
        op = rng.randrange(4)
        e1, f1 = self._gen(chart, rng, depth - 1)
        if op == 0:
            e2, f2 = self._gen(chart, rng, depth - 1)
            return e1 + e2, lambda a: f1(a) + f2(a)
        if op == 1:
            e2, f2 = self._gen(chart, rng, depth - 1)
            return e1 - e2, lambda a: f1(a) - f2(a)
        if op == 2:
            e2, f2 = self._gen(chart, rng, depth - 1)
            return e1 * e2, lambda a: f1(a) * f2(a)
        k = rng.choice([2, 3, -1, -2])
        if k < 0 and e1.is_zero_expr():
            return e1 + 1, lambda a: f1(a) + 1
        return e1**k if k > 0 or not e1.is_zero_expr() else e1, (
            lambda a: f1(a) ** k)

    def test_random_trees_against_direct_evaluation(self, chart):
        from haantjes.symexpr import _eval

        def atom(x):  # the one atom of a coordinate or parameter
            return x.terms[0][0][0][0]

        rng = random.Random(90210)
        checked = 0
        for _ in range(150):
            try:
                e, direct = self._gen(chart, rng, 4)
            except ZeroDivisionError:
                continue
            for _ in range(3):
                vals = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for i in range(chart.dim)}
                vals["al"] = Fraction(rng.randint(-5, 5), 3)
                vals["be"] = Fraction(rng.randint(-5, 5), 2)
                assign = {atom(chart.coord(i)): vals[i] for i in range(chart.dim)}
                assign.update({atom(param(chart, n)): vals[n] for n in ("al", "be")})
                try:
                    want = direct(vals)
                except ZeroDivisionError:
                    continue
                try:
                    got = _eval(e.terms, assign)
                except ZeroDivisionError:
                    continue  # kernel hit a pole the direct path dodged by luck
                assert got == want, (str(e), vals, got, want)
                checked += 1
        assert checked > 200


def _ref_atom_key(a):
    """Reference canonical atom order, written as sort keys: rank, then
    index, name or function data, then the argument terms' key."""
    rank = a[0]
    if rank in (sx._C, sx._P):
        return (rank, a[1])
    if rank == sx._F:
        return (rank, a[1], a[2], a[3])
    return (rank, _ref_terms_key(a[2]))


def _ref_mono_key(m):
    return tuple((_ref_atom_key(a), e) for a, e in m)


def _ref_terms_key(t):
    return tuple((_ref_mono_key(m), (Fraction(c).numerator, Fraction(c).denominator))
                 for m, c in t)


def _walk_terms(t):
    """t and every terms tuple nested in its exp and inverse-power atoms."""
    yield t
    for m, _ in t:
        for a, _e in m:
            if a[0] in (sx._E, sx._W):
                yield from _walk_terms(a[2])


def _coefficients(t):
    for u in _walk_terms(t):
        for _, c in u:
            yield c


def _strictly_increasing(keys):
    return all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


class TestKernelInvariants:
    """Canonical terms compare natively; these guard that the native order is
    the reference key order and that coefficients stay exact."""

    def _corpus(self, chart, rng):
        q, p = chart.coord("q"), chart.coord("p")
        f = fn_symbol(chart, "f", ["q", "z"])
        al = param(chart, "al")
        # exp atoms whose keys differ only in a coefficient, where the order
        # of (numerator, denominator) is not the order of the values
        yield (sx.exp(q / 2) + sx.exp(q / 3) + sx.exp(-q / 3)) * p
        for i in range(60):
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            e = rand_poly(chart, rng, deg=3, terms=3) * (c + al * f)
            e = e + sx.exp(c * rand_poly(chart, rng, deg=1, terms=2)) * rand_poly(chart, rng)
            e = e + sx.exp(Fraction(1, rng.randint(1, 4)) * q) * f.diff("z")
            if i % 2:
                e = e / (rand_poly(chart, rng, deg=2, terms=2) + q**3 + 1)
            if i % 3:
                e = e * (c * p**2 + al + 2) ** -2
            yield e

    def test_terms_sorted_by_reference_key(self, chart):
        rng = random.Random(31)
        seen_exp = seen_inv = 0
        for e in self._corpus(chart, rng):
            for t in _walk_terms(e.terms):
                assert _strictly_increasing([_ref_mono_key(m) for m, _ in t])
                for m, _ in t:
                    assert _strictly_increasing([_ref_atom_key(a) for a, _ in m])
                    seen_exp += any(a[0] == sx._E for a, _ in m)
                    seen_inv += sum(a[0] == sx._W for a, _ in m) > 1
        assert seen_exp and seen_inv

    def test_coefficients_exact(self, chart):
        rng = random.Random(37)
        q, p = chart.coord("q"), chart.coord("p")
        # a recovered potential divides each term by its degree plus one
        results = [sx.rational(chart, Fraction(6, 3)), (q + p) / 3, 6 / (2 * q + 4 * p),
                   _radial_potential(KForm.one_form(chart, [q**2 + 3 * p, 1, q]))]
        for e in self._corpus(chart, rng):
            form = KForm.one_form(chart, [Fraction(rng.randint(1, 6), 2) * rand_poly(chart, rng, 3), q, p])
            results += [e / 7, e ** -1, (Fraction(2, 3) * e + q) ** -2, _radial_potential(form)]
        for e in results:
            for c in _coefficients(e.terms):
                # an int when integral, a Fraction otherwise; never a float
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (e, c)
        assert results[0].terms == (((), 2),)
        for e in (results[0], chart.zero(), q / q):
            assert type(e.as_rational()) is Fraction
        assert (q / q).as_rational() == 1


def _left_fold(pairs):
    """The reference for _t_dot: each product canonicalised, then summed."""
    return sx._t_add(*(sx._t_mul(a, b) for a, b in pairs))


def _inverted(e):
    """e ** -1 before canonicalisation, for a one-term quotient e: its
    inverse-power atom has exponent +1 and must be expanded by the product."""
    (m, c), = e.terms
    return (sx._mono_pow(m, c, -1),)


class TestFusedDot:
    """_t_dot sums the products of its pairs in one accumulator; it must
    equal the sum of the separately canonicalised products."""

    def _pairs(self, chart, rng, n):
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        f = fn_symbol(chart, "f", ["q", "p"])
        pairs = []
        for _ in range(n):
            a, b = rand_poly(chart, rng, 3, 3), rand_poly(chart, rng, 2, 3)
            kind = rng.randrange(4)
            if kind == 1:
                a = a * sx.exp(rand_poly(chart, rng, 1, 2))
                b = b + sx.exp(-q) * f + f.diff("p")
            elif kind == 2:
                den = rand_poly(chart, rng, 2, 2) + q**2 + 1
                a, b = a / den, b / (den * (p + 2))
            pairs.append((a.terms, b.terms))
            if kind == 3:
                pairs.append((_inverted(q * p / (p + z + 2)), b.terms))
        return pairs

    def test_equals_left_fold(self, chart):
        rng = random.Random(41)
        seen_pending = 0
        for n in (0, 1, 2, 3, 5, 8, 8, 8):
            pairs = self._pairs(chart, rng, n)
            seen_pending += any(e > 0 for a, _ in pairs for m, _ in a for at, e in m
                                if at[0] == sx._W)
            assert sx._t_dot(pairs) == _left_fold(pairs)
        assert seen_pending

    def test_pending_product_is_canonical(self, chart):
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        # the expected value is built without an inverse power turning positive
        want = (p + z + 2) * z**2 * q**-1 * p**-1
        assert sx._t_dot([(_inverted(q * p / (p + z + 2)), (z**2).terms)]) == want.terms

    def test_property_equals_left_fold(self, chart):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        atoms = [q, p, z, sx.exp(q - p), sx.exp(p / 2), (p + 1) ** -1, (q - z) ** -2,
                 fn_symbol(chart, "f", ["q"])]

        @st.composite
        def terms(draw):
            e = chart.zero()
            for _ in range(draw(st.integers(0, 3))):
                t = chart.const(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
                for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
                    t = t * a
                e = e + t
            return e.terms

        @hyp.settings(derandomize=True, database=None, max_examples=60, deadline=None)
        @hyp.given(st.lists(st.tuples(terms(), terms()), max_size=4))
        def prop(pairs):
            assert sx._t_dot(pairs) == _left_fold(pairs)

        prop()

    def test_empty_factors_add_nothing(self, chart):
        # a pair with an empty factor is skipped, and a dot with no product
        # is (); the sum is still that of the plain loop
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        q, p = chart.coord("q"), chart.coord("p")
        pool = [(), (), (q * p).terms, (q - 1).terms, (sx.exp(p) / (q + 2)).terms, _inverted(q * p / (p + 2))]
        factor = st.sampled_from(pool)

        @hyp.settings(derandomize=True, database=None, max_examples=80, deadline=None)
        @hyp.given(st.lists(st.tuples(factor, factor), max_size=5))
        def prop(pairs):
            got = sx._t_dot(pairs)
            assert got == _left_fold(pairs) and type(got) is tuple
            if all(not a or not b for a, b in pairs):
                assert got == ()

        prop()

    def test_budget_threshold_with_empty_factors(self, chart, monkeypatch):
        # empty pairs anywhere in the list leave the threshold where it is:
        # the product's own node count passes, one node less raises
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        f, g = ((q + p + z + 1) ** 3).terms, ((q - p + 2 * z + 3) ** 3).terms
        nodes = sx._node_count(_left_fold([(f, g)]))
        empties = st.sampled_from([((), ()), ((), g), (f, ())])

        @hyp.settings(derandomize=True, database=None, max_examples=30, deadline=None)
        @hyp.given(st.lists(empties, max_size=3), st.lists(empties, max_size=3))
        def prop(before, after):
            pairs = before + [(f, g)] + after
            monkeypatch.setattr(sx, "NODE_BUDGET", nodes)
            assert sx._t_dot(pairs) == _left_fold([(f, g)])
            monkeypatch.setattr(sx, "NODE_BUDGET", nodes - 1)
            with pytest.raises(sx.BudgetError):
                sx._t_dot(pairs)

        prop()


class TestSympyOracle:
    """Differential oracle that shares no code with the kernel: every result
    is read into sympy term by term (`oracle.to_sympy`), not through the
    kernel's printer."""

    def _gen(self, sp, chart, syms, rng, depth):
        if depth == 0 or rng.random() < 0.2:
            choice = rng.randrange(3)
            if choice == 0:
                i = rng.randrange(chart.dim)
                return chart.coord(i), syms[chart.coords[i]]
            if choice == 1:
                c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                return chart.const(c), sp.Rational(c.numerator, c.denominator)
            return param(chart, "al"), syms["al"]
        e1, s1 = self._gen(sp, chart, syms, rng, depth - 1)
        e2, s2 = self._gen(sp, chart, syms, rng, depth - 1)
        op = rng.randrange(4)
        if op == 0:
            return e1 + e2, s1 + s2
        if op == 1:
            return e1 - e2, s1 - s2
        if op == 2:
            return e1 * e2, s1 * s2
        if e2.is_zero_expr():
            return e1, s1
        return e1 / e2, s1 / s2

    def test_canonical_diff_subst_against_sympy(self, chart):
        sp = pytest.importorskip("sympy")
        syms = {n: sp.Symbol(n) for n in chart.coords + ("al",)}

        def same(a, b):
            return sp.simplify(a - b) == 0

        rng = random.Random(2718)
        q, p = chart.coord("q"), chart.coord("p")
        checked = 0
        for _ in range(16):
            e, want = self._gen(sp, chart, syms, rng, 3)
            if e.as_rational() is not None:
                continue
            assert same(to_sympy(e), want), str(e)
            i = rng.randrange(chart.dim)
            assert same(to_sympy(e.diff(i)), sp.diff(want, syms[chart.coords[i]])), str(e)
            try:
                got = e.subst({"q": p - 2 * q, "z": Fraction(1, 2)})
            except ZeroDivisionError:
                continue  # a denominator vanished identically under the map
            sub = want.subs({syms["q"]: syms["p"] - 2 * syms["q"], syms["z"]: sp.Rational(1, 2)},
                            simultaneous=True)
            assert same(to_sympy(got), sub), str(e)
            checked += 1
        assert checked >= 8


class TestBudget:
    def test_budget_error(self, chart, monkeypatch):
        monkeypatch.setattr(sx, "NODE_BUDGET", 500)
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        with pytest.raises(sx.BudgetError):
            e = (q + p + z + 1) ** 4
            for _ in range(4):
                e = e * e

    def test_dot_budget_counts_the_sum(self, chart, monkeypatch):
        # 400 one-term products of 3 nodes each: no product exceeds the
        # budget, their sum does
        monkeypatch.setattr(sx, "NODE_BUDGET", 500)
        q, p = chart.coord("q"), chart.coord("p")
        pairs = [((q**i).terms, (p**j).terms) for i in range(1, 21) for j in range(1, 21)]
        assert all(sx._node_count(sx._t_mul(a, b)) < 500 for a, b in pairs)
        with pytest.raises(sx.BudgetError):
            sx._t_dot(pairs)


class TestPackedNodeCount:
    """Without exp atoms, no two codes of a packed polynomial decode to one
    monomial, so a packed dot counts the nodes of its canonical form from
    the codes; the count, and so the budget, must be the decode path's."""

    @staticmethod
    def _cases(chart):
        # seeded dots over inverse-power atoms, negative coordinate powers,
        # an abstract function and a high power
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        factors = [p**-2, (p + z + 2) ** -1, (q - z) ** -3, fn_symbol(chart, "f", ["q"]), z**5]
        rng = random.Random(61)
        for _ in range(8):
            ts = [(rand_poly(chart, rng, 2, 3) * factors[rng.randrange(5)] * factors[rng.randrange(5)]).terms
                  for _ in range(6)]
            ring = sx._PackedRing(ts, 2)
            yield ring, [(ring.pack(a), ring.pack(b)) for a, b in zip(ts[::2], ts[1::2])]

    def test_count_equals_the_decoded_count(self, chart):
        inverse_powers = 0
        for ring, pairs in self._cases(chart):
            p = ring.dot(pairs)
            inverse_powers += any(a[0] == sx._W for a in ring.atoms)
            assert ring._nodes(p) == sx._node_count(ring.terms(p))
        assert inverse_powers >= 6

    def test_budget_threshold_equals_the_decode_path(self, chart, monkeypatch):
        cases = [(ring, pairs, ring.dot(pairs)) for ring, pairs in self._cases(chart)]
        for ring, pairs, p in cases:
            nodes = sx._node_count(ring.terms(p))
            for budget in (nodes - 1, nodes):
                with monkeypatch.context() as m:
                    m.setattr(sx, "NODE_BUDGET", budget)
                    decoded = _raises_budget(ring.terms, p)
                    m.setattr(sx._PackedRing, "terms", None)  # the dot decodes nothing
                    assert _raises_budget(ring.dot, pairs) == decoded == (budget < nodes)


def _raises_budget(fn, arg) -> bool:
    try:
        fn(arg)
    except sx.BudgetError:
        return True
    return False


def _plain_dot(pairs):
    """The reference for _PackedRing.dot: every x * y multiplied out, term by
    term, in a plain double loop."""
    acc = {}
    for x, y in pairs:
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                acc[m1 + m2] = acc.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c}


class TestGroupedDot:
    """A packed dot equals the plain double loop, also where pairs share a y
    object, pair a y with its negation or have x sides that cancel, in rings
    with an exp (_E) atom and with an inverse-power (_W) atom."""

    def test_shared_factors(self, chart):
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        for tag, extra in (("exp", sx.exp(q - p)), ("inverse", (p + 1) ** -1)):
            x1, x2, y1, y2 = (e.terms for e in (q + 2, p - z, extra * (q - 1) + z, q * extra + p ** 2))
            ring = sx._PackedRing([x1, x2, y1, y2], 2)
            assert any(a[0] == {"exp": sx._E, "inverse": sx._W}[tag] for a in ring.atoms)
            a, b, u, v = (ring.pack(t) for t in (x1, x2, y1, y2))
            nu = ring.neg(u)
            assert nu == {m: -c for m, c in u.items()} and ring.neg(nu) == u
            minus_a = ring.neg(a)
            cases = [
                [],  # the empty dot
                [(a, u), (b, u), (a, v)],  # a repeated y
                [(a, u), (b, nu), (b, v)],  # a y and its negation
                [(a, u), (minus_a, u)],  # x sides cancel: the zero polynomial
                [(a, u), (minus_a, u), (b, v)],  # ... beside a pair that stays
                [(a, nu), (b, u), (a, u), (b, nu), (b, v)],  # cancels across the two factors
            ]
            for pairs in cases:
                before = [(dict(x), dict(y)) for x, y in pairs]
                assert ring.dot(pairs) == _plain_dot(pairs), (tag, pairs)
                assert [(dict(x), dict(y)) for x, y in pairs] == before  # inputs untouched
            assert ring.dot([]) == {} and ring.dot([(a, u), (minus_a, u)]) == {}

    def test_property_equals_plain_loop(self, chart):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        atoms = {"exp": [q, p, z, sx.exp(q - p), sx.exp(p / 2)],
                 "inverse": [q, p, z, (p + 1) ** -1, (q - z) ** -2]}
        seen = {"repeat": 0, "negation": 0, "cancel": 0, "empty": 0, "exp": 0, "inverse": 0}

        @st.composite
        def terms(draw, pool):
            e = chart.zero()
            for _ in range(draw(st.integers(1, 3))):
                t = chart.const(Fraction(draw(st.integers(-4, 4)) or 1, draw(st.integers(1, 3))))
                for a in draw(st.lists(st.sampled_from(pool), max_size=3)):
                    t = t * a
                e = e + t
            return e.terms

        @st.composite
        def case(draw):
            tag = draw(st.sampled_from(sorted(atoms)))
            ts = draw(st.lists(terms(atoms[tag]), min_size=2, max_size=5))
            # (x index, y index, how y is given): the object, the object of
            # its negation by `neg`, or the object beside a pair whose x
            # cancels it
            spec = draw(st.lists(st.tuples(st.integers(0, len(ts) - 1), st.integers(0, len(ts) - 1),
                                           st.sampled_from(("same", "neg", "cancel"))), max_size=6))
            return tag, ts, spec

        @hyp.settings(derandomize=True, database=None, max_examples=80, deadline=None)
        @hyp.given(case())
        def prop(c):
            tag, ts, spec = c
            ring = sx._PackedRing(ts, 2)
            packed = [ring.pack(t) for t in ts]
            negated = [ring.neg(y) for y in packed]
            pairs = []
            for i, j, how in spec:
                x, y = packed[i], (negated if how == "neg" else packed)[j]
                pairs.append((x, y))
                if how == "cancel":
                    pairs.append((ring.neg(x), y))
            assert ring.dot(pairs) == _plain_dot(pairs)
            ids = {id(y) for _, y in pairs}
            seen[tag] += 1
            seen["repeat"] += len(ids) < len(pairs)
            seen["negation"] += any(id(packed[j]) in ids and id(negated[j]) in ids for j in range(len(ts)))
            seen["cancel"] += any(how == "cancel" for _, _, how in spec)
            seen["empty"] += not pairs

        prop()
        assert all(seen.values()), seen


class TestPatternRing:
    """A torsion table's shape relabels its inputs (`_relabel`): each input
    of more than one term is one free variable, shared up to sign, a
    monomial input keeps its atoms, and every variable and atom becomes a
    label (_V, i), numbered by first occurrence."""

    def test_variables(self, chart):
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        f = fn_symbol(chart, "f")
        u, m = q * p + z, 3 * q**2 * f
        ts = [t.terms for t in (u, -u, 2 * u, m, chart.zero(), -z * f)]
        shape, labels = sx._relabel(ts)
        v = [(((sx._V, i), 1),) for i in range(5)]
        # u and -u share a variable, 2 u has its own; then q, f and z in
        # their order of first occurrence, each monomial re-sorted by label
        assert shape == (((v[0], 1),), ((v[0], -1),), ((v[1], 1),),
                         (((((sx._V, 2), 2), ((sx._V, 3), 1)), 3),), (),
                         (((((sx._V, 3), 1), ((sx._V, 4), 1)), -1),))
        def atom(e):
            return e.terms[0][0][0][0]

        assert labels == {u.terms: (sx._V, 0), (2 * u).terms: (sx._V, 1), atom(q): (sx._V, 2),
                          atom(f): (sx._V, 3), atom(z): (sx._V, 4)}
        # labels rank below every atom an expression holds
        assert sx._V < min(sx._C, sx._P, sx._F, sx._E, sx._W)
        # other names, in the same places, give the same shape
        g, w = fn_symbol(chart, "g"), q * sx.param(chart, "a") + z
        renamed = [t.terms for t in (w, -w, 2 * w, 3 * q**2 * g, chart.zero(), -z * g)]
        assert sx._relabel(renamed)[0] == shape

    def test_psi_maps_pattern_dots_to_expanded_dots(self, chart):
        # sending each label back to what it stands for (the label table,
        # inverted) maps a dot of the shape's ring to the dot of the same
        # inputs in the expanded ring
        q, p, z = chart.coord("q"), chart.coord("p"), chart.coord("z")
        rng = random.Random(73)
        f = fn_symbol(chart, "f")
        ts = [rand_poly(chart, rng, 2, 3).terms for _ in range(4)] + [(q * p).terms, (-z * f**2).terms]
        ts[1] = sx._t_neg(ts[0])
        shape, labels = sx._relabel(ts)
        pattern, expanded = sx._PackedRing(shape, 2), sx._PackedRing(ts, 2)
        assert all(a[0] == sx._V for a in pattern.atoms)
        # an atom's first entry is its rank, a terms tuple's a (mono, coeff) pair
        stands = {v: sx._t_atom(k) if type(k[0]) is int else k for k, v in labels.items()}

        def psi(t):
            out = ()
            for mono, c in t:
                piece = sx._t_const(c)
                for a, e in mono:
                    piece = sx._t_mul(piece, sx._t_pow(stands[a], e))
                out = sx._t_add(out, piece)
            return out

        for _ in range(6):
            pairs = [(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(1, 4))]
            got = pattern.dot([(pattern.pack(shape[i]), pattern.pack(shape[j])) for i, j in pairs])
            want = expanded.dot([(expanded.pack(ts[i]), expanded.pack(ts[j])) for i, j in pairs])
            assert psi(pattern.terms(got)) == expanded.terms(want)
        assert sum(type(k[0]) is not int for k in labels) >= 3


class TestChart:
    def test_duplicate_coords_rejected(self):
        with pytest.raises(ValueError):
            Chart("X", ("a", "a"))

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            Chart("X", ("exp", "y"))
        with pytest.raises(ValueError):
            Chart("X", ("d", "y"))

    def test_darboux_dimension_checks(self):
        with pytest.raises(ValueError):
            Chart("X", ("q", "p"), ("darboux-contact", 1))
        ok = sx.darboux_contact(2)
        assert ok.dim == 5 and ok.z_index == 4
        assert ok.q_indices == (0, 1) and ok.p_indices == (2, 3)

    def test_one_zero_per_chart(self, chart):
        q, p = chart.coord("q"), chart.coord("p")
        zero = chart.zero()
        assert zero.terms == () and zero.chart is chart
        # every empty result on the chart is its one zero
        for e in (q - q, q + -q, -zero, q * 0, 0 * q, zero * p, p.diff("q"), sx.rational(chart, 0),
                  dot(chart, [q, zero], [zero, p]), dot(chart, [q], [p - p])):
            assert e is zero, e
        with pytest.raises(AttributeError):
            zero.terms = (((), 1),)
        with pytest.raises(AttributeError):
            del zero.terms
        assert zero.terms == () and zero == 0

    def test_equal_charts_stay_equal(self):
        a, b = sx.darboux_contact(1), sx.darboux_contact(1)
        assert a is not b and a.zero() is not b.zero()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "Chart(M, q,p,z)"
        assert a != Chart("M", ("q", "p", "z")) and a.dim == b.dim == 3
        assert a.coord("q") - b.coord("q") is a.zero()

    def test_extended(self):
        c = sx.darboux_contact(1)
        big = c.extended()
        assert big.dim == 4 and big.coords[-1] == "t"
        e = c.coord("p").on_chart(big)
        assert e.diff("t").is_zero_expr()
        # a taken name gives way to the first free variant
        assert Chart("T", ("q", "t", "t1")).extended().coords == ("q", "t", "t1", "t2")
