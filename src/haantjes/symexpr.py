"""Exact symbolic scalar expressions on a coordinate chart.

Everything in this package is built on one normal form: an expression is a
sum of terms, each term a rational coefficient times a monomial in "atoms".
Atoms are coordinates, named parameters, abstract-function symbols carrying
a multi-index of applied partial derivatives, exponentials of expressions,
and inverse powers of primitive multi-term expressions (there is no division
node; a quotient is a product with a negative integer power).

Canonicalisation is eager: every constructor and arithmetic operator returns
the normal form, so structural equality of the term tuples is semantic
equality for the exponential-free fragment, and zero-testing reduces to
inspection plus (for quotients) cross-multiplication plus (as a last resort)
seeded sampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "BudgetError",
    "Chart",
    "ChartMismatch",
    "DomainError",
    "Expr",
    "ParseError",
    "SubstitutionError",
    "UnboundAtomError",
    "ZeroCertainty",
    "ZeroTester",
    "darboux_contact",
    "darboux_symplectic",
    "diff",
    "eval_numeric",
    "exp",
    "fn_symbol",
    "format_expr",
    "integrate_unit_param",
    "is_zero",
    "lcs_local",
    "param",
    "parse_expr",
    "parse_scalar",
    "rational",
    "simplify",
    "weakest",
]

NODE_BUDGET = 10**6

Rat = Fraction
RatLike = Union[int, Fraction]


class ChartMismatch(ValueError):
    """Operands live on different charts."""


class BudgetError(RuntimeError):
    """A canonical form exceeded the node budget."""


class DomainError(ZeroDivisionError):
    """Inversion of an expression that is structurally zero."""


class SubstitutionError(ValueError):
    """A coordinate substitution hit an abstract-function dependency."""


class UnboundAtomError(KeyError):
    """Numeric evaluation met an atom with no binding."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Charts


_DARBOUX_KINDS = ("darboux-contact", "darboux-symplectic", "lcs-local")


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate chart, optionally tagged with a Darboux kind.

    ``kind`` is ``("generic",)`` or ``(tag, n)`` with tag one of
    ``darboux-contact`` (dim 2n+1, coords ordered q..., p..., z),
    ``darboux-symplectic`` / ``lcs-local`` (dim 2n, coords q..., p...).
    """

    name: str
    coords: tuple[str, ...]
    kind: tuple = ("generic",)

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"chart {self.name}: duplicate coordinates")
        reserved = {"exp", "d"} & set(self.coords)
        if reserved:
            raise ValueError(f"chart {self.name}: reserved coordinate names {sorted(reserved)}")
        tag = self.kind[0]
        if tag == "generic":
            return
        if tag not in _DARBOUX_KINDS:
            raise ValueError(f"chart {self.name}: unknown kind {tag!r}")
        n = self.kind[1]
        want = 2 * n + 1 if tag == "darboux-contact" else 2 * n
        if len(self.coords) != want:
            raise ValueError(
                f"chart {self.name}: kind {tag}({n}) needs dim {want}, got {len(self.coords)}"
            )

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def n_pairs(self) -> int:
        if self.kind[0] == "generic":
            raise ValueError("generic chart has no (q, p) pairing")
        return self.kind[1]

    @property
    def q_indices(self) -> tuple[int, ...]:
        return tuple(range(self.n_pairs))

    @property
    def p_indices(self) -> tuple[int, ...]:
        n = self.n_pairs
        return tuple(range(n, 2 * n))

    @property
    def z_index(self) -> int:
        if self.kind[0] != "darboux-contact":
            raise ValueError("only contact charts have a z coordinate")
        return 2 * self.kind[1]

    def index(self, coord: str) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
            raise KeyError(f"chart {self.name} has no coordinate {coord!r}") from None

    def coord(self, which: Union[int, str]) -> "Expr":
        i = which if isinstance(which, int) else self.index(which)
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate index {i} out of range on {self.name}")
        return Expr(self, _t_atom((_C, i)))

    def zero(self) -> "Expr":
        return Expr(self, ())

    def one(self) -> "Expr":
        return Expr(self, _T_ONE)

    def const(self, value: RatLike) -> "Expr":
        return rational(self, value)

    def extended(self, extra: str = "t") -> "Chart":
        """Chart with one appended coordinate (used by Poissonization)."""
        if extra in self.coords:
            raise ValueError(f"coordinate {extra!r} already present")
        return Chart(self.name + "_x" + extra, self.coords + (extra,), ("generic",))

    def __repr__(self):
        return f"Chart({self.name}, {','.join(self.coords)})"


def darboux_contact(n: int, name: str = "M") -> Chart:
    qs = tuple(f"q{i+1}" for i in range(n)) if n > 1 else ("q",)
    ps = tuple(f"p{i+1}" for i in range(n)) if n > 1 else ("p",)
    return Chart(name, qs + ps + ("z",), ("darboux-contact", n))


def darboux_symplectic(n: int, name: str = "M", kind: str = "darboux-symplectic") -> Chart:
    qs = tuple(f"q{i+1}" for i in range(n)) if n > 1 else ("q",)
    ps = tuple(f"p{i+1}" for i in range(n)) if n > 1 else ("p",)
    return Chart(name, qs + ps, (kind, n))


def lcs_local(n: int, name: str = "M") -> Chart:
    return darboux_symplectic(n, name, "lcs-local")


# ---------------------------------------------------------------------------
# Canonical term algebra.
#
# atom:  (_C, i) | (_P, name) | (_F, name, deps, parts)
#        | (_E, key, terms) | (_W, key, terms)
#        The first entry is the atom's rank; key = _terms_key(terms) is
#        computed once, when the atom is built.  So atoms compare natively in
#        canonical order: by rank, then index, name or key.
# mono:  tuple of (atom, exp), sorted; exps nonzero; at most one _E atom and
#        its exp is 1; _W exps are negative.  _E and _W rank last, so only
#        the last atom of a mono can be one.
# terms: tuple of (mono, coeff), sorted; coeffs nonzero, an int when
#        integral and a Fraction otherwise.  Every coefficient division and
#        negative power goes through _div (``int / int`` is a float).

_C, _P, _F, _E, _W = range(5)

_T_ONE = (((), 1),)


def _terms_key(t):
    # (num, den) pairs, not values: exp and inverse-power atoms order by
    # their coefficients' numerators first, as the printed goldens expect
    return tuple((m, c.numerator, c.denominator) for m, c in t)


def _canon(c):
    """c, an int or a Fraction, as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _div(n, d):
    """The exact quotient n / d of two coefficients."""
    if type(n) is int and type(d) is int and n % d == 0:
        return n // d
    return _canon(Fraction(n, d))


def _pow(c, k: int):
    return c**k if k >= 0 else _div(1, c**-k)


def _freeze(d: dict) -> tuple:
    items = [(m, c if type(c) is int else _canon(c)) for m, c in d.items() if c]
    items.sort()
    return tuple(items)


def _t_atom(a, exp: int = 1) -> tuple:
    return ((((a, exp),), 1),)


def _t_const(c: RatLike) -> tuple:
    if type(c) is not int:
        c = _canon(Fraction(c))
    return (((), c),) if c else ()


def _t_add(*ts) -> tuple:
    acc: dict = {}
    for t in ts:
        for m, c in t:
            acc[m] = acc.get(m, 0) + c
    return _freeze(acc)


def _t_scale(t, c: int) -> tuple:
    return tuple((m, _canon(k * c)) for m, k in t)


def _t_neg(t) -> tuple:
    return tuple((m, -c) for m, c in t)


def _node_count(t) -> int:
    n = 0
    for m, _ in t:
        n += 1
        for a, _e in m:
            n += 1
            if a[0] >= _E:
                n += _node_count(a[2])
    return n


def _budget_check(t):
    # cheap guard first: only count nodes when the term count already hints
    # at trouble relative to the active budget
    if len(t) > NODE_BUDGET // 256 and _node_count(t) > NODE_BUDGET:
        raise BudgetError(f"canonical form exceeds {NODE_BUDGET} nodes")
    return t


def _mono_mul(m1, m2):
    """Multiply two monomials.

    Returns (mono, expand) where expand holds (terms, positive_exp) factors
    that must be multiplied out polynomially (_W powers that turned
    nonnegative).  Without _E and _W atoms the product is one merge of the
    two sorted factor tuples.
    """
    if (m1 and m1[-1][0][0] >= _E) or (m2 and m2[-1][0][0] >= _E):
        return _mono_mul_general(m1, m2)
    if not m1:
        return m2, ()
    if not m2:
        return m1, ()
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        f1 = m1[i]
        f2 = m2[j]
        a1 = f1[0]
        a2 = f2[0]
        if a1 == a2:
            e = f1[1] + f2[1]
            if e:
                out.append((a1, e))
            i += 1
            j += 1
        elif a1 < a2:
            out.append(f1)
            i += 1
        else:
            out.append(f2)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out), ()


def _mono_mul_general(m1, m2):
    powers: dict = {}
    exps = []
    for a, e in m1 + m2:
        if a[0] == _E:
            exps.append(a)
        else:
            powers[a] = powers.get(a, 0) + e
    out = []
    expand = []
    for a, e in powers.items():
        if e == 0:
            continue
        if a[0] == _W and e > 0:
            expand.append((a[2], e))
            continue
        out.append((a, e))
    if len(exps) == 1:
        out.append((exps[0], 1))
    elif exps:
        u = _t_add(*(a[2] for a in exps))
        if u:
            out.append(((_E, _terms_key(u), u), 1))
    out.sort()
    return tuple(out), expand


def _t_dot(pairs) -> tuple:
    """sum of t1 * t2 over the (t1, t2) pairs, canonicalised once.

    Every monomial product goes into one dict, which is frozen and
    budget-checked once; products whose _W exponents turn nonnegative are
    expanded after the loop.
    """
    acc: dict = {}
    get = acc.get
    pending = []
    for t1, t2 in pairs:
        for m1, c1 in t1:
            for m2, c2 in t2:
                m, expand = _mono_mul(m1, m2)
                if expand:
                    pending.append((m, c1 * c2, expand))
                else:
                    acc[m] = get(m, 0) + c1 * c2
    for m, c, expand in pending:
        piece = ((m, c),)
        for base, e in expand:
            piece = _t_mul(piece, _t_pow(base, e))
        for pm, pc in piece:
            acc[pm] = get(pm, 0) + pc
    return _budget_check(_freeze(acc))


def _t_mul(t1, t2) -> tuple:
    if not t1 or not t2:
        return ()
    return _t_dot(((t1, t2),))


def _mono_pow(m, c, k: int):
    # the exponents change, the atoms do not (an _E atom stays the one _E
    # atom), so the factors stay sorted
    out = []
    for a, e in m:
        if a[0] == _E:
            arg = _t_scale(a[2], k)
            out.append(((_E, _terms_key(arg), arg), 1))
        else:
            out.append((a, e * k))
    return (tuple(out), _pow(c, k))


def _primitive(t):
    """Split t into (coeff, primitive_terms): content and sign extracted."""
    num, den = 0, 1
    for _, c in t:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
        if num == 1 and den == 1:
            break
    if t[0][1] < 0:
        num = -num
    if num == 1 and den == 1:
        return 1, t
    return _div(num, den), tuple((m, _div(c * den, num)) for m, c in t)


def _t_pow(t, k: int) -> tuple:
    if k == 0:
        return _T_ONE
    if not t:
        if k < 0:
            raise DomainError("inverse of zero expression")
        return ()
    if k > 0:
        result = _T_ONE
        base = t
        e = k
        while e:
            if e & 1:
                result = _t_mul(result, base)
            base = _t_mul(base, base) if e > 1 else base
            e >>= 1
        return result
    # negative power
    if len(t) == 1:
        # re-normalise through _t_mul: a _W exponent may have turned positive
        return _t_mul((_mono_pow(t[0][0], t[0][1], k),), _T_ONE)
    content, base = _primitive(t)
    return (((((_W, _terms_key(base), base), k),), _pow(content, k)),)


def _t_exp(t) -> tuple:
    if not t:
        return _T_ONE
    return _t_atom((_E, _terms_key(t), t))


def _t_diff(t, i: int) -> tuple:
    return _t_dot(_diff_pairs(t, i))


def _diff_pairs(t, i: int) -> list:
    """(t1, t2) pairs whose products sum to dt/dx_i."""
    pairs = []
    for m, c in t:
        for pos, (a, e) in enumerate(m):
            da = _atom_diff(a, i)
            if da is None:
                continue
            rest = list(m)
            if a[0] == _E:
                pass  # d(exp u) = exp(u) du: atom stays, its exp is 1
            elif e == 1:
                del rest[pos]
            else:
                rest[pos] = (a, e - 1)
            pairs.append((((tuple(rest), c * e),), da))
    return pairs


def _atom_diff(a, i: int):
    tag = a[0]
    if tag == _C:
        return _T_ONE if a[1] == i else None
    if tag == _P:
        return None
    if tag == _F:
        _, name, deps, parts = a
        if i not in deps:
            return None
        return _t_atom((_F, name, deps, tuple(sorted(parts + (i,)))))
    # _E: d(exp u) = exp(u) du, the caller keeps the atom; _W: d(B^e) is
    # handled by the caller through the exponent, here we only supply dB
    return _t_diff(a[2], i) or None


def _t_subst(t, mapping: dict) -> tuple:
    pieces = []
    for m, c in t:
        piece = _t_const(c)
        for a, e in m:
            tag = a[0]
            if tag == _C:
                repl = mapping.get(a[1])
                fac = repl if repl is not None else _t_atom(a)
                piece = _t_mul(piece, _t_pow(fac, e) if e != 1 else fac)
            elif tag == _P:
                piece = _t_mul(piece, _t_atom(a, e))
            elif tag == _F:
                if any(j in mapping for j in a[2]):
                    raise SubstitutionError(
                        f"cannot substitute inside abstract function {a[1]!r}"
                    )
                piece = _t_mul(piece, _t_atom(a, e))
            elif tag == _E:
                piece = _t_mul(piece, _t_exp(_t_subst(a[2], mapping)))
            else:
                piece = _t_mul(piece, _t_pow(_t_subst(a[2], mapping), e))
        pieces.append(piece)
    return _t_add(*pieces)


def _collect_atoms(t, into: set):
    for m, _ in t:
        for a, _e in m:
            if a[0] >= _E:
                _collect_atoms(a[2], into)
            else:
                into.add(a)


def _has_exp(t) -> bool:
    for m, _ in t:
        for a, _e in m:
            if a[0] == _E:
                return True
            if a[0] == _W and _has_exp(a[2]):
                return True
    return False


def _clear_denominators(t) -> tuple:
    """Multiply through by positive powers of every top-level _W base.

    Each term sheds its inverse-power atoms and picks up the complementary
    expanded polynomial factor, so equal ratios cancel structurally.
    Preserves zero-ness on the dense open set where denominators do not
    vanish; used only for zero-testing.
    """
    for _ in range(8):
        need: dict = {}
        for m, _c in t:
            for a, e in m:
                if a[0] == _W:
                    need[a[2]] = max(need.get(a[2], 0), -e)
        if not need:
            return t
        pieces = []
        for m, c in t:
            have = {base: 0 for base in need}
            rest = []
            for a, e in m:
                if a[0] == _W and a[2] in have:
                    have[a[2]] += e
                else:
                    rest.append((a, e))
            piece = ((tuple(rest), c),)
            for base, top in need.items():
                k = top + have[base]
                if k > 0:
                    piece = _t_mul(piece, _t_pow(base, k))
            pieces.append(piece)
        t = _t_add(*pieces)
        if not t:
            return t
    return t


# ---------------------------------------------------------------------------
# Expr


class Expr:
    """Immutable canonical scalar expression on a chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: tuple):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    # -- housekeeping

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.chart != self.chart:
                raise ChartMismatch(f"{self.chart.name} vs {other.chart.name}")
            return other
        if isinstance(other, (int, Fraction)):
            return Expr(self.chart, _t_const(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == _t_const(other)
        return (
            isinstance(other, Expr)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart.name, self.terms))

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Expr(self.chart, _t_add(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.chart, _t_neg(self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Expr(self.chart, _t_add(self.terms, _t_neg(o.terms)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Expr(self.chart, _t_mul(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are representable")
        return Expr(self.chart, _t_pow(self.terms, k))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o**-1

    def __rtruediv__(self, other):
        return self._coerce(other) * self**-1

    # -- queries

    def is_zero_expr(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == _T_ONE

    def as_rational(self) -> Optional[Fraction]:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return Fraction(self.terms[0][1])
        return None

    def has_exp(self) -> bool:
        return _has_exp(self.terms)

    def is_polynomial(self) -> bool:
        """No exp atoms, no inverse powers, no negative coordinate powers."""
        for m, _ in self.terms:
            for a, e in m:
                if a[0] >= _E or e < 0:
                    return False
        return True

    def atoms(self) -> set:
        out: set = set()
        _collect_atoms(self.terms, out)
        return out

    def depends_on(self, i: int) -> bool:
        return not self.diff(i).is_zero_expr()

    # -- calculus

    def diff(self, which: Union[int, str]) -> "Expr":
        i = which if isinstance(which, int) else self.chart.index(which)
        if not 0 <= i < self.chart.dim:
            raise IndexError(f"coordinate index {i} out of range")
        return Expr(self.chart, _t_diff(self.terms, i))

    def subst(self, mapping: Mapping[Union[int, str], "Expr"]) -> "Expr":
        m = {}
        for k, v in mapping.items():
            i = k if isinstance(k, int) else self.chart.index(k)
            m[i] = v.terms if isinstance(v, Expr) else _t_const(v)
        return Expr(self.chart, _t_subst(self.terms, m))

    def on_chart(self, chart: Chart) -> "Expr":
        """Reinterpret on a chart whose coordinates extend this one's."""
        if chart.coords[: self.chart.dim] != self.chart.coords:
            raise ChartMismatch("target chart does not extend source chart")
        return Expr(chart, self.terms)

    def __repr__(self):
        return f"<{format_expr(self)}>"

    def __str__(self):
        return format_expr(self)


def rational(chart: Chart, value: RatLike) -> Expr:
    return Expr(chart, _t_const(value))


def param(chart: Chart, name: str) -> Expr:
    return Expr(chart, _t_atom((_P, name)))


def fn_symbol(
    chart: Chart,
    name: str,
    deps: Optional[Sequence[Union[int, str]]] = None,
    parts: Sequence[int] = (),
) -> Expr:
    """Abstract function symbol evaluated at the chart point.

    ``deps`` restricts the coordinates the symbol may depend on (defaults to
    all of them); partial derivatives in other directions vanish.
    """
    if deps is None:
        dep_idx = tuple(range(chart.dim))
    else:
        dep_idx = tuple(sorted(d if isinstance(d, int) else chart.index(d) for d in deps))
    for p in parts:
        if p not in dep_idx:
            raise ValueError(f"partial in non-dependency direction {p}")
    return Expr(chart, _t_atom((_F, name, dep_idx, tuple(sorted(parts)))))


def exp(e: Expr) -> Expr:
    return Expr(e.chart, _t_exp(e.terms))


def simplify(e: Expr) -> Expr:
    """Expressions are kept canonical eagerly; simplify is the identity map
    on canonical forms and exists as the public name of that contract."""
    return Expr(e.chart, _t_add(e.terms))


def diff(e: Expr, which: Union[int, str]) -> Expr:
    return e.diff(which)


# ---------------------------------------------------------------------------
# Printing (stable, used by reports and the model formatter)


def _format_atom(chart: Chart, a) -> str:
    tag = a[0]
    if tag == _C:
        return chart.coords[a[1]]
    if tag == _P:
        return a[1]
    if tag == _F:
        _, name, deps, parts = a
        args = ",".join(chart.coords[d] for d in deps)
        if parts:
            suffix = "_" + "".join(chart.coords[p] for p in parts)
        else:
            suffix = ""
        return f"{name}{suffix}({args})"
    if tag == _E:
        return f"exp({_format_terms(chart, a[2])})"
    return f"({_format_terms(chart, a[2])})"


def _format_mono(chart: Chart, m, c: RatLike) -> str:
    factors = []
    if c == -1 and m:
        sign = "-"
    else:
        sign = ""
        if c != 1 or not m:
            factors.append(str(c))
    for a, e in m:
        s = _format_atom(chart, a)
        if a[0] == _W:
            factors.append(f"{s}^{e}")
        elif e == 1:
            factors.append(s)
        else:
            need_parens = a[0] in (_E, _F)
            factors.append(f"({s})^{e}" if need_parens else f"{s}^{e}")
    return sign + "*".join(factors)


def _format_terms(chart: Chart, t) -> str:
    if not t:
        return "0"
    out = []
    for i, (m, c) in enumerate(t):
        if i and c > 0:
            out.append(" + " + _format_mono(chart, m, c))
        elif i:
            out.append(" - " + _format_mono(chart, m, -c))
        else:
            out.append(_format_mono(chart, m, c))
    return "".join(out)


def format_expr(e: Expr) -> str:
    return _format_terms(e.chart, e.terms)


# ---------------------------------------------------------------------------
# Zero certification


@dataclass(frozen=True)
class ZeroCertainty:
    """Outcome of a zero test.

    tag is one of ``proven_zero``, ``proven_nonzero``, ``probably_zero``,
    ``unknown``.  Proven tags arise only from exact canonicalisation or exact
    rational evaluation; ``probably_zero`` only from seeded sampling.
    """

    tag: str
    witness: Optional[dict] = None
    samples: int = 0
    tol: float = 0.0
    note: str = ""

    @property
    def is_proven_zero(self) -> bool:
        return self.tag == "proven_zero"

    @property
    def accepts_zero(self) -> bool:
        return self.tag in ("proven_zero", "probably_zero")

    @property
    def rejects_zero(self) -> bool:
        return self.tag == "proven_nonzero" or self.note == "numeric-nonzero"

    def __str__(self):
        extra = ""
        if self.witness is not None:
            items = sorted(self.witness.items())
            extra = " at {" + ", ".join(f"{k}={v}" for k, v in items) + "}"
        if self.tag == "probably_zero":
            extra = f" ({self.samples} samples, tol {self.tol})"
        return self.tag + extra + (f" [{self.note}]" if self.note else "")


PROVEN_ZERO = ZeroCertainty("proven_zero")

_CERTAINTY_ORDER = {"proven_zero": 3, "probably_zero": 2, "unknown": 1, "proven_nonzero": 0}


def weakest(certs: Iterable[ZeroCertainty]) -> ZeroCertainty:
    certs = list(certs)
    if not certs:
        return PROVEN_ZERO
    return min(certs, key=lambda c: _CERTAINTY_ORDER[c.tag])


def _sample_fractions(rng: random.Random, atoms, k: int):
    """Yield up to k assignments atom -> Fraction, the origin first."""
    atoms = sorted(atoms)
    if k > 0:
        yield {a: Fraction(0) for a in atoms}
    for _ in range(k - 1):
        yield {a: Fraction(rng.randint(-20, 20), 7) for a in atoms}


def _eval_exact(t, assign) -> tuple:
    """Return (defined, exact, value). value is a Fraction when exact."""
    total = Fraction(0)
    inexact = False
    for m, c in t:
        val = c
        term_inexact = False
        for a, e in m:
            tag = a[0]
            if tag < _E:
                v = assign[a]
            elif tag == _E:
                d, x, u = _eval_exact(a[2], assign)
                if not d:
                    return (False, False, None)
                if x and u == 0:
                    v = Fraction(1)
                else:
                    term_inexact = True
                    continue
            else:
                d, x, u = _eval_exact(a[2], assign)
                if not d or not x:
                    return (False, False, None) if not d else (True, False, None)
                if u == 0:
                    return (False, False, None)
                v = u**e
                e = 1
            if v == 0 and e < 0:
                return (False, False, None)
            val *= v**e if e != 1 else v
        if term_inexact:
            if val != 0:
                inexact = True
            continue
        total += val
    if inexact:
        return (True, False, None)
    return (True, True, total)


def _eval_float(t, assign) -> float:
    total = 0.0
    for m, c in t:
        val = float(c)
        for a, e in m:
            tag = a[0]
            if tag < _E:
                v = assign[a]
            elif tag == _E:
                v = math.exp(_eval_float(a[2], assign))
            else:
                v = _eval_float(a[2], assign)
            if v == 0 and e < 0:
                raise ZeroDivisionError
            val *= v**e
        total += val
    return total


def _exp_groups(t):
    """Group terms by their exponential atom's argument (None = exp-free)."""
    groups: dict = {}
    for m, c in t:
        arg = None
        rest = []
        for a, e in m:
            if a[0] == _E:
                arg = a[2]
            else:
                rest.append((a, e))
        groups.setdefault(arg, []).append((tuple(rest), c))
    return [tuple(v) for v in groups.values()]


def is_zero(e: Expr, seed: int = 0, samples: int = 16, tol: float = 1e-9) -> ZeroCertainty:
    """Decide whether e vanishes identically.

    Exact canonicalisation (after clearing inverse-power denominators)
    settles the rational fragment; a nonzero exponential-free form is then
    certified nonzero by exact rational evaluation at seeded sample points.
    Exponential parts fall back to grouped exact reasoning and, last, to
    float sampling which can only ever report ``probably_zero``.
    """
    t = e.terms
    if not t:
        return PROVEN_ZERO
    t = _clear_denominators(t)
    if not t:
        return PROVEN_ZERO
    chart = e.chart
    rng = random.Random(seed)
    if not _has_exp(t):
        for assign in _sample_fractions(rng, _iter_atoms(t), samples):
            defined, exact, val = _eval_exact(t, assign)
            if defined and exact and val != 0:
                return ZeroCertainty(
                    "proven_nonzero",
                    witness={_format_atom(chart, a): v for a, v in assign.items()},
                )
        return ZeroCertainty("unknown", note="no nonzero sample found")
    # exponential case: split into exp-argument groups; if some group's
    # polynomial part is exp-free and provably nonzero, the whole sum cannot
    # vanish (distinct canonical exp arguments are multiplicatively
    # independent over the rational-coefficient polynomial ring).
    groups = _exp_groups(t)
    if all(not _has_exp(g) for g in groups):
        for g in groups:
            sub = is_zero(Expr(chart, _t_add(g)), seed=seed, samples=samples, tol=tol)
            if sub.tag == "proven_nonzero":
                return ZeroCertainty("proven_nonzero", witness=sub.witness,
                                     note="nonvanishing exponential group")
    atoms = _iter_atoms(t)
    defined = 0
    worst = 0.0
    worst_assign = None
    for assign in _sample_fractions(rng, atoms, samples):
        fassign = {a: float(v) for a, v in assign.items()}
        try:
            val = _eval_float(t, fassign)
        except (ZeroDivisionError, OverflowError):
            continue
        defined += 1
        if abs(val) > worst:
            worst = abs(val)
            worst_assign = assign
    if defined == 0:
        return ZeroCertainty("unknown", note="evaluation undefined at all samples")
    if worst < tol:
        return ZeroCertainty("probably_zero", samples=defined, tol=tol)
    return ZeroCertainty(
        "unknown",
        witness={_format_atom(chart, a): v for a, v in worst_assign.items()},
        note="numeric-nonzero",
    )


def _iter_atoms(t):
    out: set = set()
    _collect_atoms(t, out)
    return out


@dataclass(frozen=True)
class ZeroTester:
    """A seeded zero test; every probabilistic check threads one of these."""

    seed: int = 0
    samples: int = 16
    tol: float = 1e-9

    def __call__(self, e: Expr) -> ZeroCertainty:
        return is_zero(e, seed=self.seed, samples=self.samples, tol=self.tol)


def integrate_unit_param(e: Expr, name: str) -> Expr:
    """Exact integral over [0, 1] of e in the parameter ``name``.

    e must be polynomial in the parameter (the radial-integration use case).
    """
    key = (_P, name)
    pieces = []
    for m, c in e.terms:
        k = 0
        rest = []
        for a, ex in m:
            if a == key:
                if ex < 0:
                    raise DomainError(f"negative power of parameter {name!r}")
                k = ex
            else:
                if a[0] >= _E and key in _iter_atoms(_t_atom(a)):
                    raise DomainError(f"parameter {name!r} inside nonpolynomial atom")
                rest.append((a, ex))
        pieces.append(((tuple(rest), _div(c, k + 1)),))
    return Expr(e.chart, _t_add(*pieces))


# ---------------------------------------------------------------------------
# Numeric evaluation


def eval_numeric(
    e: Expr,
    point: Mapping[str, float],
    params: Optional[Mapping[str, float]] = None,
    fn_bindings: Optional[Mapping[str, Expr]] = None,
) -> float:
    """IEEE-double value of e at a chart point.

    Abstract function symbols must be bound (by name) to concrete Expr
    instantiations; their partial-derivative atoms evaluate by exact
    differentiation of the binding followed by numeric evaluation.
    """
    params = params or {}
    fn_bindings = fn_bindings or {}
    chart = e.chart
    assign = {}
    for a in e.atoms():
        tag = a[0]
        if tag == _C:
            name = chart.coords[a[1]]
            if name not in point:
                raise UnboundAtomError(f"coordinate {name!r} unbound")
            assign[a] = float(point[name])
        elif tag == _P:
            if a[1] not in params:
                raise UnboundAtomError(f"parameter {a[1]!r} unbound")
            assign[a] = float(params[a[1]])
        else:
            _, name, _deps, parts = a
            if name not in fn_bindings:
                raise UnboundAtomError(f"abstract function {name!r} unbound")
            inst = fn_bindings[name]
            for p in parts:
                inst = inst.diff(p)
            assign[a] = eval_numeric(inst, point, params, fn_bindings)
    return _eval_float(e.terms, assign)


# ---------------------------------------------------------------------------
# Expression text parser (infix +, -, *, /, /\, ^, exp(...), f(x1,...,xn),
# tuples and lists)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple] = []
        self._lex()
        self.i = 0

    def _advance(self, n: int):
        for ch in self.text[self.pos : self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _lex(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            line, col = self.line, self.col
            if ch.isdigit():
                j = self.pos
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", int(text[self.pos : j]), line, col))
                self._advance(j - self.pos)
                continue
            if ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[self.pos : j], line, col))
                self._advance(j - self.pos)
                continue
            if text.startswith("/\\", self.pos):
                self.tokens.append(("/\\", "/\\", line, col))
                self._advance(2)
                continue
            if ch in "+-*/^(),[]":
                self.tokens.append((ch, ch, line, col))
                self._advance(1)
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("eof", None, self.line, self.col))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok


def parse_scalar(
    text: str,
    chart: Chart,
    names: Optional[Mapping[str, Expr]] = None,
) -> Expr:
    """Parse the scalar expression syntax.

    Bare identifiers resolve to chart coordinates, then to ``names`` entries,
    then to parameters; ``f(x1,...,xn)`` builds an abstract function symbol
    depending on the listed coordinates.
    """
    return _scalar(_Parser(text, chart, (names or {}).get, None).parse(), 1, 1)


def parse_expr(text: str, chart: Chart, hook):
    """Parse the expression syntax of parse_scalar extended by ``/\\``,
    tuples ``(a, b, ...)`` and lists ``[a, b, ...]`` (a matrix is a list of
    lists); the value of a tuple is a Python tuple and of a list a list.

    ``hook`` gives meaning to everything that is not a scalar:
    ``hook.name(name)`` resolves a bare identifier that is not a coordinate
    (``None`` makes it a parameter), ``hook.d(f)`` is ``d(<scalar>)``, and
    ``hook.scale(v, f)``, ``hook.add(a, b)`` and ``hook.wedge(a, b)`` are
    ``v * f``, ``a + b`` and ``a /\\ b`` when an operand is not a scalar.
    ``*`` between two such operands is a ParseError.
    """
    return _Parser(text, chart, hook.name, hook).parse()


def _scalar(value, line: int, col: int) -> Expr:
    if not isinstance(value, Expr):
        raise ParseError("expected a scalar expression", line, col)
    return value


class _Parser:
    """Recursive descent:

        sum     := product (('+' | '-') product)*
        product := unary (('*' | '/' | '/\\') unary)*
        unary   := ('-' | '+') unary | power
        power   := primary ['^' ['('] ['-'] int [')']]
        primary := int | '(' sum (',' sum)* ')' | '[' sum (',' sum)* ']'
                 | ident ['(' ... ')']

    Scalars combine as Expr; an operation with another operand goes to the
    hook, and without one is a ParseError.
    """

    def __init__(self, text: str, chart: Chart, lookup, hook):
        self.lx = _Lexer(text)
        self.chart = chart
        self.lookup = lookup
        self.hook = hook

    def parse(self):
        value = self._sum()
        tok = self.lx.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        return value

    def _hook(self, tok):
        if self.hook is None:
            raise ParseError(f"{tok[1]!r} needs scalar operands", tok[2], tok[3])
        return self.hook

    def _neg(self, value, tok):
        if isinstance(value, Expr):
            return -value
        return self._hook(tok).scale(value, rational(self.chart, -1))

    def _sum(self):
        value = self._product()
        while self.lx.peek()[0] in ("+", "-"):
            tok = self.lx.next()
            rhs = self._product()
            if tok[0] == "-":
                rhs = self._neg(rhs, tok)
            if isinstance(value, Expr) and isinstance(rhs, Expr):
                value = value + rhs
            else:
                value = self._hook(tok).add(value, rhs)
        return value

    def _product(self):
        value = self._unary()
        while self.lx.peek()[0] in ("*", "/", "/\\"):
            tok = self.lx.next()
            op = tok[0]
            rhs = self._unary()
            if op == "/\\":
                value = self._hook(tok).wedge(value, rhs)
            elif op == "/":
                rhs = _scalar(rhs, tok[2], tok[3])
                value = value / rhs if isinstance(value, Expr) else self._hook(tok).scale(value, rhs**-1)
            elif isinstance(rhs, Expr):
                value = value * rhs if isinstance(value, Expr) else self._hook(tok).scale(value, rhs)
            elif isinstance(value, Expr):
                value = self._hook(tok).scale(rhs, value)
            else:
                raise ParseError("'*' needs a scalar operand; use /\\ between graded ones",
                                 tok[2], tok[3])
        return value

    def _unary(self):
        tok = self.lx.peek()
        if tok[0] == "-":
            self.lx.next()
            return self._neg(self._unary(), tok)
        if tok[0] == "+":
            self.lx.next()
            return self._unary()
        return self._power()

    def _power(self):
        base = self._primary()
        tok = self.lx.peek()
        if tok[0] != "^":
            return base
        base = _scalar(base, tok[2], tok[3])
        self.lx.next()
        # exponent: optionally signed integer, possibly parenthesised
        neg = False
        tok = self.lx.peek()
        parens = tok[0] == "("
        if parens:
            self.lx.next()
            tok = self.lx.peek()
        if tok[0] == "-":
            self.lx.next()
            neg = True
        tok = self.lx.expect("int")
        if parens:
            self.lx.expect(")")
        return base ** (-tok[1] if neg else tok[1])

    def _items(self, close: str) -> list:
        items = [self._sum()]
        while self.lx.peek()[0] == ",":
            self.lx.next()
            items.append(self._sum())
        self.lx.expect(close)
        return items

    def _primary(self):
        lx, chart = self.lx, self.chart
        tok = lx.next()
        kind = tok[0]
        if kind == "int":
            return rational(chart, tok[1])
        if kind == "(":
            items = self._items(")")
            return items[0] if len(items) == 1 else tuple(items)
        if kind == "[":
            return self._items("]")
        if kind == "ident":
            name = tok[1]
            if lx.peek()[0] != "(":
                if name in chart.coords:
                    return chart.coord(name)
                value = self.lookup(name)
                return param(chart, name) if value is None else value
            if name == "exp" or (name == "d" and self.hook is not None):
                lx.next()
                arg = _scalar(self._sum(), tok[2], tok[3])
                lx.expect(")")
                return exp(arg) if name == "exp" else self.hook.d(arg)
            lx.next()
            args = []
            if lx.peek()[0] != ")":
                while True:
                    a = lx.next()
                    if a[0] != "ident":
                        raise ParseError("abstract function arguments must be coordinates", a[2], a[3])
                    args.append(a[1])
                    if lx.peek()[0] == ",":
                        lx.next()
                        continue
                    break
            lx.expect(")")
            try:
                deps = [chart.index(a) for a in args]
            except KeyError as exc:
                raise ParseError(str(exc), tok[2], tok[3]) from None
            return fn_symbol(chart, name, deps)
        if kind == "eof":
            raise ParseError("unexpected end of input", tok[2], tok[3])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
