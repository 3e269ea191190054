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
import re
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
    "ZeroCertainty",
    "ZeroTester",
    "darboux_contact",
    "darboux_symplectic",
    "exp",
    "fn_symbol",
    "format_expr",
    "is_zero",
    "lcs_local",
    "param",
    "parse_scalar",
    "parse_tokens",
    "rational",
    "simplify",
    "weakest",
]

NODE_BUDGET = 10**6

RatLike = Union[int, Fraction]


class ChartMismatch(ValueError):
    """Operands live on different charts."""


class BudgetError(RuntimeError):
    """A canonical form exceeded the node budget."""


class DomainError(ZeroDivisionError):
    """Inversion of an expression that is structurally zero."""


class SubstitutionError(ValueError):
    """A coordinate substitution hit an abstract-function dependency."""


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
    ``dim`` and the zero Expr are set once per chart, outside the fields, so
    equal charts stay equal; an empty result of Expr arithmetic, ``diff``,
    ``subst``, ``on_chart``, ``rational`` or ``geometry.dot`` is that zero.
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
        object.__setattr__(self, "dim", len(self.coords))
        object.__setattr__(self, "_zero", Expr(self, ()))
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
        return self._zero

    def one(self) -> "Expr":
        return Expr(self, _T_ONE)

    def const(self, value: RatLike) -> "Expr":
        return rational(self, value)

    def extended(self) -> "Chart":
        """This chart times R: one appended coordinate named ``t``, or ``t1``,
        ``t2``, ... when that name is taken.  Poissonization and the lift of
        extended operators live on it."""
        extra, k = "t", 0
        while extra in self.coords:
            k += 1
            extra = f"t{k}"
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
#        canonical order: by rank, then index, name or key.  (_V, i) is a
#        label of a torsion table's shape (`_relabel`); no Expr holds one.
# mono:  tuple of (atom, exp), sorted; exps nonzero; at most one _E atom and
#        its exp is 1; _W exps are negative.  _E and _W rank last, so only
#        the last atom of a mono can be one.
# terms: tuple of (mono, coeff), sorted; coeffs nonzero, an int when
#        integral and a Fraction otherwise.  Every coefficient division and
#        negative power goes through _div (``int / int`` is a float).

_V, _C, _P, _F, _E, _W = range(-1, 5)

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
        if not isinstance(c, (int, Fraction)):  # a float would store its binary fraction
            raise TypeError(f"exact constant must be int or Fraction, not {type(c).__name__}")
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


def _budget_check(t, nodes=_node_count):
    # cheap guard first: only count nodes when the term count already hints
    # at trouble relative to the active budget
    if len(t) > NODE_BUDGET // 256 and nodes(t) > NODE_BUDGET:
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


def _t_dot(pairs, acc=None) -> tuple:
    """sum of t1 * t2 over the (t1, t2) pairs, canonicalised once.

    Every monomial product goes into one dict, which is frozen and
    budget-checked once; products whose _W exponents turn nonnegative are
    expanded after the loop.  A pair with an empty factor adds nothing, and
    with no product at all the sum is () unfrozen.  ``acc``, when given,
    holds canonical monomials already summed, to which the products add.
    """
    acc = {} if acc is None else acc
    get = acc.get
    pending = []
    for t1, t2 in pairs:
        if not t2:
            continue
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
    return _budget_check(_freeze(acc)) if acc else ()


def _t_mul(t1, t2) -> tuple:
    if not t1 or not t2:
        return ()
    return _t_dot(((t1, t2),))


class _PackedRing:
    """Polynomials in the top-level atoms of some canonical terms, each
    monomial packed into one int, so a monomial product is one integer
    addition (Kronecker substitution; M. Monagan and R. Pearce, CASC 2007).

    Atom number i, in canonical atom order, owns the signed (balanced) digit
    of bits [i w, (i + 1) w).  A product of at most `factors` input
    monomials cannot overflow a digit: w is sized for `factors` times the
    largest |exponent| of the inputs.  A polynomial is a dict {code: coeff}.
    _E and _W atoms are opaque variables: _W exponents are negative and stay
    so under products, so no expansion is ever pending, and exp(u) exp(v) is
    merged into exp(u + v) only when a monomial is decoded.  The ring lives
    for one computation; it is set up from every input it will multiply.
    Its operations are `pack`, `neg` and `dot`, and `terms` decodes.
    """

    __slots__ = ("atoms", "shift", "width", "mask", "half")

    def __init__(self, ts: Iterable[tuple], factors: int):
        atoms: set = set()
        top = 0
        for t in ts:
            for m, _c in t:
                for a, e in m:
                    atoms.add(a)
                    top = max(top, abs(e))
        self.atoms = sorted(atoms)
        self.width = w = (factors * top).bit_length() + 1
        self.shift = {a: i * w for i, a in enumerate(self.atoms)}
        self.mask = (1 << w) - 1
        self.half = 1 << (w - 1)

    def pack(self, t) -> dict:
        shift = self.shift
        return {sum(e << shift[a] for a, e in m): c for m, c in t}

    def neg(self, p: dict) -> dict:
        return {m: -c for m, c in p.items()}

    def dot(self, pairs: list) -> dict:
        """sum of x * y over the (x, y) pairs, as `_t_dot`: one monomial
        product per term of x and term of y.  BudgetError when its canonical
        form would exceed NODE_BUDGET, with `_budget_check`'s term-count
        guard first (a decoded form has no more terms than the packed one)."""
        acc: dict = {}
        get = acc.get
        for x, y in pairs:
            y = y.items()
            for m1, c1 in x.items():
                for m2, c2 in y:
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
        acc = {m: c for m, c in acc.items() if c}
        if len(acc) > NODE_BUDGET // 256:
            if any(a[0] == _E for a in self.atoms):
                self.terms(acc)  # exp products may merge monomials: count the decoded form
            else:
                _budget_check(acc, self._nodes)
        return acc

    def terms(self, p: dict) -> tuple:
        """p as canonical terms, budget-checked."""
        acc: dict = {}
        get = acc.get
        for code, c in p.items():
            m = self._mono(code)
            acc[m] = get(m, 0) + c
        return _budget_check(_freeze(acc))

    def _nodes(self, p: dict) -> int:
        """The node count of p's canonical form, read from the codes: one per
        term, and per nonzero digit one for the atom plus, for a _W atom, the
        nodes of its base.  Exact when the ring holds no _E atom: then no two
        codes decode to one monomial."""
        w, mask, half = self.width, self.mask, self.half
        weights = [1 + _node_count(a[2]) if a[0] == _W else 1 for a in self.atoms]
        n = len(p)
        for code in p:
            for weight in weights:
                if not code:
                    break
                if code & mask:
                    n += weight
                # the next balanced digit: borrow one when this digit is negative
                code = (code + half) >> w
        return n

    def _mono(self, code: int) -> tuple:
        """The canonical monomial of a code: digits come out in atom order,
        and _E atoms beyond a single exp(u) merge as in `_mono_mul`."""
        w, mask, half = self.width, self.mask, self.half
        out = []
        exps = 0
        for a in self.atoms:
            if not code:
                break
            e = code & mask
            if e >= half:
                e -= mask + 1
            if e:
                out.append((a, e))
                code -= e
                if a[0] == _E:
                    exps += e
            code >>= w
        if exps <= 1:
            return tuple(out)
        # exp(u)^k as k factors exp(u), merged by the kernel's product
        rest = tuple(f for f in out if f[0][0] != _E)
        return _mono_mul_general(rest, tuple((a, 1) for a, e in out if a[0] == _E for _ in range(e)))[0]


def _relabel(ts) -> tuple:
    """The pattern of the canonical terms ts, and its label table: each
    input of more than one term is one free variable, shared by inputs equal
    up to sign; every variable and every atom of a monomial input is then
    relabelled (_V, i) by first occurrence in ts, each relabelled monomial
    re-sorted.  The table maps each atom, and each multi-term input with a
    positive leading coefficient, to its label; sending each label back is a
    ring homomorphism that commutes with `pack` (torsion module docstring)."""
    labels: dict = {}
    out = []
    for t in ts:
        if len(t) > 1:
            up = t[0][1] > 0
            v = labels.setdefault(t if up else _t_neg(t), (_V, len(labels)))
            out.append(((((v, 1),), 1 if up else -1),))
        else:
            out.append(tuple((tuple(sorted((labels.setdefault(a, (_V, len(labels))), e) for a, e in m)), c)
                             for m, c in t))
    return tuple(out), labels


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


def _t_grad(t, coords: Sequence[int]) -> list:
    """The partials of t by the distinct coordinates in coords, from one
    pass over t: the one differentiation routine.  A coordinate or
    abstract-function atom adds its partial monomials straight into the sum
    of each coordinate it depends on; an exp or inverse-power atom takes the
    gradient of its base once, and d(exp u) = exp(u) du and
    d(B^e) = e B^(e-1) dB go through `_t_dot`'s pending expansion.  Each
    partial is one `_t_dot`, so it is budget-checked as one."""
    at = dict(zip(coords, range(len(coords))))
    accs = [{} for _ in coords]
    pairs = [[] for _ in coords]
    bases: dict = {}  # the gradient of each exp or inverse-power atom's base
    for m, c in t:
        for pos, (a, e) in enumerate(m):
            tag = a[0]
            if tag == _P or (tag == _C and a[1] not in at):
                continue
            # d(exp u) keeps the atom; any other factor's exponent drops by one
            rest = (m if tag == _E else m[:pos] + m[pos + 1:] if e == 1
                    else m[:pos] + ((a, e - 1),) + m[pos + 1:])
            if tag == _C:
                acc = accs[at[a[1]]]
                acc[rest] = acc.get(rest, 0) + c * e
            elif tag == _F:
                for x in a[2]:
                    if (k := at.get(x)) is not None:
                        mono = _mono_mul(rest, (((_F, a[1], a[2], tuple(sorted(a[3] + (x,)))), 1),))[0]
                        acc = accs[k]
                        acc[mono] = acc.get(mono, 0) + c * e
            else:
                if (grad := bases.get(a)) is None:
                    grad = bases[a] = _t_grad(a[2], coords)
                for k, d in enumerate(grad):
                    if d:
                        pairs[k].append((((rest, c * e),), d))
    return [_t_dot(p, acc) for p, acc in zip(pairs, accs)]


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

    def __init__(self, chart: Chart, terms: tuple, _set_chart=None, _set_terms=None):
        # the slots' own descriptors, bound once below the class: an
        # assignment would meet __setattr__
        _set_chart(self, chart)
        _set_terms(self, terms)

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    __delattr__ = __setattr__

    # -- housekeeping

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.chart is not self.chart and other.chart != self.chart:
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
        # a constant hashes as its value, since it equals that int or Fraction
        t = self.terms
        if not t:
            return 0
        if len(t) == 1 and not t[0][0]:
            return hash(t[0][1])
        return hash((self.chart.name, t))

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        t = _t_add(self.terms, o.terms)
        return Expr(self.chart, t) if t else self.chart._zero

    __radd__ = __add__

    def __neg__(self):
        t = self.terms
        return Expr(self.chart, _t_neg(t)) if t else self.chart._zero

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        t = _t_add(self.terms, _t_neg(o.terms))
        return Expr(self.chart, t) if t else self.chart._zero

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        t = _t_mul(self.terms, o.terms)
        return Expr(self.chart, t) if t else self.chart._zero

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

    def as_rational(self) -> Optional[Fraction]:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return Fraction(self.terms[0][1])
        return None

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

    # -- calculus

    def diff(self, which: Union[int, str]) -> "Expr":
        i = which if isinstance(which, int) else self.chart.index(which)
        if not 0 <= i < self.chart.dim:
            raise IndexError(f"coordinate index {i} out of range")
        t = _t_grad(self.terms, (i,))[0]
        return Expr(self.chart, t) if t else self.chart._zero

    def subst(self, mapping: Mapping[Union[int, str], "Expr"]) -> "Expr":
        m = {}
        for k, v in mapping.items():
            i = k if isinstance(k, int) else self.chart.index(k)
            m[i] = v.terms if isinstance(v, Expr) else _t_const(v)
        t = _t_subst(self.terms, m)
        return Expr(self.chart, t) if t else self.chart._zero

    def on_chart(self, chart: Chart) -> "Expr":
        """Reinterpret on a chart whose coordinates extend this one's."""
        if chart.coords[: self.chart.dim] != self.chart.coords:
            raise ChartMismatch("target chart does not extend source chart")
        return Expr(chart, self.terms) if self.terms else chart._zero

    def __repr__(self):
        return f"<{format_expr(self)}>"

    def __str__(self):
        return format_expr(self)


Expr.__init__.__defaults__ = (Expr.chart.__set__, Expr.terms.__set__)


def rational(chart: Chart, value: RatLike) -> Expr:
    t = _t_const(value)
    return Expr(chart, t) if t else chart._zero


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
    all of them); partial derivatives in other directions vanish.  Argument
    order is immaterial, so f(p, q) is f(q, p); a coordinate named twice is
    refused, since f(q, q) would be a second symbol beside f(q).
    """
    if deps is None:
        dep_idx = tuple(range(chart.dim))
    else:
        dep_idx = tuple(sorted(d if isinstance(d, int) else chart.index(d) for d in deps))
        if len(set(dep_idx)) < len(dep_idx):
            raise ValueError(f"abstract function {name} names a coordinate twice")
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
    rational evaluation.  `is_zero` never gives ``probably_zero``; only a
    tester that the caller supplies can.
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
        return self.tag == "proven_nonzero"

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


def _sample_fractions(seed: int, atoms, k: int):
    """Yield up to k assignments atom -> Fraction, the origin first; the
    random.Random(seed) of the others is made only when they are asked for."""
    if k < 1:
        return
    atoms = sorted(atoms)
    yield {a: Fraction(0) for a in atoms}
    rng = random.Random(seed)
    for _ in range(k - 1):
        yield {a: Fraction(rng.randint(-20, 20), 7) for a in atoms}


def _eval(t, assign):
    """The exact value of t at an exp-free assign of Fractions;
    ZeroDivisionError at a pole."""
    total = 0
    for m, c in t:
        val = c
        for a, e in m:
            v = assign[a] if a[0] < _E else _eval(a[2], assign)  # a _W base
            val *= v if e == 1 else v**e
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


def is_zero(e: Expr, seed: int = 0, samples: int = 16) -> ZeroCertainty:
    """Decide whether e vanishes identically, by exact reasoning only.

    Exact canonicalisation (after clearing inverse-power denominators)
    settles the rational fragment; a nonzero exponential-free form is then
    certified nonzero by exact rational evaluation at seeded sample points.
    An exponential residual is split into exp-argument groups, each decided
    as exponential-free; what stays undecided is ``unknown``.
    """
    t = e.terms
    if not t:
        return PROVEN_ZERO
    t = _clear_denominators(t)
    if not t:
        return PROVEN_ZERO
    chart = e.chart
    if not _has_exp(t):
        for assign in _sample_fractions(seed, _iter_atoms(t), samples):
            try:
                val = _eval(t, assign)
            except ZeroDivisionError:  # a pole of an inverse power
                continue
            if val:
                return ZeroCertainty(
                    "proven_nonzero",
                    witness={_format_atom(chart, a): v for a, v in assign.items()},
                )
        return ZeroCertainty("unknown", note="no nonzero sample found")
    # exponential case: split into exp-argument groups; if some group's
    # polynomial part is provably nonzero, the whole sum cannot vanish
    # (distinct canonical exp arguments are multiplicatively independent
    # over the rational-coefficient polynomial ring); if every group
    # vanishes, so does every coefficient and the sum.
    groups = _exp_groups(t)
    if any(_has_exp(g) for g in groups):
        # an exp inside an inverse power that clearing left; a group without
        # a top-level exp atom would recur on itself
        return ZeroCertainty("unknown", note="exponential inside an uncleared inverse power")
    certs = []
    for g in groups:
        sub = is_zero(Expr(chart, _t_add(g)), seed=seed, samples=samples)
        if sub.tag == "proven_nonzero":
            return ZeroCertainty("proven_nonzero", witness=sub.witness,
                                 note="nonvanishing exponential group")
        certs.append(sub)
    return weakest(certs)


def _iter_atoms(t):
    out: set = set()
    _collect_atoms(t, out)
    return out


@dataclass(frozen=True)
class ZeroTester:
    """A seeded zero test; every probabilistic check threads one of these.
    ``tol`` is recorded in each report's meta; no zero test reads it."""

    seed: int = 0
    samples: int = 16
    tol: float = 1e-9

    def __call__(self, e: Expr) -> ZeroCertainty:
        return is_zero(e, seed=self.seed, samples=self.samples)


# ---------------------------------------------------------------------------
# Expression text parser (infix +, -, *, /, /\, ^, exp(...), f(x1,...,xn),
# tuples and lists)


# One match per token: the blanks before it, then an int (decimal digits),
# an identifier, an operator ('=' is one for the statements of the model
# language), or any other character, which is unexpected.  An identifier's
# first character must be a letter or '_', which [^\W\d] alone would not
# ensure (it also takes '²' or '½'); _Lexer checks it.
_TOKEN = re.compile(r"([ \t\r\n]*)(?:(\d+)|([^\W\d]\w*)|(/\\|[-+*/^(),\[\]=])|([^ \t\r\n]))")


class _Lexer:
    """The tokens of a text, (kind, value, line, col) each and an eof token
    last; ``line`` numbers the text's first line."""

    def __init__(self, text: str, line: int = 1):
        self.tokens = tokens = []
        col, tail = 1, text[len(text.rstrip(" \t\r\n")):]  # tail: the blanks after the last token
        for blanks, num, ident, op, other in _TOKEN.findall(text) + [(tail, "", "", "", "")]:
            if "\n" in blanks:
                line += blanks.count("\n")
                col = len(blanks) - blanks.rfind("\n")
            else:
                col += len(blanks)
            if op:
                tokens.append((op, op, line, col))
            elif ident and (ident[0].isalpha() or ident[0] == "_"):
                tokens.append(("ident", ident, line, col))
            elif num:
                tokens.append(("int", int(num), line, col))
            elif other or ident:
                raise ParseError(f"unexpected character {(other or ident)[0]!r}", line, col)
            col += len(op or ident or num)
        tokens.append(("eof", None, line, col))


def parse_scalar(
    text: str,
    chart: Chart,
    names: Optional[Mapping[str, Expr]] = None,
) -> Expr:
    """Parse the scalar expression syntax.

    Bare identifiers resolve to chart coordinates, then to ``names`` entries,
    then to parameters; ``f(x1,...,xn)`` builds an abstract function symbol
    depending on the listed coordinates.  A value that is not a scalar is
    reported at the expression's first token.
    """
    tokens = _Lexer(text).tokens
    value = _Parser(tokens, 0, chart, lambda name, col: (names or {}).get(name), None).parse()
    return _scalar(value, tokens[0][2], tokens[0][3])


def parse_tokens(tokens: list, i: int, chart: Chart, hook):
    """Parse ``tokens[i:]`` (tokens of _Lexer, closed by an eof token) in the
    expression syntax of parse_scalar extended by ``/\\``, tuples
    ``(a, b, ...)`` and lists ``[a, b, ...]`` (a matrix is a list of lists);
    the value of a tuple is a Python tuple and of a list a list.

    ``hook`` gives meaning to everything that is not a scalar:
    ``hook.name(name, col)`` resolves a bare identifier at column ``col``
    that is not a coordinate (``None`` makes it a parameter), ``hook.d(f)``
    is ``d(<scalar>)``, and ``hook.scale(v, f, col)``, ``hook.add(a, b, col)``
    and ``hook.wedge(a, b, col)`` are ``v * f``, ``a + b`` and ``a /\\ b``
    when an operand is not a scalar, with ``col`` the column of the operator
    token.  ``*`` between two such operands is a ParseError.  A tuple or list
    keeps the column of each item's first token in ``cols``.
    """
    return _Parser(tokens, i, chart, hook.name, hook).parse()


class _Tuple(tuple):
    """A parsed tuple; ``cols`` holds the column of each item."""


class _List(list):
    """A parsed list; ``cols`` holds the column of each item."""


def _scalar(value, line: int, col: int) -> Expr:
    if not isinstance(value, Expr):
        raise ParseError("expected a scalar expression", line, col)
    return value


def _own_name(name: str, tok):
    """Refuse a parameter or abstract-function name that begins with '_':
    such names stay reserved for the verifier's own symbols (the module
    coefficient of an algebra check is one), and a model that wrote one
    would share it."""
    if name.startswith("_"):
        raise ParseError(f"name {name!r} begins with '_', which is kept for the verifier's own symbols",
                         tok[2], tok[3])


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

    def __init__(self, tokens: list, i: int, chart: Chart, lookup, hook):
        self.tokens, self.i, self.chart, self.lookup, self.hook = tokens, i, chart, lookup, hook

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self):
        value = self._sum()
        tok = self.tokens[self.i]
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
        return self._hook(tok).scale(value, rational(self.chart, -1), tok[3])

    def _sum(self):
        value = self._product()
        while (tok := self.tokens[self.i])[0] in ("+", "-"):
            self.i += 1
            rhs = self._product()
            if tok[0] == "-":
                rhs = self._neg(rhs, tok)
            if isinstance(value, Expr) and isinstance(rhs, Expr):
                value = value + rhs
            else:
                value = self._hook(tok).add(value, rhs, tok[3])
        return value

    def _product(self):
        value = self._unary()
        while (tok := self.tokens[self.i])[0] in ("*", "/", "/\\"):
            self.i += 1
            op, col = tok[0], tok[3]
            rhs = self._unary()
            if op == "/\\":
                value = self._hook(tok).wedge(value, rhs, col)
            elif op == "/":
                rhs = _scalar(rhs, tok[2], col)
                value = value / rhs if isinstance(value, Expr) else self._hook(tok).scale(value, rhs**-1, col)
            elif isinstance(rhs, Expr):
                value = value * rhs if isinstance(value, Expr) else self._hook(tok).scale(value, rhs, col)
            elif isinstance(value, Expr):
                value = self._hook(tok).scale(rhs, value, col)
            else:
                raise ParseError("'*' needs a scalar operand; use /\\ between graded ones",
                                 tok[2], col)
        return value

    def _unary(self):
        tok = self.tokens[self.i]
        if tok[0] == "-":
            self.next()
            return self._neg(self._unary(), tok)
        if tok[0] == "+":
            self.next()
            return self._unary()
        return self._power()

    def _power(self):
        base = self._primary()
        tok = self.tokens[self.i]
        if tok[0] != "^":
            return base
        base = _scalar(base, tok[2], tok[3])
        self.next()
        # exponent: optionally signed integer, possibly parenthesised
        neg = False
        tok = self.tokens[self.i]
        parens = tok[0] == "("
        if parens:
            self.next()
            tok = self.tokens[self.i]
        if tok[0] == "-":
            self.next()
            neg = True
        tok = self.expect("int")
        if parens:
            self.expect(")")
        return base ** (-tok[1] if neg else tok[1])

    def _items(self, close: str, seq: type):
        """The items up to `close` as a `seq`, whose ``cols`` holds the
        column of each item's first token."""
        cols = [self.tokens[self.i][3]]
        items = [self._sum()]
        while self.tokens[self.i][0] == ",":
            self.next()
            cols.append(self.tokens[self.i][3])
            items.append(self._sum())
        self.expect(close)
        items = seq(items)
        items.cols = cols
        return items

    def _primary(self):
        chart = self.chart
        tok = self.next()
        kind = tok[0]
        if kind == "int":
            return rational(chart, tok[1])
        if kind == "(":
            items = self._items(")", _Tuple)
            return items[0] if len(items) == 1 else items
        if kind == "[":
            return self._items("]", _List)
        if kind == "ident":
            name = tok[1]
            if self.tokens[self.i][0] != "(":
                if name in chart.coords:
                    return chart.coord(name)
                if (value := self.lookup(name, tok[3])) is not None:
                    return value
                _own_name(name, tok)
                return param(chart, name)
            if name == "exp" or (name == "d" and self.hook is not None):
                self.next()
                arg = _scalar(self._sum(), tok[2], tok[3])
                self.expect(")")
                return exp(arg) if name == "exp" else self.hook.d(arg)
            _own_name(name, tok)
            self.next()
            args = []
            if self.tokens[self.i][0] != ")":
                while True:
                    a = self.next()
                    if a[0] != "ident":
                        raise ParseError("abstract function arguments must be coordinates", a[2], a[3])
                    args.append(a[1])
                    if self.tokens[self.i][0] == ",":
                        self.next()
                        continue
                    break
            self.expect(")")
            try:
                return fn_symbol(chart, name, [chart.index(a) for a in args])
            except (KeyError, ValueError) as exc:
                raise ParseError(str(exc), tok[2], tok[3]) from None
        if kind == "eof":
            raise ParseError("unexpected end of input", tok[2], tok[3])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
