"""Chart-local tensor fields and the differential calculus on them.

Vector fields, antisymmetric k-forms and k-vectors (sorted-tuple component
storage, so antisymmetry is structural), (1,1)-operator fields with the
(output, input) matrix convention, and the operations everything downstream
consumes: Lie bracket, exterior derivative, interior product, wedge products,
Schouten-Nijenhuis bracket, operator algebra, determinants and exact
inverses.  A bivector meets a 1-form in one place, its sharp map
`KVector.sharp`, through which its evaluation `pair` goes.

Operator compatibility with a structure has one form everywhere: K is
symmetric for the structure's bilinear data.  `compat_residuals` yields the
entries of A^T M - M A, with A = K for a 2-form matrix and A = K^T for a
bivector matrix; the Jacobi, contact and LCS layers use it.

The Schouten-Nijenhuis convention is the one under which the Darboux contact
pair satisfies [L, L] = 2 E ^ L exactly; the calibration test lives in the
test suite because sign conventions differ across sources.
"""

from __future__ import annotations


from typing import Callable, Iterable, Mapping, Sequence

from .checks import once
from .symexpr import _T_ONE, Chart, ChartMismatch, Expr, _t_dot, _t_grad, _t_neg, rational

__all__ = [
    "KForm",
    "KVector",
    "Operator11",
    "VectorField",
    "compat_residuals",
    "dot",
    "exterior_derivative",
    "interior_product",
    "lie_bracket",
    "op_apply",
    "op_compose",
    "op_transpose_apply",
    "schouten_bracket",
    "wedge",
    "wedge_v",
]


def _as_expr(chart: Chart, v) -> Expr:
    if isinstance(v, Expr):
        if v.chart is not chart and v.chart != chart:
            raise ChartMismatch(f"{v.chart.name} vs {chart.name}")
        return v
    return rational(chart, v)


def _same_chart(*objs):
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart is not chart and o.chart != chart:
            raise ChartMismatch(f"{chart.name} vs {o.chart.name}")
    return chart


def dot(chart: Chart, xs: Iterable[Expr], ys: Iterable[Expr]) -> Expr:
    """sum_i xs[i] * ys[i] on chart, canonicalised once.

    Every monomial product goes into one accumulator, so neither a product
    nor a long sum is re-sorted on its own; a pair with a zero operand is
    dropped, and the empty sum is chart.zero().  Every operand must live on
    chart.
    """
    pairs = []
    for x, y in zip(xs, ys, strict=True):
        for v in (x, y):
            if v.chart is not chart and v.chart != chart:
                raise ChartMismatch(f"{v.chart.name} vs {chart.name}")
        if x.terms and y.terms:
            pairs.append((x.terms, y.terms))
    t = _t_dot(pairs) if pairs else ()
    return Expr(chart, t) if t else chart.zero()


def _sort_signed(idx: Sequence[int]):
    """Sort an index tuple, counting transpositions; None if repeated."""
    if len(idx) == 2:
        a, b = idx
        return (1, (a, b)) if a < b else (-1, (b, a)) if a > b else (0, None)
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, None
    return sign, tuple(idx)


def _index_error(idx: tuple, degree: int) -> ValueError:
    """The error for a component index that is not strictly increasing of
    length degree, or that leaves the chart."""
    if len(idx) != degree or any(a >= b for a, b in zip(idx, idx[1:])):
        return ValueError(f"index tuple {idx} not strictly increasing of length {degree}")
    return ValueError(f"index out of range in {idx}")


class VectorField:
    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence):
        if len(components) != chart.dim:
            raise ValueError("component count must equal chart dimension")
        self.chart = chart
        self.components = tuple(_as_expr(chart, c) for c in components)

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart, [chart.zero()] * chart.dim)

    @classmethod
    def basis(cls, chart: Chart, i: int) -> "VectorField":
        comp = [chart.zero()] * chart.dim
        comp[i] = chart.one()
        return cls(chart, comp)

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.chart, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-a for a in self.components])

    def scale(self, f) -> "VectorField":
        f = _as_expr(self.chart, f)
        return VectorField(self.chart, [f * a for a in self.components])

    __mul__ = scale
    __rmul__ = scale

    def apply_to(self, f: Expr) -> Expr:
        """Directional derivative X(f), f's partials along X from one gradient."""
        live = [j for j, comp in enumerate(self.components) if comp.terms]
        grad = [Expr(f.chart, d) for d in _t_grad(f.terms, live)]
        return dot(self.chart, [self.components[j] for j in live], grad)

    def is_zero_field(self) -> bool:
        return all(c.is_zero_expr() for c in self.components)

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.chart == other.chart
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.chart, self.components))

    def __repr__(self):
        names = self.chart.coords
        parts = [f"({c})@d_{names[i]}" for i, c in enumerate(self.components) if not c.is_zero_expr()]
        return " + ".join(parts) if parts else "0"


class _Graded:
    """Shared storage for k-forms and k-vectors: sorted tuples -> Expr."""

    __slots__ = ("chart", "degree", "components")

    def __init__(self, chart: Chart, degree: int, components: Mapping[tuple, Expr]):
        if not 0 <= degree <= chart.dim:
            raise ValueError(f"degree {degree} out of range on {chart.name}")
        self.chart = chart
        self.degree = degree
        n = chart.dim
        comp = {}
        for idx, val in components.items():
            if type(idx) is not tuple:
                idx = tuple(idx)
            last = -1  # one pass: strictly increasing, from 0 and below n
            for a in idx:
                if a <= last:
                    raise _index_error(idx, degree)
                last = a
            if last >= n or len(idx) != degree:
                raise _index_error(idx, degree)
            if type(val) is not Expr or val.chart is not chart:
                val = _as_expr(chart, val)
            if val.terms:
                comp[idx] = val
        self.components = comp

    def __getitem__(self, idx) -> Expr:
        if type(idx) is tuple and (v := self.components.get(idx)) is not None:
            return v
        sign, key = _sort_signed(idx)
        if (v := self.components.get(key)) is None:
            return self.chart.zero()
        return v if sign == 1 else -v

    def items(self):
        return sorted(self.components.items())

    def is_zero(self) -> bool:
        return not self.components

    def full_matrix(self) -> list:
        """Full antisymmetric component matrix of a 2-form or bivector."""
        if self.degree != 2:
            raise ValueError("full_matrix() needs degree 2")
        n, zero = self.chart.dim, self.chart.zero()
        m = [[zero] * n for _ in range(n)]
        for (i, j), v in self.components.items():
            m[i][j], m[j][i] = v, -v
        return m

    def _binop(self, other, op):
        _same_chart(self, other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        keys = set(self.components) | set(other.components)
        return type(self)(
            self.chart, self.degree,
            {k: op(self[k], other[k]) for k in keys},
        )

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return type(self)(self.chart, self.degree, {k: -v for k, v in self.components.items()})

    def scale(self, f):
        f = _as_expr(self.chart, f)
        return type(self)(self.chart, self.degree, {k: f * v for k, v in self.components.items()})

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self):
        return hash((type(self), self.chart, self.degree, frozenset(self.components.items())))

    def __repr__(self):
        names = self.chart.coords
        mark = "d" if isinstance(self, KForm) else "@"
        parts = [
            f"({v}) {mark}[{','.join(names[i] for i in k)}]"
            for k, v in self.items()
        ]
        return " + ".join(parts) if parts else "0"


class KForm(_Graded):
    """Antisymmetric covariant tensor; only sorted index tuples are stored."""

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "KForm":
        return cls(chart, degree, {})

    @classmethod
    def d_coord(cls, chart: Chart, i: int) -> "KForm":
        return cls(chart, 1, {(i,): chart.one()})

    @classmethod
    def one_form(cls, chart: Chart, components: Sequence) -> "KForm":
        return cls(chart, 1, {(i,): c for i, c in enumerate(components)})

    def covector(self) -> tuple:
        if self.degree != 1:
            raise ValueError("covector() needs a 1-form")
        get, zero = self.components.get, self.chart.zero()
        return tuple(get((i,), zero) for i in range(self.chart.dim))


class KVector(_Graded):
    """Antisymmetric contravariant tensor; same storage as KForm."""

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "KVector":
        return cls(chart, degree, {})

    @classmethod
    def from_vector(cls, x: VectorField) -> "KVector":
        return cls(x.chart, 1, {(i,): c for i, c in enumerate(x.components)})

    def sharp(self, beta: KForm) -> VectorField:
        """The contraction of a bivector with a 1-form in its second slot,
        (sharp b)^i = sum_j L^ij b_j, so that a(sharp b) = L(a, b).  It runs
        over the stored components: L^ij b_j goes to output i and
        -L^ij b_i to output j, one dot per output index."""
        if self.degree != 2 or beta.degree != 1:
            raise ValueError("sharp() needs a bivector and a 1-form")
        chart = _same_chart(self, beta)
        b = beta.components
        acc = [[] for _ in range(chart.dim)]
        for (i, j), v in self.components.items():
            if (bj := b.get((j,))) is not None:
                acc[i].append((v.terms, bj.terms))
            if (bi := b.get((i,))) is not None:
                acc[j].append((_t_neg(v.terms), bi.terms))
        return VectorField(chart, _dotted(chart, acc))

    def pair(self, alpha: KForm, beta: KForm) -> Expr:
        """Evaluate a bivector on two 1-forms: L(a, b) = a(sharp b)."""
        if self.degree != 2 or alpha.degree != 1 or beta.degree != 1:
            raise ValueError("pair() needs a bivector and two 1-forms")
        _same_chart(self, alpha)
        x = self.sharp(beta)
        items = alpha.components.items()
        return dot(self.chart, [v for _, v in items], [x[i] for (i,), _ in items])


# ---------------------------------------------------------------------------
# Exterior calculus


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i): one dot per component, over the partials
    of one gradient of each of Y^i and X^i."""
    chart = _same_chart(x, y)
    xs = [j for j in range(chart.dim) if x[j].terms]
    ys = [j for j in range(chart.dim) if y[j].terms]
    coeffs = [x[j].terms for j in xs] + [_t_neg(y[j].terms) for j in ys]
    return VectorField(chart, _dotted(chart, [
        list(zip(coeffs, _t_grad(y[i].terms, xs) + _t_grad(x[i].terms, ys))) for i in range(chart.dim)]))


def exterior_derivative(omega: KForm) -> KForm:
    chart = omega.chart
    if omega.degree >= chart.dim:
        return KForm.zero(chart, min(omega.degree + 1, chart.dim))
    acc: dict = {}
    for idx, val in omega.components.items():
        # one gradient by the coordinates idx lacks; dx_i moves past pos indices
        free = [i for i in range(chart.dim) if i not in idx]
        for i, d in zip(free, _t_grad(val.terms, free)):
            if d:
                pos = sum(a < i for a in idx)
                acc.setdefault(idx[:pos] + (i,) + idx[pos:], []).append((_T_ONE, _t_neg(d) if pos % 2 else d))
    return KForm(chart, omega.degree + 1, _summed(chart, acc))


def interior_product(x: VectorField, omega: KForm) -> KForm:
    chart = _same_chart(x, omega)
    if omega.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    acc: dict = {}
    for idx, val in omega.components.items():
        for pos, i in enumerate(idx):
            if x[i].is_zero_expr():
                continue
            xi = x[i].terms
            acc.setdefault(idx[:pos] + idx[pos + 1 :], []).append(
                (xi if pos % 2 == 0 else _t_neg(xi), val.terms))
    return KForm(chart, omega.degree - 1, _summed(chart, acc))


def _summed(chart: Chart, acc: Mapping) -> dict:
    """index -> list of (t1, t2) term-tuple pairs, summed to index -> Expr
    with one _t_dot each."""
    return dict(zip(acc, _dotted(chart, acc.values())))


def _wedge_terms(a, b, acc: dict, sign: int = 1) -> dict:
    """Collect the term-tuple pairs of sign * (a ^ b) into acc, per sorted index."""
    for ia, va in a.components.items():
        for ib, vb in b.components.items():
            s, idx = _sort_signed(ia + ib)
            if idx is None:
                continue
            ta = va.terms
            acc.setdefault(idx, []).append((ta if s * sign == 1 else _t_neg(ta), vb.terms))
    return acc


def wedge(a: KForm, b: KForm) -> KForm:
    chart = _same_chart(a, b)
    deg = a.degree + b.degree
    if deg > chart.dim:
        return KForm.zero(chart, chart.dim)
    return KForm(chart, deg, _summed(chart, _wedge_terms(a, b, {})))


def wedge_v(a: KVector, b: KVector) -> KVector:
    chart = _same_chart(a, b)
    deg = a.degree + b.degree
    if deg > chart.dim:
        return KVector.zero(chart, chart.dim)
    return KVector(chart, deg, _summed(chart, _wedge_terms(a, b, {})))


def d_scalar(f: Expr) -> KForm:
    """df, taken once per run for equal f (`checks.once`); no caller changes
    the form it gets."""
    return once(_d_scalar, f)


def _d_scalar(f: Expr) -> KForm:
    """df, from one gradient of f."""
    return KForm.one_form(f.chart, [Expr(f.chart, d) for d in _t_grad(f.terms, range(f.chart.dim))])


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket.
#
# Multivectors are odd polynomials in frame generators; with left
# derivatives d/dxi_i the bracket is
#   [A, B] = sum_i dA/dxi_i ^ dB/dx_i + (-1)^deg(A) dA/dx_i ^ dB/dxi_i ,
# which extends the Lie bracket and reproduces the calibration identity
# [L, L] = 2 E ^ L on the Darboux contact pair.


def _xi_derivative(a: KVector, i: int) -> KVector:
    acc: dict = {}
    for idx, val in a.components.items():
        if i not in idx:
            continue
        pos = idx.index(i)
        rest = idx[:pos] + idx[pos + 1 :]
        acc[rest] = val if pos % 2 == 0 else -val
    return KVector(a.chart, a.degree - 1, acc)


def _x_derivatives(a: KVector) -> list:
    """dA/dx_i for each coordinate i, from one gradient per component."""
    chart = a.chart
    grads = {k: _t_grad(v.terms, range(chart.dim)) for k, v in a.components.items()}
    return [KVector(chart, a.degree, {k: Expr(chart, g[i]) for k, g in grads.items() if g[i]})
            for i in range(chart.dim)]


def schouten_bracket(a: KVector, b: KVector) -> KVector:
    """[A, B], with the x-derivatives of each argument taken once per
    bracket, and once for both when they are the same multivector."""
    chart = _same_chart(a, b)
    deg = a.degree + b.degree - 1
    if deg > chart.dim:
        return KVector.zero(chart, chart.dim)
    acc: dict = {}
    sign = -1 if a.degree % 2 else 1
    da = _x_derivatives(a)
    db = da if b == a else _x_derivatives(b)
    for i in range(chart.dim):
        _wedge_terms(_xi_derivative(a, i), db[i], acc)
        _wedge_terms(da[i], _xi_derivative(b, i), acc, sign)
    return KVector(chart, deg, _summed(chart, acc))


# ---------------------------------------------------------------------------
# Operator fields


class Operator11:
    """A (1,1)-tensor as a dim x dim Expr matrix, rows = output component."""

    __slots__ = ("chart", "matrix", "_hash")

    def __init__(self, chart: Chart, matrix: Sequence[Sequence]):
        if len(matrix) != chart.dim or any(len(r) != chart.dim for r in matrix):
            raise ValueError("operator matrix must be dim x dim")
        self.chart = chart
        self.matrix = tuple(tuple(_as_expr(chart, v) for v in row) for row in matrix)
        self._hash = None  # filled by the first __hash__: a memo key hashes it often

    @classmethod
    def identity(cls, chart: Chart) -> "Operator11":
        one, zero = chart.one(), chart.zero()
        return cls(chart, [[one if i == j else zero for j in range(chart.dim)] for i in range(chart.dim)])

    @classmethod
    def zero(cls, chart: Chart) -> "Operator11":
        z = chart.zero()
        return cls(chart, [[z] * chart.dim for _ in range(chart.dim)])

    @classmethod
    def diagonal(cls, chart: Chart, entries: Sequence) -> "Operator11":
        z = chart.zero()
        return cls(chart, [
            [_as_expr(chart, entries[i]) if i == j else z for j in range(chart.dim)]
            for i in range(chart.dim)
        ])

    def __add__(self, other: "Operator11") -> "Operator11":
        _same_chart(self, other)
        return Operator11(self.chart, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)
        ])

    def __sub__(self, other: "Operator11") -> "Operator11":
        _same_chart(self, other)
        return Operator11(self.chart, [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)
        ])

    def scale(self, f) -> "Operator11":
        f = _as_expr(self.chart, f)
        return Operator11(self.chart, [[f * v for v in row] for row in self.matrix])

    __mul__ = scale
    __rmul__ = scale

    def is_zero_op(self) -> bool:
        return all(v.is_zero_expr() for row in self.matrix for v in row)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Operator11)
            and self.chart == other.chart
            and self.matrix == other.matrix
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.chart, self.matrix))
        return self._hash

    def __repr__(self):
        rows = "; ".join("[" + ", ".join(str(v) for v in row) + "]" for row in self.matrix)
        return f"Op[{rows}]"


# Operator products contract only the pairs whose two factors are both
# nonzero: K's nonzero entries are indexed by row (F. G. Gustavson, ACM TOMS
# 4(3), 1978), each output entry is one _t_dot over its pairs, and an entry
# with no pair is zero without a dot.


def _rows(k: Operator11) -> list:
    """rows[r] = [(c, terms of K^r_c)] over the nonzero entries of row r."""
    return [[(c, e.terms) for c, e in enumerate(row) if e.terms] for row in k.matrix]


def _dotted(chart: Chart, acc: Iterable[list]) -> list:
    """One Expr per list of (t1, t2) pairs: one _t_dot each, or the chart's
    zero when the list or its sum is empty."""
    zero = chart.zero()
    return [Expr(chart, t) if pairs and (t := _t_dot(pairs)) else zero for pairs in acc]


def op_apply(k: Operator11, x: VectorField) -> VectorField:
    chart = _same_chart(k, x)
    xs = [v.terms for v in x.components]
    return VectorField(chart, _dotted(chart, [[(e.terms, t) for e, t in zip(row, xs) if e.terms and t]
                                              for row in k.matrix]))


def op_transpose_apply(k: Operator11, alpha: KForm) -> KForm:
    """K^T on a 1-form: (K^T a)_j = a(K d_j) = sum_r a_r K^r_j."""
    chart = _same_chart(k, alpha)
    acc = [[] for _ in range(chart.dim)]
    for co, row in zip(alpha.covector(), _rows(k)):
        if a := co.terms:
            for j, t in row:
                acc[j].append((a, t))
    return KForm.one_form(chart, _dotted(chart, acc))


def _products(chart: Chart, *halves: tuple) -> Operator11:
    """sum of L R over the (rows of L, rows of R) halves, one accumulation
    per entry: (L R)^i_j takes L^i_c R^c_j for each nonzero L^i_c and each
    nonzero R^c_j."""
    n = chart.dim
    out = []
    for i in range(n):
        acc = [[] for _ in range(n)]
        for left, right in halves:
            for c, t in left[i]:
                for j, u in right[c]:
                    acc[j].append((t, u))
        out.append(_dotted(chart, acc))
    return Operator11(chart, out)


def op_compose(k1: Operator11, k2: Operator11) -> Operator11:
    chart = _same_chart(k1, k2)
    return _products(chart, (_rows(k1), _rows(k2)))


def op_commutator(k1: Operator11, k2: Operator11) -> Operator11:
    """[K1, K2] = K1 K2 - K2 K1: each entry is one dot over the pairs of
    K1 K2 and the pairs of K2 K1 with the left factor negated, so the budget
    is checked on the commutator, not on either product; [K, K] = 0 is built
    without a product."""
    chart = _same_chart(k1, k2)
    if k2 == k1:
        return Operator11.zero(chart)
    r1, r2 = _rows(k1), _rows(k2)
    neg2 = [[(c, _t_neg(t)) for c, t in row] for row in r2]
    return _products(chart, (r1, r2), (neg2, r1))


# ---------------------------------------------------------------------------
# Operators against a structure's matrix


def compat_residuals(chart: Chart, a: Sequence[Sequence[Expr]], m: Sequence[Sequence[Expr]],
                     pairs: Iterable[tuple]):
    """Yield ((i, j), (A^T M - M A)[i][j]) for each pair (i, j) whose entry is
    not structurally zero.

    With A = K and M the matrix of a 2-form B, the entry is
    B(K e_i, e_j) - B(e_i, K e_j), so K is B-symmetric when all vanish; with
    A = K^T and M a bivector matrix it is (K M - M K^T)[i][j].  Each entry is
    one dot: A's column i and -M's row i against M's column j and A's
    column j.
    """
    a_cols, m_cols = list(zip(*a)), list(zip(*m))
    left = [col + tuple(-v for v in row) for col, row in zip(a_cols, m)]
    right = [m_col + a_col for m_col, a_col in zip(m_cols, a_cols)]
    for i, j in pairs:
        resid = dot(chart, left[i], right[j])
        if not resid.is_zero_expr():
            yield (i, j), resid


# ---------------------------------------------------------------------------
# Exact linear algebra (small dimensions)


def _minors(matrix: Sequence[Sequence[Expr]]) -> Callable[[tuple, tuple], Expr]:
    """minor(rows, cols): the determinant of matrix on those rows and
    columns (increasing tuples of equal length), expanded along the nonzero
    entries of its first column, so a zero entry builds no sub-minor.  Each
    (rows, cols) is computed once, so a determinant and the n^2 cofactors
    of an inverse share their sub-minors."""
    chart = matrix[0][0].chart
    cache: dict = {}

    def minor(rows: tuple, cols: tuple) -> Expr:
        if len(rows) < 2:
            return matrix[rows[0]][cols[0]] if rows else chart.one()
        key = (rows, cols)
        if (out := cache.get(key)) is None:
            c, rest = cols[0], cols[1:]
            live = [(pos, e) for pos, r in enumerate(rows) if (e := matrix[r][c]).terms]
            out = cache[key] = dot(
                chart,
                [e if pos % 2 == 0 else -e for pos, e in live],
                [minor(rows[:pos] + rows[pos + 1 :], rest) for pos, _ in live],
            )
        return out

    return minor


def det(matrix: Sequence[Sequence[Expr]]) -> Expr:
    full = tuple(range(len(matrix)))
    return _minors(matrix)(full, full)


def invert_matrix(matrix: Sequence[Sequence[Expr]]) -> list:
    n = len(matrix)
    minor = _minors(matrix)
    full = tuple(range(n))
    d = minor(full, full)
    if d.is_zero_expr():
        raise ValueError("singular matrix")
    inv_d = d**-1
    inv_d = (inv_d, -inv_d)  # by the cofactor's sign
    return [[minor(full[:j] + full[j + 1 :], full[:i] + full[i + 1 :]) * inv_d[(i + j) % 2]
             for j in range(n)] for i in range(n)]
