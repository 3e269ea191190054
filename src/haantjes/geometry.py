"""Chart-local tensor fields and the differential calculus on them.

Vector fields, antisymmetric k-forms and k-vectors (sorted-tuple component
storage, so antisymmetry is structural), (1,1)-operator fields with the
(output, input) matrix convention, and the operations everything downstream
consumes: Lie bracket, exterior derivative, interior product, wedge products,
Schouten-Nijenhuis bracket, Lie derivative, operator algebra, determinants
and exact inverses.

Operator compatibility with a structure has one form everywhere: K is
symmetric for the structure's bilinear data.  `compat_residuals` yields the
entries of A^T M - M A, with A = K for a 2-form matrix and A = K^T for a
bivector matrix; `raised` turns a 2-form and a sharp map into the bivector
Lambda(a, b) = B(sharp a, sharp b).  The Jacobi, contact and LCS layers use
both.

The Schouten-Nijenhuis convention is the one under which the Darboux contact
pair satisfies [L, L] = 2 E ^ L exactly; the calibration test lives in the
test suite because sign conventions differ across sources.
"""

from __future__ import annotations


from typing import Callable, Iterable, Mapping, Sequence

from .symexpr import Chart, ChartMismatch, Expr, _diff_pairs, _t_dot, _t_neg, rational

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
    "lie_derivative",
    "op_apply",
    "op_compose",
    "op_transpose_apply",
    "raised",
    "schouten_bracket",
    "wedge",
    "wedge_v",
]


def _as_expr(chart: Chart, v) -> Expr:
    if isinstance(v, Expr):
        if v.chart != chart:
            raise ChartMismatch(f"{v.chart.name} vs {chart.name}")
        return v
    return rational(chart, v)


def _same_chart(*objs):
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart != chart:
            raise ChartMismatch(f"{chart.name} vs {o.chart.name}")
    return chart


def dot(chart: Chart, xs: Iterable[Expr], ys: Iterable[Expr]) -> Expr:
    """sum_i xs[i] * ys[i] on chart, canonicalised once.

    Every monomial product goes into one accumulator, so neither a product
    nor a long sum is re-sorted on its own; the empty sum is chart.zero().
    Every operand must live on chart.
    """
    pairs = []
    for x, y in zip(xs, ys, strict=True):
        for v in (x, y):
            if v.chart is not chart and v.chart != chart:
                raise ChartMismatch(f"{v.chart.name} vs {chart.name}")
        pairs.append((x.terms, y.terms))
    return Expr(chart, _t_dot(pairs))


def _haantjes_table(chart: Chart, cols: Sequence, tau: Mapping, width: int) -> dict:
    """Components of the Haantjes torsion H(e_i, e_j), i < j, on a frame e.

    cols[j] holds the frame components of K e_j, and tau maps a < b to those
    of the Nijenhuis torsion tau(e_a, e_b); an absent entry is zero.  With
    s(X, Y) = K tau(X, Y) - tau(X, KY), the torsion is
    H(X, Y) = K s(X, Y) - s(KX, Y), i.e. (K_out - K_slot1)(K_out - K_slot2)
    applied to tau.  Every component of s and of H is one dot; s(e_a, e_0) is
    never read, so it is not built.
    """
    zero = (chart.zero(),) * width
    t = [[zero] * width for _ in range(width)]
    for (a, b), comps in tau.items():
        t[a][b] = comps
        t[b][a] = [-c for c in comps]
    rows = [[col[r] for col in cols] for r in range(width)]
    neg = [[-c for c in col] for col in cols]
    s = {(a, j): [dot(chart, rows[r] + neg[j], [*t[a][j], *(tb[r] for tb in t[a])])
                  for r in range(width)]
         for j in range(1, width) for a in range(width)}
    return {(i, j): [dot(chart, rows[r] + neg[i], [*s[(i, j)], *(s[(a, j)][r] for a in range(width))])
                     for r in range(width)]
            for i in range(width) for j in range(i + 1, width)}


def _merge_sorted(tup: tuple, i: int):
    """Insert index i into a strictly increasing tuple.

    Returns (position, new_tuple) or None when i already occurs.
    """
    if i in tup:
        return None
    pos = 0
    while pos < len(tup) and tup[pos] < i:
        pos += 1
    return pos, tup[:pos] + (i,) + tup[pos:]


def _sort_signed(idx: Sequence[int]):
    """Sort an index tuple, counting transpositions; None if repeated."""
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
        """Directional derivative X(f)."""
        live = [j for j, comp in enumerate(self.components) if not comp.is_zero_expr()]
        return dot(self.chart, [self.components[j] for j in live], [f.diff(j) for j in live])

    def is_zero_field(self) -> bool:
        return all(c.is_zero_expr() for c in self.components)

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.chart == other.chart
            and self.components == other.components
        )

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
        comp = {}
        for idx, val in components.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != degree:
                raise ValueError(f"index tuple {idx} not strictly increasing of length {degree}")
            if any(not 0 <= i < chart.dim for i in idx):
                raise ValueError(f"index out of range in {idx}")
            val = _as_expr(chart, val)
            if not val.is_zero_expr():
                comp[idx] = val
        self.components = comp

    def __getitem__(self, idx) -> Expr:
        sign, key = _sort_signed(tuple(idx))
        if key is None or key not in self.components:
            return self.chart.zero()
        v = self.components[key]
        return v if sign == 1 else -v

    def items(self):
        return sorted(self.components.items())

    def is_zero(self) -> bool:
        return not self.components

    def full_matrix(self) -> list:
        """Full antisymmetric component matrix of a 2-form or bivector."""
        if self.degree != 2:
            raise ValueError("full_matrix() needs degree 2")
        n = self.chart.dim
        return [[self[(i, j)] for j in range(n)] for i in range(n)]

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

    def map(self, fn: Callable[[Expr], Expr]):
        return type(self)(self.chart, self.degree, {k: fn(v) for k, v in self.components.items()})

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
    def from_scalar(cls, f: Expr) -> "KForm":
        return cls(f.chart, 0, {(): f})

    @classmethod
    def d_coord(cls, chart: Chart, i: int) -> "KForm":
        return cls(chart, 1, {(i,): chart.one()})

    @classmethod
    def one_form(cls, chart: Chart, components: Sequence) -> "KForm":
        return cls(chart, 1, {(i,): c for i, c in enumerate(components)})

    def covector(self) -> tuple:
        if self.degree != 1:
            raise ValueError("covector() needs a 1-form")
        return tuple(self[(i,)] for i in range(self.chart.dim))

    def apply(self, *fields: VectorField) -> Expr:
        if len(fields) != self.degree:
            raise ValueError("arity mismatch")
        for x in fields:
            _same_chart(self, x)
        if self.degree == 0:
            return self.components.get((), self.chart.zero())
        items = self.components.items()
        return dot(self.chart, [val for _, val in items], [
            det([[fields[r][i] for i in idx] for r in range(self.degree)]) for idx, _ in items
        ])


class KVector(_Graded):
    """Antisymmetric contravariant tensor; same storage as KForm."""

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "KVector":
        return cls(chart, degree, {})

    @classmethod
    def from_vector(cls, x: VectorField) -> "KVector":
        return cls(x.chart, 1, {(i,): c for i, c in enumerate(x.components)})

    def vector_field(self) -> VectorField:
        if self.degree != 1:
            raise ValueError("vector_field() needs a 1-vector")
        return VectorField(self.chart, [self[(i,)] for i in range(self.chart.dim)])

    def pair(self, alpha: KForm, beta: KForm) -> Expr:
        """Evaluate a bivector on two 1-forms."""
        if self.degree != 2 or alpha.degree != 1 or beta.degree != 1:
            raise ValueError("pair() needs a bivector and two 1-forms")
        _same_chart(self, alpha, beta)
        items = self.components.items()
        return dot(self.chart, [v for _, v in items], [
            alpha[(i,)] * beta[(j,)] - alpha[(j,)] * beta[(i,)] for (i, j), _ in items
        ])


# ---------------------------------------------------------------------------
# Exterior calculus


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    chart = _same_chart(x, y)
    xs = [j for j in range(chart.dim) if not x[j].is_zero_expr()]
    ys = [j for j in range(chart.dim) if not y[j].is_zero_expr()]
    coeffs = [x[j] for j in xs] + [-y[j] for j in ys]
    return VectorField(chart, [
        dot(chart, coeffs, [y[i].diff(j) for j in xs] + [x[i].diff(j) for j in ys])
        for i in range(chart.dim)
    ])


def exterior_derivative(omega: KForm) -> KForm:
    chart = omega.chart
    if omega.degree >= chart.dim:
        return KForm.zero(chart, min(omega.degree + 1, chart.dim))
    acc: dict = {}
    for idx, val in omega.components.items():
        for i in range(chart.dim):
            ins = _merge_sorted(idx, i)
            if ins is None:
                continue
            pos, new_idx = ins
            pairs = _diff_pairs(val.terms, i)
            if pos % 2:
                pairs = [(_t_neg(a), b) for a, b in pairs]
            if pairs:
                acc.setdefault(new_idx, []).extend(pairs)
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
    return {idx: Expr(chart, _t_dot(pairs)) for idx, pairs in acc.items()}


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
    chart = f.chart
    return KForm(chart, 1, {(i,): f.diff(i) for i in range(chart.dim)})


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


def _x_derivative(a: KVector, i: int) -> KVector:
    return KVector(a.chart, a.degree, {k: v.diff(i) for k, v in a.components.items()})


def schouten_bracket(a: KVector, b: KVector) -> KVector:
    chart = _same_chart(a, b)
    deg = a.degree + b.degree - 1
    if deg > chart.dim:
        return KVector.zero(chart, chart.dim)
    acc: dict = {}
    sign = -1 if a.degree % 2 else 1
    for i in range(chart.dim):
        _wedge_terms(_xi_derivative(a, i), _x_derivative(b, i), acc)
        _wedge_terms(_x_derivative(a, i), _xi_derivative(b, i), acc, sign)
    return KVector(chart, deg, _summed(chart, acc))


def lie_derivative(x: VectorField, target):
    """Lie derivative along x of a scalar, form, or multivector."""
    if isinstance(target, Expr):
        return x.apply_to(target)
    if isinstance(target, KForm):
        if target.degree == 0:
            return KForm.from_scalar(x.apply_to(target[()]))
        dw = exterior_derivative(target)
        part1 = interior_product(x, dw)
        part2 = exterior_derivative(interior_product(x, target))
        return part1 + part2
    if isinstance(target, KVector):
        return schouten_bracket(KVector.from_vector(x), target)
    if isinstance(target, VectorField):
        return lie_bracket(x, target)
    raise TypeError(f"cannot take Lie derivative of {type(target).__name__}")


# ---------------------------------------------------------------------------
# Operator fields


class Operator11:
    """A (1,1)-tensor as a dim x dim Expr matrix, rows = output component."""

    __slots__ = ("chart", "matrix")

    def __init__(self, chart: Chart, matrix: Sequence[Sequence]):
        if len(matrix) != chart.dim or any(len(r) != chart.dim for r in matrix):
            raise ValueError("operator matrix must be dim x dim")
        self.chart = chart
        self.matrix = tuple(tuple(_as_expr(chart, v) for v in row) for row in matrix)

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

    @classmethod
    def tensor(cls, x: VectorField, alpha: KForm) -> "Operator11":
        """Rank-one operator x (x) alpha."""
        chart = _same_chart(x, alpha)
        co = alpha.covector()
        return cls(chart, [[x[i] * co[j] for j in range(chart.dim)] for i in range(chart.dim)])

    def column(self, j: int) -> VectorField:
        return VectorField(self.chart, [self.matrix[i][j] for i in range(self.chart.dim)])

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
        return (
            isinstance(other, Operator11)
            and self.chart == other.chart
            and self.matrix == other.matrix
        )

    def __repr__(self):
        rows = "; ".join("[" + ", ".join(str(v) for v in row) + "]" for row in self.matrix)
        return f"Op[{rows}]"


def op_apply(k: Operator11, x: VectorField) -> VectorField:
    chart = _same_chart(k, x)
    return VectorField(chart, [dot(chart, row, x.components) for row in k.matrix])


def op_transpose_apply(k: Operator11, alpha: KForm) -> KForm:
    """K^T on a 1-form: (K^T a)_j = a(K d_j)."""
    chart = _same_chart(k, alpha)
    co = alpha.covector()
    return KForm.one_form(chart, [dot(chart, co, col) for col in zip(*k.matrix)])


def op_compose(k1: Operator11, k2: Operator11) -> Operator11:
    chart = _same_chart(k1, k2)
    cols = list(zip(*k2.matrix))
    return Operator11(chart, [[dot(chart, row, col) for col in cols] for row in k1.matrix])


def op_commutator(k1: Operator11, k2: Operator11) -> Operator11:
    return op_compose(k1, k2) - op_compose(k2, k1)


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


def raised(b: KForm, sharp: Sequence[Sequence[Expr]]) -> KVector:
    """The bivector Lambda(alpha, beta) = B(sharp alpha, sharp beta) of a
    2-form B, where column i of the sharp matrix is sharp(dx^i)."""
    chart = b.chart
    cols = [VectorField(chart, col) for col in zip(*sharp)]
    return KVector(chart, 2, {(i, j): b.apply(cols[i], cols[j])
                              for i in range(chart.dim) for j in range(i + 1, chart.dim)})


# ---------------------------------------------------------------------------
# Exact linear algebra (small dimensions)


def det(matrix: Sequence[Sequence[Expr]]) -> Expr:
    n = len(matrix)
    chart = matrix[0][0].chart
    cache: dict = {}

    def minor(rows: tuple, col0: int) -> Expr:
        # determinant of the submatrix with given rows, columns col0..n-1
        if len(rows) == 1:
            return matrix[rows[0]][col0]
        key = rows
        if key in cache:
            return cache[key]
        out = dot(
            chart,
            [matrix[r][col0] if pos % 2 == 0 else -matrix[r][col0] for pos, r in enumerate(rows)],
            [minor(rows[:pos] + rows[pos + 1 :], col0 + 1) for pos in range(len(rows))],
        )
        cache[key] = out
        return out

    return minor(tuple(range(n)), 0)


def invert_matrix(matrix: Sequence[Sequence[Expr]]) -> list:
    n = len(matrix)
    chart = matrix[0][0].chart
    d = det(matrix)
    if d.is_zero_expr():
        raise ValueError("singular matrix")
    inv_d = d**-1
    out = [[chart.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor_rows = [r for r in range(n) if r != j]
            minor_cols = [c for c in range(n) if c != i]
            sub = [[matrix[r][c] for c in minor_cols] for r in minor_rows]
            cof = det(sub) if sub else chart.one()
            if (i + j) % 2 == 1:
                cof = -cof
            out[i][j] = cof * inv_d
    return out
