r"""Model language, check runner, and report emission.

A model is a line-oriented text file:

    # comments run to end of line
    chart NAME (id, id, ...) [generic | darboux-contact N | darboux-symplectic N | lcs-local N]
    scalar NAME = <scalar>
    form NAME = <form>                 # d(<scalar>), /\ wedge, scalar * form
    vector NAME = (e1, ..., en)
    bivector NAME = <bivector>         # (e1, ..., en) /\ (f1, ..., fn) [+ ...]
    operator NAME = [[...], [...]]
    extop NAME = (OPERATOR, VECTOR, 1-FORM, SCALAR)
    contact NAME = 1-FORM
    lcs NAME = (2-FORM, 1-FORM)
    jacobi NAME = (BIVECTOR, VECTOR)
    check <directive ...> [expect fail]

Every right-hand side, and every scalar, tuple and vector of a directive, is
one expression of symexpr.parse_expr: scalar arithmetic, d(<scalar>), the
wedge /\, tuples (a, b, ...) and lists [a, b, ...], with a declared name
standing for its value.  * and / scale a form or a multivector by a scalar;
* between two of them is a parse error.  A tuple or a vector in a sum or a
wedge is a 1-vector.

Declarations bind to the most recent chart statement.  Structures are
validated on first use when checks run, once per run; a directive on one
that failed validation is unknown.  A run decides each sub-check once: a
theorem reuses the verdicts of preconditions that the run has already
checked (`checks.once`).  Reports are deterministic for a fixed (model,
seed, samples, tol); wall-times live outside the comparable section.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from . import __version__
from .checks import INTERNAL_INCONSISTENCY, CheckReport, _unvalidated, memo_scope, once
from .contact import is_dissipated, techain_check, validate_contact
from .extended import (
    ExtendedBasis,
    ExtendedOperator,
    check_ejh,
    thm_main_check,
    verify_ext_chain,
)
from .geometry import KForm, KVector, Operator11, VectorField, d_scalar, wedge, wedge_v
from .jacobi import check_jh_compatibility, hamiltonian_vf, jacobi_bracket, poissonize, validate_jacobi
from .lcs import check_lcsh, eta_KE_check, theorem9_check, validate_lcs
from .symexpr import (
    BudgetError,
    Chart,
    ChartMismatch,
    DomainError,
    Expr,
    ParseError,
    SubstitutionError,
    ZeroTester,
    format_expr,
    parse_expr,
)
from .torsion import (
    HaantjesBasis,
    check_haantjes_algebra,
    commute_check,
    is_haantjes,
    verify_chain,
)

__all__ = ["Model", "Report", "main", "parse_model", "run_checks", "format_model"]


# ---------------------------------------------------------------------------
# Model representation


@dataclass
class Declaration:
    kind: str
    name: str
    chart_name: Optional[str]
    payload: dict
    line: int


@dataclass
class Directive:
    verb: str
    fields: dict
    chart_name: Optional[str]
    line: int
    expect_fail: bool = False
    values: dict = field(default_factory=dict, repr=False, compare=False)  # bound fields

    def label(self) -> str:
        parts = [self.verb]
        for key in sorted(self.fields):
            v = self.fields[key]
            if isinstance(v, list):
                parts.append(f"{key}={' '.join(map(str, v))}")
            else:
                parts.append(f"{key}={v}")
        if self.expect_fail:
            parts.append("expect=fail")
        return " ".join(parts)


@dataclass
class Model:
    charts: dict = field(default_factory=dict)
    declarations: list = field(default_factory=list)
    directives: list = field(default_factory=list)
    order: list = field(default_factory=list)   # statement order for fmt


# -- parsing


def parse_model(text: str) -> Model:
    model = Model()
    current: Optional[Chart] = None
    names: dict = {}  # name -> (kind, declaration)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "chart":
            name, chart = _parse_chart_stmt(rest, lineno)
            if name in model.charts:
                raise ParseError(f"chart {name!r} redeclared", lineno, 1)
            model.charts[name] = chart
            model.order.append(("chart", name))
            current = chart
            continue
        if head == "check":
            model.directives.append(_parse_directive(raw.partition("#")[0], current, lineno))
            model.order.append(("check", len(model.directives) - 1))
            continue
        if head not in ("scalar", "form", "vector", "bivector", "operator", *_PARTS):
            raise ParseError(f"unknown statement {head!r}", lineno, 1)
        if current is None:
            raise ParseError("declaration before any chart", lineno, 1)
        name, _, rhs = rest.partition("=")
        name = name.strip()
        rhs = rhs.strip()
        if not name.isidentifier():
            raise ParseError(f"bad name {name!r}", lineno, 1)
        if name in names or name in model.charts:
            raise ParseError(f"name {name!r} redeclared", lineno, 1)
        if not rhs:
            raise ParseError("missing right-hand side", lineno, 1)
        decl = Declaration(head, name, current.name, {"rhs": rhs}, lineno)
        try:
            _build_declaration(decl, current, names, lineno, raw.index(rhs, raw.index("=")))
        except _MODEL_ERRORS as exc:
            raise _at_line(exc, lineno, getattr(exc, "col", 1)) from None
        names[name] = (head, decl)
        model.declarations.append(decl)
        model.order.append(("decl", name))
    _resolve_directives(model, names)
    return model


# What building a declaration or binding a directive raises on bad input.
_MODEL_ERRORS = (ValueError, DomainError)


def _at_line(exc: Exception, line: int, col: int = 1) -> ParseError:
    """exc as a parse error at column `col` of model line `line`."""
    return ParseError(getattr(exc, "message", str(exc)), line, col)


def _parse_chart_stmt(rest: str, line: int):
    name, _, tail = rest.partition("(")
    name = name.strip()
    if not name.isidentifier():
        raise ParseError(f"bad chart name {name!r}", line, 1)
    body, _, kind_text = tail.partition(")")
    coords = tuple(c.strip() for c in body.split(",") if c.strip())
    if not coords:
        raise ParseError("chart needs coordinates", line, 1)
    kind_text = kind_text.strip()
    if not kind_text or kind_text == "generic":
        kind = ("generic",)
    else:
        tag, _, num = kind_text.partition(" ")
        if tag not in ("darboux-contact", "darboux-symplectic", "lcs-local") or not num.strip().isdigit():
            raise ParseError(f"bad chart kind {kind_text!r}", line, 1)
        kind = (tag, int(num))
    try:
        chart = Chart(name, coords, kind)
    except ValueError as exc:
        raise ParseError(str(exc), line, 1) from None
    return name, chart


# declaration kind -> the kinds of the parts of its tuple; the parts of a
# contact, lcs or jacobi structure are validated on first use at run time
_PARTS = {
    "extop": ("operator", "vector", "form", "scalar"),
    "contact": ("1-form",),
    "lcs": ("2-form", "1-form"),
    "jacobi": ("bivector", "vector"),
}


def _build_declaration(decl: Declaration, chart: Chart, names: dict, line: int, at: int):
    if decl.kind == "contact" and chart.dim % 2 == 0:
        raise ParseError(f"contact structure on even-dimensional chart {chart.name}", line, 1)
    if decl.kind == "lcs" and chart.dim % 2 == 1:
        raise ParseError(f"lcs structure on odd-dimensional chart {chart.name}", line, 1)
    scope = _Scope(chart, names, line, free=True)
    # the right-hand side, at offset `at` of the model line, is parsed there
    # (blanks before it), so a position parse_expr reports is a line column
    value = parse_expr(" " * at + decl.payload["rhs"], chart, scope)
    kinds = _PARTS.get(decl.kind)
    if kinds is None:
        decl.payload["value"] = scope.value(value, decl.kind)
        return
    parts, cols = (value, value.cols) if isinstance(value, tuple) and len(kinds) > 1 else ((value,), (1,))
    if len(parts) != len(kinds):
        raise ParseError(f"{decl.kind} needs ({', '.join(kinds)})", line, 1)
    parts = [scope.value(v, k, col) for v, k, col in zip(parts, kinds, cols)]
    if decl.kind == "extop":
        decl.payload["value"] = ExtendedOperator(*parts, name=decl.name)
    else:
        decl.payload["parts"] = parts


def _describe(v) -> str:
    if isinstance(v, KForm):
        return f"{v.degree}-form"
    if isinstance(v, KVector):
        return "bivector" if v.degree == 2 else f"{v.degree}-vector"
    if isinstance(v, Declaration):
        return v.kind
    return next(name for cls, name in {Expr: "scalar", VectorField: "vector", Operator11: "operator",
                ExtendedOperator: "extop", tuple: "tuple", list: "list"}.items() if isinstance(v, cls))


class _Scope:
    """The hook through which parse_expr reads a model expression on
    `chart`: the names declared there, d(...), and scaling, sums and wedges
    of forms and multivectors (a tuple or vector operand is a 1-vector).  A
    bare name that is not declared is a parameter when `free` (declarations)
    and an error otherwise (directives); one declared on another chart, or
    of another kind than a directive asks for, is an error."""

    def __init__(self, chart: Chart, names: dict, line: int, free: bool = False):
        self.chart = chart
        self.names = names
        self.line = line
        self.free = free

    def parse(self, text: str, kind: str):
        return self.value(parse_expr(text, self.chart, self), kind)

    def name(self, name: str, col: int, kind: Optional[str] = None):
        """The value of the bare name at column `col` of the model line."""
        if name not in self.names:
            if self.free:
                return None
            raise ParseError(f"unknown identifier {name!r}", self.line, col)
        got, decl = self.names[name]
        if decl.chart_name != self.chart.name:
            raise ParseError(f"{got} {name!r} is not declared on chart {self.chart.name}",
                             self.line, col)
        if kind is not None and got != kind:
            raise ParseError(f"{name!r} is a {got}, expected {kind}", self.line, col)
        return decl.payload.get("value", decl)

    def d(self, f: Expr) -> KForm:
        return d_scalar(f)

    def scale(self, v, f: Expr, col: int):
        return self._graded(v, col).scale(f)

    def add(self, a, b, col: int):
        a, b = self._pair(a, b, col)
        return a + b

    def wedge(self, a, b, col: int):
        a, b = self._pair(a, b, col)
        if a.degree + b.degree > self.chart.dim:
            raise ParseError(f"wedge of degree {a.degree + b.degree} on the {self.chart.dim}-chart "
                             f"{self.chart.name}", self.line, col)
        return wedge(a, b) if isinstance(a, KForm) else wedge_v(a, b)

    def _pair(self, a, b, col: int):
        a, b = self._graded(a, col), self._graded(b, col)
        if type(a) is not type(b):
            raise ParseError(f"a {_describe(a)} and a {_describe(b)} do not combine", self.line, col)
        return a, b

    def _graded(self, v, col: int):
        if isinstance(v, (tuple, VectorField)):
            return KVector.from_vector(self.value(v, "vector", col))
        if isinstance(v, (KForm, KVector)):
            return v
        raise ParseError(f"{_describe(v)} where a form or a multivector was expected", self.line, col)

    def value(self, v, kind: str, col: int = 1):
        """v as a `kind`: scalar, tuple (of scalars; a scalar is a one-tuple),
        vector, operator, form, k-form or bivector; an error is reported at
        column `col`, and one in a parsed item at the item's own column."""
        chart = self.chart
        if kind == "scalar" and isinstance(v, Expr):
            return v
        if kind == "tuple":
            items, cols = (v, v.cols) if isinstance(v, tuple) else ((v,), (col,))
            return [self.value(c, "scalar", at) for c, at in zip(items, cols)]
        if kind == "vector":
            if isinstance(v, VectorField):
                return v
            comps = self.value(v, "tuple", col)
            if len(comps) != chart.dim:
                raise ParseError(f"vector needs {chart.dim} components, got {len(comps)}", self.line, col)
            return VectorField(chart, comps)
        if kind == "operator" and isinstance(v, list) and all(isinstance(r, list) for r in v):
            rows = [[self.value(e, "scalar", at) for e, at in zip(r, r.cols)] for r in v]
            if any(len(r) != len(rows[0]) for r in rows):
                raise ParseError(f"row length mismatch at line {self.line}", self.line, col)
            if len(rows) != chart.dim or len(rows[0]) != chart.dim:
                raise ParseError(f"operator must be {chart.dim}x{chart.dim}", self.line, col)
            return Operator11(chart, rows)
        if isinstance(v, KForm) and kind in ("form", f"{v.degree}-form"):
            return v
        if isinstance(v, KVector) and v.degree == 2 and kind == "bivector":
            return v
        if isinstance(v, Operator11) and kind == "operator":
            return v
        raise ParseError(f"{_describe(v)} where a {kind} was expected", self.line, col)


# -- directives
#
# `check VERB ARGS [CLAUSE TOKENS ...] [expect fail]`.  A verb's row in
# _VERBS gives the kind of its arguments, the kind of each clause it takes
# and its handler; _resolve_directives binds every field through its kind
# at parse time.  A kind is called as kind(tokens, chart, names, line); each
# token is a `_Token`, which keeps its offset in the model line.

# Clause keywords, in the order fmt writes them.
_CLAUSES = ("wrt", "with", "on", "kind", "equals", "potentials", "pairs", "abelian")


class _Token(str):
    """A directive token that keeps its offset in the model line."""

    def __new__(cls, text: str, at: int):
        tok = super().__new__(cls, text)
        tok.at = at
        return tok


def _parse_directive(text: str, chart: Optional[Chart], line: int) -> Directive:
    """The directive on model line `text` (its comment cut off), whose first
    token is ``check``."""
    tokens = [_Token(m.group(), m.start()) for m in re.finditer(r"\S+", text)][1:]
    if not tokens:
        raise ParseError("empty check directive", line, 1)
    fields: dict = {}
    expect_fail = False
    key = "args"
    rest_tokens = iter(tokens[1:])
    for tok in rest_tokens:
        if tok == "expect":
            outcome = next(rest_tokens, None)
            if outcome not in ("fail", "pass"):
                raise ParseError("expect needs fail|pass", line, 1)
            expect_fail = outcome == "fail"
        elif tok in _CLAUSES:
            key = tok
            fields.setdefault(key, [])
        else:
            fields.setdefault(key, []).append(tok)
    if chart is None:
        raise ParseError("check before any chart", line, 1)
    return Directive(tokens[0], fields, chart.name, line, expect_fail)


def _resolve_directives(model: Model, names: dict):
    for d in model.directives:
        try:
            _bind(d, model.charts[d.chart_name], names)
        except _MODEL_ERRORS as exc:
            raise _at_line(exc, d.line, getattr(exc, "col", 1)) from None


def _bind(d: Directive, chart: Chart, names: dict):
    """Fill d.values from d.fields through the kinds of d.verb's row."""
    if d.verb not in _VERBS:
        raise ParseError(f"unknown check directive {d.verb!r}", d.line, 1)
    args, clauses, _ = _VERBS[d.verb]
    for key in d.fields:
        if key != "args" and key not in clauses:
            raise ParseError(f"{d.verb} takes no {key!r} clause", d.line, 1)
    d.values["args"] = args(d.fields.get("args", []), chart, names, d.line)
    for key, (kind, required) in clauses.items():
        if key in d.fields:
            d.values[key] = kind(d.fields[key], chart, names, d.line)
        elif required:
            raise ParseError(f"{d.verb} needs the {key!r} clause", d.line, 1)
    if "potentials" in d.values and len(d.values["potentials"]) != len(d.fields["with"]):
        raise ParseError(f"{len(d.values['potentials'])} potentials for "
                         f"{len(d.fields['with'])} operators", d.line, 1)


# -- kinds


def _named(kind: str, count: int = 1):
    """`count` declared names of `kind`; a structure binds to its Declaration
    and is validated on first use at run time, once per run."""
    def bind(toks, chart, names, line):
        if len(toks) != count:
            raise ParseError(f"expected {count} {kind} name(s), got {len(toks)}", line, 1)
        scope = _Scope(chart, names, line)
        vals = [scope.name(t, t.at + 1, kind) for t in toks]
        return vals[0] if count == 1 else vals
    return bind


def _basis(cls, kind: str):
    """One or more names of `kind`, bound as a `cls` basis labelled by them."""
    def bind(toks, chart, names, line):
        scope = _Scope(chart, names, line)
        return cls([scope.name(t, t.at + 1, kind) for t in toks], names=list(toks))
    return bind


def _in_line(toks) -> str:
    """The tokens at their offsets in the model line (blanks before them),
    so a position parse_expr reports is a line column."""
    text = ""
    for tok in toks:
        text += " " * (tok.at - len(text)) + tok
    return text


def _scalar(toks, chart, names, line) -> Expr:
    return _Scope(chart, names, line).parse(_in_line(toks), "scalar")


def _two_scalars(toks, chart, names, line) -> list:
    if len(toks) != 2:
        raise ParseError(f"expected two one-token scalars, got {len(toks)}", line, 1)
    return [_scalar([t], chart, names, line) for t in toks]


def _tuple(toks, chart, names, line) -> list:
    return _Scope(chart, names, line).parse(_in_line(toks), "tuple")


def _vector(toks, chart, names, line) -> VectorField:
    return _Scope(chart, names, line).parse(_in_line(toks), "vector")


def _pairs(toks, chart, names, line) -> list:
    """(f,g) pairs, one token each."""
    pairs = [_Scope(chart, names, line).parse(_in_line([t]), "tuple") for t in toks]
    if not pairs or any(len(p) != 2 for p in pairs):
        raise ParseError("pairs needs (f,g) pairs", line, 1)
    return [tuple(p) for p in pairs]


def _flag(toks, chart, names, line) -> bool:
    if toks:
        raise ParseError(f"unexpected {toks[0]!r} after a flag", line, 1)
    return True


def _first_or_second(toks, chart, names, line) -> str:
    if toks not in (["first"], ["second"]):
        raise ParseError("kind must be first or second", line, 1)
    return toks[0]


# -- handlers: (values, zt) -> CheckReport, structures already validated


def _equals(label: str, got: VectorField, v: dict, zt: ZeroTester) -> CheckReport:
    """Require got to equal the optional `equals` vector, component-wise."""
    rep = CheckReport(label)
    if "equals" in v:
        for i, e in enumerate((got - v["equals"]).components):
            rep.require_zero(f"{label}[{i}]", zt(e))
    return rep


def _bracket(v: dict, zt: ZeroTester) -> CheckReport:
    rep = CheckReport("bracket")
    val = jacobi_bracket(*v["args"], v["on"])
    rep.require_zero("bracket - expected", zt(val - v["equals"] if "equals" in v else val))
    return rep


def _with_potentials(chain: CheckReport, v: dict, zt: ZeroTester) -> CheckReport:
    """A chain report with the expected potentials required.  The chain
    report is a theorem's precondition too, so a copy is extended."""
    rep = chain.copy()
    for i, (got, want) in enumerate(zip(rep.data["potentials"], v.get("potentials", ()))):
        if got is None:
            rep.reject(f"potential {i+1} unavailable")
        else:
            rep.require_zero(f"H{i+1} - expected", zt(got - want))
    return rep


_OPERATOR, _EXTOP = _named("operator"), _named("extop")
_CONTACT, _LCS, _JACOBI = _named("contact"), _named("lcs"), _named("jacobi")
_OPERATORS, _EXTOPS = _basis(HaantjesBasis, "operator"), _basis(ExtendedBasis, "extop")


def _darboux_contact(toks, chart, names, line):
    """A contact structure on a darboux-contact chart (the special kinds are
    defined in Darboux coordinates)."""
    decl = _CONTACT(toks, chart, names, line)
    if decl.payload["parts"][0].chart.kind[0] != "darboux-contact":
        raise ParseError(f"{toks[0]!r} is not on a darboux-contact chart", line, 1)
    return decl


# verb -> (argument kind, {clause: (kind, required)}, handler).  Handlers
# call library functions by their global name, so that tracing that
# rebinds those names sees every call; a check that a theorem also runs as
# a precondition goes through `once`, so the run decides it once.
_VERBS = {
    "haantjes": (_OPERATOR, {}, lambda v, zt: once(is_haantjes, v["args"], zt)),
    "algebra": (_OPERATORS, {"abelian": (_flag, False)}, lambda v, zt: check_haantjes_algebra(
        replace(v["args"], abelian_required="abelian" in v), zt)),
    "commute": (_named("operator", 2), {}, lambda v, zt: commute_check(*v["args"], zt)),
    "jacobi": (_JACOBI, {}, lambda v, zt: v["args"].validity),
    "contact": (_CONTACT, {}, lambda v, zt: v["args"].validity),
    "lcs": (_LCS, {}, lambda v, zt: v["args"].validity),
    "reeb": (_CONTACT, {"equals": (_vector, False)},
             lambda v, zt: _equals("R", v["args"].reeb, v, zt)),
    "hamiltonian": (_scalar, {"on": (_CONTACT, True), "equals": (_vector, False)},
                    lambda v, zt: _equals("X_H", hamiltonian_vf(v["args"], v["on"].jacobi), v, zt)),
    "dissipated": (_scalar, {"wrt": (_scalar, True), "on": (_CONTACT, True)},
                   lambda v, zt: is_dissipated(v["args"], v["wrt"], v["on"], zt)),
    "bracket": (_two_scalars, {"on": (_JACOBI, True), "equals": (_scalar, False)}, _bracket),
    "chain": (_scalar, {"with": (_OPERATORS, True), "potentials": (_tuple, False)},
              lambda v, zt: _with_potentials(once(verify_chain, v["args"], v["with"], zt), v, zt)),
    "ejh": (_EXTOP, {"on": (_JACOBI, True)}, lambda v, zt: once(check_ejh, v["args"], v["on"], zt)),
    "ext_chain": (_scalar, {"with": (_EXTOPS, True), "potentials": (_tuple, False)},
                  lambda v, zt: _with_potentials(once(verify_ext_chain, v["args"], v["with"], zt), v, zt)),
    "thm_main": (_scalar, {"with": (_EXTOPS, True), "on": (_JACOBI, True)},
                 lambda v, zt: thm_main_check(v["args"], v["with"], v["on"], zt)),
    "lcsh": (_OPERATOR, {"on": (_LCS, True)}, lambda v, zt: once(check_lcsh, v["args"], v["on"], zt)),
    "eta_ke": (_OPERATOR, {"on": (_LCS, True)},
               lambda v, zt: once(eta_KE_check, v["args"], v["on"], zt)),
    "theorem9": (_scalar, {"with": (_OPERATORS, True), "on": (_LCS, True)},
                 lambda v, zt: theorem9_check(v["args"], v["with"], v["on"], zt)),
    "techain": (_scalar, {"with": (_OPERATORS, True), "on": (_darboux_contact, True),
                          "kind": (_first_or_second, True)},
                lambda v, zt: techain_check(v["args"], v["with"], v["on"], v["kind"], zt)),
    "jh": (_OPERATOR, {"on": (_JACOBI, True)},
           lambda v, zt: check_jh_compatibility(v["args"], v["on"], zt=zt)),
    "poissonize": (_JACOBI, {"pairs": (_pairs, False)},
                   lambda v, zt: poissonize(v["args"], zt, test_pairs=v.get("pairs", []))[1]),
}


# ---------------------------------------------------------------------------
# Runner


@dataclass
class Report:
    meta: dict
    entries: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    internal_inconsistency: bool = False

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if e["status"] == "fail")

    @property
    def exit_code(self) -> int:
        if self.internal_inconsistency:
            return 3
        return 0 if all(e["status"] == "pass" for e in self.entries) else 1

    def comparable(self) -> dict:
        return {
            "meta": self.meta,
            "directives": self.entries,
            "summary": {
                "pass": sum(1 for e in self.entries if e["status"] == "pass"),
                "fail": self.failed,
                "unknown": sum(1 for e in self.entries if e["status"] == "unknown"),
                "exit_code": self.exit_code,
            },
        }

    def comparable_text(self) -> str:
        return json.dumps(self.comparable(), sort_keys=True, indent=2) + "\n"

    def full_json(self) -> str:
        data = self.comparable()
        data["timing"] = self.timing
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    def table(self) -> str:
        lines = []
        width = max((len(e["name"]) for e in self.entries), default=10)
        for e in self.entries:
            cert = e.get("certainty") or "-"
            lines.append(f"{e['name']:<{width}}  {e['status']:<8} {cert}")
        s = self.comparable()["summary"]
        lines.append(f"{'summary':<{width}}  pass={s['pass']} fail={s['fail']} unknown={s['unknown']}")
        return "\n".join(lines)


# What a well-formed model can still raise while its checks run; anything
# else is a fault of the toolkit and propagates.
_RUN_ERRORS = (BudgetError, DomainError, SubstitutionError, ChartMismatch)


@memo_scope()
def run_checks(model: Model, seed: int = 0, samples: int = 16, tol: float = 1e-9,
               fail_fast: bool = False) -> Report:
    zt = ZeroTester(seed=seed, samples=samples, tol=tol)
    report = Report(meta={
        "model": "inline",
        "seed": seed,
        "samples": samples,
        "tol": repr(tol),
        "version": __version__,
    })
    for idx, d in enumerate(model.directives):
        t0 = time.perf_counter()
        name = f"{idx+1:02d} {d.label()}"
        try:
            sub = _execute(d, zt)
            status = sub.status
            cert = sub.certainty.tag if sub.certainty else None
            witness = _jsonable(sub.witness)
            notes = list(sub.notes)
            if any(INTERNAL_INCONSISTENCY in n for n in notes):
                report.internal_inconsistency = True
            residual = [
                [str(lab), str(cert_ or "")] for lab, cert_ in sub.details[:6]
            ]
        except _RUN_ERRORS as exc:  # surfaced, not raised
            status = "unknown"
            cert = None
            witness = None
            notes = [f"{type(exc).__name__}: {exc}"]
            residual = []
        if d.expect_fail:
            status = "pass" if status == "fail" else "fail"
            notes.append("expected failure")
        report.entries.append({
            "name": name,
            "status": status,
            "certainty": cert,
            "witness": witness,
            "residuals": residual,
            "notes": notes,
        })
        report.timing[name] = round(time.perf_counter() - t0, 6)
        if fail_fast and status == "fail":
            break
    return report


def _jsonable(obj):
    if obj is None:
        return None
    if isinstance(obj, dict):
        return {str(k): str(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    return str(obj)


def _execute(d: Directive, zt: ZeroTester) -> CheckReport:
    v = {k: once(_validated, x, zt) if isinstance(x, Declaration) else x for k, x in d.values.items()}
    # a directive on a structure that failed validation is undecided; the
    # directive named after the structure's kind reports the validation
    for k, x in d.values.items():
        if isinstance(x, Declaration) and x.kind != d.verb:
            rep = CheckReport(d.verb)
            if _unvalidated(rep, f"{x.kind} {x.name}", v[k]):
                return rep
    return _VERBS[d.verb][2](v, zt)


def _validated(decl: Declaration, zt: ZeroTester):
    """The structure `decl` declares, validated; run once per declaration."""
    parts = decl.payload["parts"]
    if decl.kind == "contact":
        return validate_contact(*parts, zt)
    if decl.kind == "lcs":
        return validate_lcs(*parts, zt)
    return validate_jacobi(*parts, zt)


# ---------------------------------------------------------------------------
# Canonical formatter


def format_model(model: Model) -> str:
    lines = []
    by_name = {d.name: d for d in model.declarations}
    for kind, key in model.order:
        if kind == "chart":
            chart = model.charts[key]
            coords = ", ".join(chart.coords)
            tail = "" if chart.kind[0] == "generic" else f" {chart.kind[0]} {chart.kind[1]}"
            lines.append(f"chart {key} ({coords}){tail}")
        elif kind == "decl":
            d = by_name[key]
            lines.append(_format_declaration(d))
        else:
            d = model.directives[key]
            lines.append("check " + _format_directive(d))
    return "\n".join(lines) + "\n"


def _format_declaration(d: Declaration) -> str:
    if d.kind == "scalar":
        return f"scalar {d.name} = {format_expr(d.payload['value'])}"
    if d.kind in ("form", "bivector"):
        return f"{d.kind} {d.name} = {_format_graded(d.payload['value'])}"
    if d.kind == "vector":
        v = d.payload["value"]
        return f"vector {d.name} = ({', '.join(format_expr(e) for e in v.components)})"
    if d.kind == "operator":
        k = d.payload["value"]
        rows = ", ".join("[" + ", ".join(format_expr(e) for e in row) + "]" for row in k.matrix)
        return f"operator {d.name} = [{rows}]"
    # extop / contact / lcs / jacobi keep their raw reference syntax
    return f"{d.kind} {d.name} = {d.payload['rhs']}"


def _format_directive(d: Directive) -> str:
    parts = [d.verb]
    for key in ("args",) + _CLAUSES:
        if key not in d.fields:
            continue
        if key != "args":
            parts.append(key)
        parts.extend(d.fields[key])
    if d.expect_fail:
        parts.extend(["expect", "fail"])
    return " ".join(parts)


def _format_graded(g) -> str:
    """A form or bivector as a sum of scaled wedges of basis 1-forms or
    vectors; zero keeps its degree."""
    chart = g.chart
    if isinstance(g, KForm):
        basis = [f"d({c})" for c in chart.coords]
    else:
        basis = ["(" + ", ".join("1" if a == i else "0" for a in range(chart.dim)) + ")"
                 for i in range(chart.dim)]
    if g.is_zero():
        return "0 * " + " /\\ ".join(basis[: g.degree])
    return " + ".join(f"({format_expr(val)}) * " + " /\\ ".join(basis[i] for i in idx)
                      for idx, val in g.items())


# ---------------------------------------------------------------------------
# Entry point


def _positive(kind):
    """argparse type: a number of the given kind that is > 0."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="haantjes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="run a model's check directives")
    p_check.add_argument("model")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--samples", type=_positive(int), default=16)
    p_check.add_argument("--tol", type=_positive(float), default=1e-9)
    p_check.add_argument("--json", dest="json_path")
    p_check.add_argument("--fail-fast", action="store_true")
    p_fmt = sub.add_parser("fmt", help="canonical pretty-print of a model")
    p_fmt.add_argument("model")
    args = parser.parse_args(argv)

    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        model = parse_model(text)
    except ParseError as exc:
        print(f"{args.model}:{exc}", file=sys.stderr)
        return 2

    if args.command == "fmt":
        sys.stdout.write(format_model(model))
        return 0

    report = run_checks(model, seed=args.seed, samples=args.samples, tol=args.tol,
                        fail_fast=args.fail_fast)
    report.meta["model"] = args.model
    print(report.table())
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(report.full_json())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
