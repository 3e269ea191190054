r"""Model language, check runner, and report emission.

A model is a line-oriented text file:

    # comments run to end of line
    chart NAME (COORD, ...) [generic | darboux-contact N | darboux-symplectic N | lcs-local N]
    scalar NAME = <scalar>
    form NAME = <form>                 # d(<scalar>), /\ wedge, scalar * form
    vector NAME = (e1, ..., en)
    bivector NAME = <bivector>         # (e1, ..., en) /\ (f1, ..., fn) [+ ...]
    operator NAME = [[...], [...]]
    extop NAME = (OPERATOR, VECTOR, 1-FORM, SCALAR)
    contact NAME = 1-FORM
    lcs NAME = (2-FORM, 1-FORM)
    jacobi NAME = (BIVECTOR, VECTOR)
    check VERB ARGUMENTS [CLAUSE ITEMS ...] [expect fail|pass]

Each line, its comment cut off, is lexed once by the expression lexer
(symexpr._Lexer; '=' is a token), and its statement read from the tokens.  A
NAME or COORD is an identifier that does not begin with '_' and is no clause
keyword or `expect`.  A directive's words are its runs of tokens with no
blank between them.  Every right-hand side, and every scalar, tuple and
vector of a directive, is one expression of symexpr.parse_tokens: scalar
arithmetic, d(<scalar>), the wedge /\, tuples (a, b, ...) and lists
[a, b, ...], with a declared name standing for its value.  * and / scale a
form or a multivector by a scalar; * between two of them is a parse error.
A tuple or a vector in a sum or a wedge is a 1-vector.  An error is a
ParseError at its token's line and column.

Declarations bind to the most recent chart statement, and directives to the
declarations of the whole model.  Structures are validated on first use when
checks run, once per run; a directive on one that failed validation is
unknown.  A run decides each sub-check once: a theorem reuses the verdicts of
preconditions that the run has already checked (`checks.once`).  Reports are
deterministic for a fixed (model, seed, samples, tol), where `tol` is only
recorded in the meta and decides nothing; wall-times live outside the
comparable section.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__
from .checks import INTERNAL_INCONSISTENCY, CheckReport, _unvalidated, memo_scope, once
from .contact import is_dissipated, techain_check, validate_contact
from .extended import (
    ExtendedBasis,
    ExtendedOperator,
    check_ejh,
    lifted_differential,
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
    _DARBOUX_KINDS,
    _Lexer,
    _own_name,
    format_expr,
    parse_tokens,
    weakest,
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
    words: dict = field(default_factory=dict, repr=False, compare=False)  # field -> its words
    values: dict = field(default_factory=dict, repr=False, compare=False)  # bound fields

    def label(self) -> str:
        parts = [self.verb, *(f"{key}={' '.join(words)}" for key, words in sorted(self.fields.items()))]
        return " ".join(parts + ["expect=fail"] * self.expect_fail)


@dataclass
class Model:
    charts: dict = field(default_factory=dict)
    declarations: list = field(default_factory=list)
    directives: list = field(default_factory=list)
    order: list = field(default_factory=list)   # statement order for fmt


# -- parsing: from each line's tokens, (kind, value, line, col) each


def parse_model(text: str) -> Model:
    model = Model()
    current: Optional[Chart] = None
    names: dict = {}  # name -> (kind, declaration)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if not line.strip():
            continue
        toks = _Lexer(line, lineno).tokens
        head = toks[0][1]
        if head == "chart":
            current = _parse_chart(line, toks)
            if current.name in model.charts:
                raise ParseError(f"chart {current.name!r} redeclared", lineno, toks[1][3])
            model.charts[current.name] = current
            model.order.append(("chart", current.name))
        elif head == "check":
            model.directives.append(_parse_directive(line, toks, current))
            model.order.append(("check", len(model.directives) - 1))
        elif head in ("scalar", "form", "vector", "bivector", "operator", *_PARTS):
            decl = _parse_declaration(line, toks, current, names, model.charts)
            names[decl.name] = (head, decl)
            model.declarations.append(decl)
            model.order.append(("decl", decl.name))
        else:
            raise ParseError(f"unknown statement {head!r}", lineno, toks[0][3])
    for d in model.directives:  # once every declaration is known
        _bind(d, model.charts[d.chart_name], names)
    return model


def _words(line: str, toks: list, i: int) -> list:
    """The words of the model line from token i on, as (text, tokens): its
    maximal runs of tokens with no blank between them, such as
    `darboux-contact` or `(q,p)`."""
    words, end = [], len(toks) - 1  # the eof token ends the last word
    while i < end:
        j = i + 1
        while j < end and line[toks[j][3] - 2] not in " \t":
            j += 1
        words.append((line[toks[i][3] - 1:toks[j][3] - 1].rstrip(" \t"), toks[i:j]))
        i = j
    return words


def _expect(tok, kinds: tuple, what: str):
    """tok, which must be of one of `kinds`; `what` names them in the error."""
    if tok[0] not in kinds:
        found = "the end of the line" if tok[0] == "eof" else repr(tok[1])
        raise ParseError(f"expected {what}, found {found}", tok[2], tok[3])
    return tok


def _name(tok, what: str) -> str:
    """The name of a chart, coordinate or declaration that tok gives: an
    identifier that does not begin with '_', which is kept for the verifier's
    own symbols, and is not a directive keyword."""
    name = _expect(tok, ("ident",), f"a {what}")[1]
    _own_name(name, tok)
    if name in _CLAUSES or name == "expect":
        raise ParseError(f"{name!r} is a directive keyword, not a {what}", tok[2], tok[3])
    return name


def _parse_chart(line: str, toks: list) -> Chart:
    """`chart NAME (COORD, ...) [generic | KIND N]`."""
    name = _name(toks[1], "chart name")
    _expect(toks[2], ("(",), "'('")
    coords, i = [], 3
    while True:
        coords.append(_name(toks[i], "coordinate"))
        i += 2
        if _expect(toks[i - 1], (",", ")"), "',' or ')'")[0] == ")":
            break
    kind = [text for text, _ in _words(line, toks, i)]
    if kind in ([], ["generic"]):
        kind = ("generic",)
    elif len(kind) == 2 and kind[0] in _DARBOUX_KINDS and kind[1].isdigit():
        kind = (kind[0], int(kind[1]))
    else:
        raise ParseError(f"bad chart kind {line[toks[i][3] - 1:].strip()!r}", toks[i][2], toks[i][3])
    try:
        return Chart(name, tuple(coords), kind)
    except ValueError as exc:  # a coordinate named twice or reserved, or a size the kind refuses
        raise ParseError(str(exc), toks[2][2], toks[2][3]) from None


# declaration kind -> the kinds of the parts of its tuple; the parts of a
# contact, lcs or jacobi structure are validated on first use at run time
_PARTS = {
    "extop": ("operator", "vector", "1-form", "scalar"),
    "contact": ("1-form",),
    "lcs": ("2-form", "1-form"),
    "jacobi": ("bivector", "vector"),
}


def _parse_declaration(line: str, toks: list, chart: Optional[Chart], names: dict,
                       charts: dict) -> Declaration:
    """`KIND NAME = RHS` on the most recent chart, with its value built."""
    kind, lineno = toks[0][1], toks[0][2]
    if chart is None:
        raise ParseError("declaration before any chart", lineno, toks[0][3])
    name = _name(toks[1], f"{kind} name")
    if name in names or name in charts:
        raise ParseError(f"name {name!r} redeclared", lineno, toks[1][3])
    _expect(toks[2], ("=",), "'='")
    if kind in ("contact", "lcs") and chart.dim % 2 == (kind == "lcs"):
        raise ParseError(f"{kind} structure on {('even', 'odd')[chart.dim % 2]}-dimensional chart "
                         f"{chart.name}", lineno, toks[0][3])
    at = toks[3][3]  # the column of the right-hand side
    decl = Declaration(kind, name, chart.name, {"rhs": line[at - 1:].strip()}, lineno)
    scope = _Scope(chart, names, lineno, free=True)
    kinds, value = _PARTS.get(kind, (kind,)), scope.parse(toks, 3)
    parts, cols = (value, value.cols) if isinstance(value, tuple) and len(kinds) > 1 else ((value,), (at,))
    if len(parts) != len(kinds):
        raise ParseError(f"{kind} needs ({', '.join(kinds)})", lineno, at)
    parts = [scope.value(v, k, col) for v, k, col in zip(parts, kinds, cols)]
    if kind in ("contact", "lcs", "jacobi"):
        decl.payload["parts"] = parts
    else:
        decl.payload["value"] = ExtendedOperator(*parts, name=name) if kind == "extop" else parts[0]
    return decl


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
    """The hook through which parse_tokens reads a model expression on
    `chart`: the names declared there, d(...), and scaling, sums and wedges
    of forms and multivectors (a tuple or vector operand is a 1-vector).  A
    bare name that is not declared is a parameter when `free` (declarations)
    and an error otherwise (directives); one declared on another chart, or
    of another kind than a directive asks for, is an error."""

    def __init__(self, chart: Chart, names: dict, line: int, free: bool = False):
        self.chart, self.names, self.line, self.free = chart, names, line, free

    def parse(self, tokens: list, i: int, kind: Optional[str] = None):
        """The expression in tokens[i:], closed by an eof token, as a `kind`
        when one is given; a division by zero is reported at its start."""
        try:
            value = parse_tokens(tokens, i, self.chart, self)
        except DomainError as exc:
            raise ParseError(str(exc), self.line, tokens[i][3]) from None
        return value if kind is None else self.value(value, kind, tokens[i][3])

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
        a, b = self._pair(a, b, col, _describe)  # of one kind and degree
        return a + b

    def wedge(self, a, b, col: int):
        a, b = self._pair(a, b, col, type)
        if a.degree + b.degree > self.chart.dim:
            raise ParseError(f"wedge of degree {a.degree + b.degree} on the {self.chart.dim}-chart "
                             f"{self.chart.name}", self.line, col)
        return wedge(a, b) if isinstance(a, KForm) else wedge_v(a, b)

    def _pair(self, a, b, col: int, sort):
        a, b = self._graded(a, col), self._graded(b, col)
        if sort(a) != sort(b):
            raise ParseError(f"a {_describe(a)} and a {_describe(b)} do not combine", self.line, col)
        return a, b

    def _graded(self, v, col: int):
        if isinstance(v, (tuple, VectorField)):
            return KVector.from_vector(self.value(v, "vector", col))
        if isinstance(v, (KForm, KVector)):
            return v
        raise ParseError(f"{_describe(v)} where a form or a multivector was expected", self.line, col)

    def value(self, v, kind: str, col: int):
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
            for r, at in zip(rows, v.cols):
                if len(r) != len(rows[0]):
                    raise ParseError(f"row length mismatch at line {self.line}", self.line, at)
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
# A verb's row in _VERBS gives the kind of its arguments, the kind of each
# clause it takes and its handler; parse_model binds every field through its
# kind once the model is read.  A field is its words from _words: the verb or
# the clause keyword, then its items.

# Clause keywords, in the order fmt writes them; with `expect`, no name may be one.
_CLAUSES = ("wrt", "with", "on", "kind", "equals", "potentials", "pairs", "abelian")


def _parse_directive(line: str, toks: list, chart: Optional[Chart]) -> Directive:
    """The directive on a model line whose first token is ``check``."""
    lineno, end = toks[0][2], toks[-1]
    if chart is None:
        raise ParseError("check before any chart", lineno, toks[0][3])
    words = _words(line, toks, 1)
    verb = words[0][0] if words else None
    if verb not in _VERBS:
        raise ParseError(f"unknown check directive {verb!r}" if words else "empty check directive",
                         lineno, toks[1][3])
    clauses = _VERBS[verb][1]
    fields, expect_fail, rest = {"args": words[:1]}, False, iter(words[1:])
    field = fields["args"]
    for word in rest:
        if word[0] == "expect":
            outcome, (tok, *_) = next(rest, (None, [end]))
            if outcome not in ("fail", "pass"):
                raise ParseError("expect needs fail|pass", lineno, tok[3])
            expect_fail = outcome == "fail"
        elif word[0] in clauses:
            field = fields.setdefault(word[0], [word])
        elif word[0] in _CLAUSES:
            raise ParseError(f"{verb} takes no {word[0]!r} clause", lineno, word[1][0][3])
        else:
            field.append(word)
    for key, (_, required) in clauses.items():
        if required and key not in fields:
            raise ParseError(f"{verb} needs the {key!r} clause", lineno, end[3])
    return Directive(verb, {key: [text for text, _ in ws[1:]] for key, ws in fields.items()},
                     chart.name, lineno, expect_fail, words=fields)


def _bind(d: Directive, chart: Chart, names: dict):
    """Fill d.values from d.words through the kinds of d.verb's row."""
    args, clauses, _ = _VERBS[d.verb]
    scope = _Scope(chart, names, d.line)
    for key, words in d.words.items():
        d.values[key] = (args if key == "args" else clauses[key][0])(words, scope)
    if "potentials" in d.values and len(d.values["potentials"]) != len(d.fields["with"]):
        raise ParseError(f"{len(d.values['potentials'])} potentials for {len(d.fields['with'])} "
                         f"operators", d.line, _tokens(d.words["potentials"])[0][3])


# -- kinds: (words, scope) -> value


def _tokens(words: list, k: int = 1) -> list:
    """The tokens of words[k:], a field's items, closed by an eof token at the last word's end."""
    text, toks = words[-1]
    return [tok for _, ts in words[k:] for tok in ts] + [("eof", None, toks[0][2], toks[0][3] + len(text))]


def _count(words: list, count: int, what: str) -> list:
    """The items of a field that must hold `count` of them, or for 0 one or more."""
    items = words[1:]
    if len(items) != count and (count or not items):
        col = items[count][1][0][3] if len(items) > count else _tokens(words)[-1][3]
        raise ParseError(f"expected {count or 'one or more'} {what}, got {len(items)}",
                         words[0][1][0][2], col)
    return items


def _named(kind: str, count: int = 1, cls=None):
    """`count` declared names of `kind`, or with `cls` one or more, bound as
    a `cls` basis labelled by them; a structure binds to its Declaration and
    is validated on first use at run time, once per run."""
    def bind(words, scope):
        vals = []
        for text, toks in _count(words, 0 if cls else count, f"{kind} name(s)"):
            if toks[0][0] != "ident" or len(toks) != 1:
                raise ParseError(f"expected a declared {kind}, found {text!r}", toks[0][2], toks[0][3])
            vals.append(scope.name(text, toks[0][3], kind))
        if cls:
            return cls(vals, names=[text for text, _ in words[1:]])
        return vals[0] if count == 1 else vals
    return bind


def _expression(kind: str):
    """The items of a field as one expression of `kind`."""
    return lambda words, scope: scope.parse(_tokens(words), 0, kind)


_SCALAR, _TUPLE, _VECTOR = _expression("scalar"), _expression("tuple"), _expression("vector")


def _two_scalars(words, scope) -> list:
    return [scope.parse(_tokens([w], 0), 0, "scalar") for w in _count(words, 2, "one-word scalars")]


def _pairs(words, scope) -> list:
    """(f,g) pairs, one word each."""
    pairs = []
    for word in _count(words, 0, "(f,g) pairs"):
        pairs.append(tuple(scope.parse(_tokens([word], 0), 0, "tuple")))
        if len(pairs[-1]) != 2:
            raise ParseError("pairs needs (f,g) pairs", scope.line, word[1][0][3])
    return pairs


def _flag(words, scope) -> bool:
    if len(words) > 1:
        raise ParseError(f"unexpected {words[1][0]!r} after a flag", scope.line, words[1][1][0][3])
    return True


def _first_or_second(words, scope) -> str:
    texts = [text for text, _ in words[1:]]
    if texts not in (["first"], ["second"]):
        raise ParseError("kind must be first or second", scope.line, _tokens(words)[0][3])
    return texts[0]


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


def _with_potentials(chain: CheckReport, v: dict, zt: ZeroTester, d) -> CheckReport:
    """A chain report with d(H_i) = omega_i required, component by component,
    of each given potential H_i and the chain's i-th form, d the chain's
    differential; one equal to the potential the chain found, whose
    differential the chain built or proved to be omega_i, has no residual.
    The chain report is a theorem's precondition too, so a copy is extended."""
    rep, given = chain.copy(), v.get("potentials", ())
    for i, (omega, found, h) in enumerate(zip(rep.data["forms"], rep.data["potentials"], given)):
        residual = () if h == found else (d(h) - omega).items()
        rep.require_zero(f"d(H{i+1}) - omega{i+1}", weakest(zt(e) for _, e in residual))
    return rep


_OPERATOR, _EXTOP = _named("operator"), _named("extop")
_CONTACT, _LCS, _JACOBI = _named("contact"), _named("lcs"), _named("jacobi")
_OPERATORS, _EXTOPS = _named("operator", cls=HaantjesBasis), _named("extop", cls=ExtendedBasis)


def _darboux_contact(words, scope):
    """A contact structure on a darboux-contact chart (the special kinds are
    defined in Darboux coordinates)."""
    decl = _CONTACT(words, scope)
    if decl.payload["parts"][0].chart.kind[0] != "darboux-contact":
        raise ParseError(f"{words[1][0]!r} is not on a darboux-contact chart", scope.line,
                         words[1][1][0][3])
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
    "reeb": (_CONTACT, {"equals": (_VECTOR, False)},
             lambda v, zt: _equals("R", v["args"].reeb, v, zt)),
    "hamiltonian": (_SCALAR, {"on": (_CONTACT, True), "equals": (_VECTOR, False)},
                    lambda v, zt: _equals("X_H", hamiltonian_vf(v["args"], v["on"].jacobi), v, zt)),
    "dissipated": (_SCALAR, {"wrt": (_SCALAR, True), "on": (_CONTACT, True)},
                   lambda v, zt: is_dissipated(v["args"], v["wrt"], v["on"], zt)),
    "bracket": (_two_scalars, {"on": (_JACOBI, True), "equals": (_SCALAR, False)}, _bracket),
    "chain": (_SCALAR, {"with": (_OPERATORS, True), "potentials": (_TUPLE, False)},
              lambda v, zt: _with_potentials(once(verify_chain, v["args"], v["with"], zt), v, zt, d_scalar)),
    "ejh": (_EXTOP, {"on": (_JACOBI, True)}, lambda v, zt: once(check_ejh, v["args"], v["on"], zt)),
    "ext_chain": (_SCALAR, {"with": (_EXTOPS, True), "potentials": (_TUPLE, False)},
                  lambda v, zt: _with_potentials(once(verify_ext_chain, v["args"], v["with"], zt), v, zt,
                                                 lifted_differential)),
    "thm_main": (_SCALAR, {"with": (_EXTOPS, True), "on": (_JACOBI, True)},
                 lambda v, zt: thm_main_check(v["args"], v["with"], v["on"], zt)),
    "lcsh": (_OPERATOR, {"on": (_LCS, True)}, lambda v, zt: once(check_lcsh, v["args"], v["on"], zt)),
    "eta_ke": (_OPERATOR, {"on": (_LCS, True)},
               lambda v, zt: once(eta_KE_check, v["args"], v["on"], zt)),
    "theorem9": (_SCALAR, {"with": (_OPERATORS, True), "on": (_LCS, True)},
                 lambda v, zt: theorem9_check(v["args"], v["with"], v["on"], zt)),
    "techain": (_SCALAR, {"with": (_OPERATORS, True), "on": (_darboux_contact, True),
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
        return _json_text(self.comparable())

    def full_json(self) -> str:
        data = self.comparable()
        data["timing"] = self.timing
        return _json_text(data)

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


def _json_text(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2) + "\n", byte for byte, for
    the types a report holds: dicts with str keys, lists, str, int, float and
    None.  With an indent, json.dumps runs its pure-Python encoder; this
    writer appends to one list and escapes strings with the same C
    escaper."""
    out: list = []
    _write_json(value, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(v, out: list, nl: str) -> None:
    t = type(v)
    if t is str:
        out.append(encode_basestring_ascii(v))
    elif t is dict:
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(v):
            out.append(f"{sep}{encode_basestring_ascii(k)}: ")
            _write_json(v[k], out, inner)
            sep = "," + inner
        out.append(nl + "}" if v else "{}")
    elif t is list:
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write_json(x, out, inner)
            sep = "," + inner
        out.append(nl + "]" if v else "[]")
    elif t is int or t is float:
        out.append(repr(v))
    elif v is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


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
    for key in ("args", *_CLAUSES):
        if key in d.fields:
            parts += ([key] if key != "args" else []) + d.fields[key]
    return " ".join(parts + ["expect", "fail"] * d.expect_fail)


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
