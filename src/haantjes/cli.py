r"""Model language, check runner, and report emission.

A model is a line-oriented text file:

    # comments run to end of line
    chart NAME (id, id, ...) [generic | darboux-contact N | darboux-symplectic N | lcs-local N]
    scalar NAME = <scalar expr>
    form NAME = <form expr>            # d(expr), /\ wedge, scalar * form
    vector NAME = (e1, ..., en)
    bivector NAME = <tuple> /\ <tuple> [+ ...]
    operator NAME = [[...], [...]]
    extop NAME = (OP, VECTOR, FORM, SCALAR)
    contact NAME = FORM
    lcs NAME = (FORM2, FORM1)
    jacobi NAME = (BIVECTOR, VECTOR)
    check <directive ...> [expect fail]

Declarations bind to the most recent chart statement.  Structures are
validated lazily when checks run, because validation itself consumes the
seeded zero tester.  Reports are deterministic for a fixed (model, seed,
samples, tol); wall-times live outside the comparable section.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from . import __version__
from .checks import CheckReport
from .contact import (
    contact_hamiltonian_vf,
    is_dissipated,
    techain_check,
    validate_contact,
)
from .extended import (
    ExtendedBasis,
    ExtendedOperator,
    check_ejh,
    thm_main_check,
    verify_ext_chain,
)
from .geometry import KForm, KVector, Operator11, VectorField, d_scalar, op_commutator, wedge, wedge_v
from .jacobi import check_jh_compatibility, jacobi_bracket, poissonize, validate_jacobi
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
    _Lexer,
    format_expr,
    parse_scalar,
)
from .torsion import (
    HaantjesBasis,
    check_haantjes_algebra,
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

    def declaration(self, name: str) -> Declaration:
        for d in self.declarations:
            if d.name == name:
                return d
        raise KeyError(name)


# -- line-level parsing helpers


def _strip_comment(line: str) -> str:
    out = []
    for ch in line:
        if ch == "#":
            break
        out.append(ch)
    return "".join(out)


def _split_top(text: str, sep: str, line: int) -> list:
    """Split on sep at paren/bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", line, 1)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _expect_wrapped(text: str, open_ch: str, close_ch: str, line: int) -> str:
    t = text.strip()
    if not (t.startswith(open_ch) and t.endswith(close_ch)):
        raise ParseError(f"expected {open_ch}...{close_ch}", line, 1)
    return t[1:-1]


def parse_model(text: str) -> Model:
    model = Model()
    current: Optional[Chart] = None
    names: dict = {}  # name -> (kind, declaration)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
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
            model.directives.append(_parse_directive(rest, current, lineno))
            model.order.append(("check", len(model.directives) - 1))
            continue
        if head not in ("scalar", "form", "vector", "bivector", "operator",
                        "extop", "contact", "lcs", "jacobi"):
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
            _build_declaration(decl, current, names, lineno)
        except _MODEL_ERRORS as exc:
            raise _at_line(exc, lineno) from None
        names[name] = (head, decl)
        model.declarations.append(decl)
        model.order.append(("decl", name))
    _resolve_directives(model, names)
    return model


# What building a declaration or binding a directive raises on bad input.
_MODEL_ERRORS = (ValueError, DomainError)


def _at_line(exc: Exception, line: int) -> ParseError:
    """exc as a parse error of model line `line`; the positions parse_scalar
    reports are relative to the expression, not to the model."""
    return ParseError(getattr(exc, "message", str(exc)), line, 1)


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


def _scalar_env(names: dict, chart: Chart) -> dict:
    env = {}
    for nm, (kind, decl) in names.items():
        if kind == "scalar" and decl.chart_name == chart.name:
            env[nm] = decl.payload["value"]
    return env


def _build_declaration(decl: Declaration, chart: Chart, names: dict, line: int):
    rhs = decl.payload["rhs"]
    env = _scalar_env(names, chart)
    if decl.kind == "scalar":
        decl.payload["value"] = parse_scalar(rhs, chart, env)
    elif decl.kind == "form":
        decl.payload["value"] = _parse_form_expr(rhs, chart, names, env, line)
    elif decl.kind == "vector":
        decl.payload["value"] = _parse_vector(rhs, chart, env, line)
    elif decl.kind == "bivector":
        decl.payload["value"] = _parse_bivector_expr(rhs, chart, names, env, line)
    elif decl.kind == "operator":
        decl.payload["value"] = _parse_operator(rhs, chart, env, line)
    elif decl.kind == "extop":
        inner = _expect_wrapped(rhs, "(", ")", line)
        parts = [p.strip() for p in _split_top(inner, ",", line)]
        if len(parts) != 4:
            raise ParseError("extop needs (operator, vector, form, scalar)", line, 1)
        op = _lookup(names, parts[0], "operator", line)
        vec = _lookup(names, parts[1], "vector", line)
        form = _lookup(names, parts[2], "form", line)
        if parts[3] in names:
            sc = _lookup(names, parts[3], "scalar", line)
        else:
            sc = parse_scalar(parts[3], chart, env)
        decl.payload["value"] = ExtendedOperator(op, vec, form, sc, name=decl.name)
    elif decl.kind == "contact":
        if chart.dim % 2 == 0:
            raise ParseError(f"contact structure on even-dimensional chart {chart.name}", line, 1)
        decl.payload["form"] = _structure_part(names, rhs.strip(), "form", 1, chart, line)
    elif decl.kind == "lcs":
        if chart.dim % 2 == 1:
            raise ParseError(f"lcs structure on odd-dimensional chart {chart.name}", line, 1)
        inner = _expect_wrapped(rhs, "(", ")", line)
        parts = [p.strip() for p in _split_top(inner, ",", line)]
        if len(parts) != 2:
            raise ParseError("lcs needs (2-form, 1-form)", line, 1)
        decl.payload["omega"] = _structure_part(names, parts[0], "form", 2, chart, line)
        decl.payload["eta"] = _structure_part(names, parts[1], "form", 1, chart, line)
    elif decl.kind == "jacobi":
        inner = _expect_wrapped(rhs, "(", ")", line)
        parts = [p.strip() for p in _split_top(inner, ",", line)]
        if len(parts) != 2:
            raise ParseError("jacobi needs (bivector, vector)", line, 1)
        decl.payload["lam"] = _structure_part(names, parts[0], "bivector", 2, chart, line)
        decl.payload["e"] = _structure_part(names, parts[1], "vector", None, chart, line)


def _structure_part(names: dict, name: str, kind: str, degree: Optional[int],
                    chart: Chart, line: int):
    """A declared part of a structure: on the structure's chart and, for a
    form or bivector, of the given degree (the validators assume both)."""
    value = _lookup(names, name, kind, line)
    if value.chart != chart:
        raise ParseError(f"{name!r} is on chart {value.chart.name}, not {chart.name}", line, 1)
    if degree is not None and value.degree != degree:
        raise ParseError(f"{name!r} has degree {value.degree}, expected {degree}", line, 1)
    return value


def _lookup(names: dict, name: str, kind: str, line: int):
    if name not in names:
        raise ParseError(f"unknown identifier {name!r}", line, 1)
    got, decl = names[name]
    if got != kind:
        raise ParseError(f"{name!r} is a {got}, expected {kind}", line, 1)
    return decl.payload["value"] if "value" in decl.payload else decl


def _parse_tuple(text: str, chart: Chart, env: dict, line: int) -> list:
    inner = _expect_wrapped(text, "(", ")", line)
    return [parse_scalar(p, chart, env) for p in _split_top(inner, ",", line)]


def _parse_vector(text: str, chart: Chart, env: dict, line: int) -> VectorField:
    comps = _parse_tuple(text, chart, env, line)
    if len(comps) != chart.dim:
        raise ParseError(f"vector needs {chart.dim} components, got {len(comps)}", line, 1)
    return VectorField(chart, comps)


def _parse_operator(text: str, chart: Chart, env: dict, line: int) -> Operator11:
    inner = _expect_wrapped(text, "[", "]", line)
    rows = []
    for chunk in _split_top(inner, ",", line):
        chunk = chunk.strip()
        if not chunk:
            continue
        row_txt = _expect_wrapped(chunk, "[", "]", line)
        rows.append([parse_scalar(p, chart, env) for p in _split_top(row_txt, ",", line)])
    if not rows:
        raise ParseError("empty operator", line, 1)
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ParseError(f"row length mismatch at line {line}", line, 1)
    if len(rows) != chart.dim or width != chart.dim:
        raise ParseError(f"operator must be {chart.dim}x{chart.dim}", line, 1)
    return Operator11(chart, rows)


def _parse_form_expr(text: str, chart: Chart, names: dict, env: dict, line: int) -> KForm:
    """Sums of products of scalar factors and form primaries (d(expr),
    form names, parenthesised sub-expressions) joined by * and /\\ ."""
    total: Optional[KForm] = None
    for signed in _signed_terms(text, line):
        sign, term = signed
        val = _parse_graded_term(term, chart, names, env, line, vector_mode=False)
        if isinstance(val, Expr):
            raise ParseError("scalar where a form was expected", line, 1)
        if sign < 0:
            val = -val
        total = val if total is None else total + val
    if total is None:
        raise ParseError("empty form expression", line, 1)
    return total


def _parse_bivector_expr(text: str, chart: Chart, names: dict, env: dict, line: int) -> KVector:
    total: Optional[KVector] = None
    for sign, term in _signed_terms(text, line):
        val = _parse_graded_term(term, chart, names, env, line, vector_mode=True)
        if isinstance(val, Expr):
            raise ParseError("scalar where a bivector was expected", line, 1)
        if sign < 0:
            val = -val
        total = val if total is None else total + val
    if total is None or total.degree != 2:
        raise ParseError("bivector expression must have degree 2", line, 1)
    return total


def _signed_terms(text: str, line: int):
    """Split a sum into (sign, term) pieces at depth zero."""
    depth = 0
    cur = []
    sign = 1
    first = True
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in "+-":
            # a sign right after an operator is unary and stays with its factor
            last = "".join(cur).rstrip()[-1:]
            if last and last not in "*/\\^(,+-":
                yield sign, "".join(cur).strip()
                sign = 1 if ch == "+" else -1
                cur = []
                first = False
                continue
            if not last and first:
                sign = 1 if ch == "+" else -1
                first = False
                continue
        cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        yield sign, tail


def _split_factors(term: str, line: int):
    """Split a term into factors at * and /\\ (depth zero), keeping ops."""
    depth = 0
    cur = []
    i = 0
    ops = []
    factors = []
    while i < len(term):
        ch = term[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch == "/" and i + 1 < len(term) and term[i + 1] == "\\":
            factors.append("".join(cur).strip())
            ops.append("wedge")
            cur = []
            i += 2
            continue
        if depth == 0 and ch == "*":
            factors.append("".join(cur).strip())
            ops.append("mul")
            cur = []
            i += 1
            continue
        cur.append(ch)
        i += 1
    factors.append("".join(cur).strip())
    return factors, ops


def _parse_graded_term(term: str, chart: Chart, names: dict, env: dict, line: int, vector_mode: bool):
    factors, ops = _split_factors(term, line)
    scalar = chart.one()
    graded = None
    for idx, ftxt in enumerate(factors):
        op = ops[idx - 1] if idx else None
        val = _parse_factor(ftxt, chart, names, env, line, vector_mode)
        if isinstance(val, Expr):
            if op == "wedge":
                raise ParseError("/\\ needs graded operands", line, 1)
            scalar = scalar * val
            continue
        if graded is None:
            graded = val
        elif op == "wedge" or vector_mode:
            graded = wedge_v(graded, val) if vector_mode else wedge(graded, val)
        else:
            raise ParseError("use /\\ to multiply graded objects", line, 1)
    if graded is None:
        return scalar
    return graded.scale(scalar)


def _parse_factor(text: str, chart: Chart, names: dict, env: dict, line: int, vector_mode: bool):
    t = text.strip()
    if not t:
        raise ParseError("empty factor", line, 1)
    if t.startswith("-"):
        return -_parse_factor(t[1:], chart, names, env, line, vector_mode)
    if not vector_mode and (t.startswith("d(") or t.startswith("d (")):
        inner = t[t.index("(") + 1 : -1] if t.endswith(")") else None
        if inner is None:
            raise ParseError("unterminated d(...)", line, 1)
        return d_scalar(parse_scalar(inner, chart, env))
    if vector_mode and t.startswith("(") and t.endswith(")") and "," in t:
        return KVector.from_vector(_parse_vector(t, chart, env, line))
    if t in names:
        kind, decl = names[t]
        if not vector_mode and kind == "form":
            return decl.payload["value"]
        if vector_mode and kind == "vector":
            return KVector.from_vector(decl.payload["value"])
        if kind == "scalar":
            return decl.payload["value"]
    if t.startswith("(") and t.endswith(")"):
        inner = t[1:-1]
        if _contains_graded(inner, names):
            if vector_mode:
                return _parse_bivector_expr(inner, chart, names, env, line)
            return _parse_form_expr(inner, chart, names, env, line)
        return parse_scalar(inner, chart, env)
    return parse_scalar(t, chart, env)


def _contains_graded(text: str, names: dict) -> bool:
    if "/\\" in text or "d(" in text.replace(" ", ""):
        return True
    for nm, (kind, _) in names.items():
        if kind in ("form", "vector") and nm in text:
            return True
    return False


# -- directives
#
# `check VERB ARGS [CLAUSE TOKENS ...] [expect fail]`.  A verb's row in
# _VERBS gives the kind of its arguments, the kind of each clause it takes
# and its handler; _resolve_directives binds every field through its kind
# at parse time.  A kind is called as kind(tokens, chart, names, line).

# Clause keywords, in the order fmt writes them.
_CLAUSES = ("wrt", "with", "on", "kind", "equals", "potentials", "pairs", "abelian")


def _parse_directive(rest: str, chart: Optional[Chart], line: int) -> Directive:
    tokens = rest.split()
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
            raise _at_line(exc, d.line) from None


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
    and is validated on first use at run time, because validation consumes
    the seeded zero tester."""
    def bind(toks, chart, names, line):
        if len(toks) != count:
            raise ParseError(f"expected {count} {kind} name(s), got {len(toks)}", line, 1)
        vals = [_lookup(names, t, kind, line) for t in toks]
        return vals[0] if count == 1 else vals
    return bind


def _basis(cls, kind: str):
    """One or more names of `kind`, bound as a `cls` basis labelled by them."""
    def bind(toks, chart, names, line):
        return cls([_lookup(names, t, kind, line) for t in toks], names=list(toks))
    return bind


def _checked_env(text: str, chart: Chart, names: dict, line: int) -> dict:
    """The scalars of chart, once every bare name in the scalar text is a
    coordinate or one of them; a called name (exp, an abstract function)
    may be anything."""
    env = _scalar_env(names, chart)
    toks = _Lexer(text).tokens
    for (kind, name, *_), nxt in zip(toks, toks[1:]):
        if kind == "ident" and nxt[0] != "(" and name not in env and name not in chart.coords:
            _lookup(names, name, "scalar", line)
            raise ParseError(f"scalar {name!r} is not declared on chart {chart.name}", line, 1)
    return env


def _scalar(toks, chart, names, line) -> Expr:
    text = " ".join(toks)
    return parse_scalar(text, chart, _checked_env(text, chart, names, line))


def _two_scalars(toks, chart, names, line) -> list:
    if len(toks) != 2:
        raise ParseError(f"expected two one-token scalars, got {len(toks)}", line, 1)
    return [_scalar([t], chart, names, line) for t in toks]


def _tuple(toks, chart, names, line) -> list:
    text = " ".join(toks)
    return _parse_tuple(text, chart, _checked_env(text, chart, names, line), line)


def _vector(toks, chart, names, line) -> VectorField:
    text = " ".join(toks)
    return _parse_vector(text, chart, _checked_env(text, chart, names, line), line)


def _pairs(toks, chart, names, line) -> list:
    """(f,g) pairs, one token each."""
    env = _checked_env(" ".join(toks), chart, names, line)
    pairs = [tuple(_parse_tuple(t, chart, env, line)) for t in toks]
    if not pairs or any(len(p) != 2 for p in pairs):
        raise ParseError("pairs needs (f,g) pairs", line, 1)
    return pairs


def _flag(toks, chart, names, line) -> bool:
    if toks:
        raise ParseError(f"unexpected {toks[0]!r} after a flag", line, 1)
    return True


def _first_or_second(toks, chart, names, line) -> str:
    if toks not in (["first"], ["second"]):
        raise ParseError("kind must be first or second", line, 1)
    return toks[0]


# -- handlers: (values, zt) -> CheckReport, structures already validated


def _commute(v: dict, zt: ZeroTester) -> CheckReport:
    rep = CheckReport("commute")
    for i, row in enumerate(op_commutator(*v["args"]).matrix):
        for j, e in enumerate(row):
            if not e.is_zero_expr():
                rep.require_zero(f"[{i}][{j}]", zt(e))
    return rep


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


def _chain(v: dict, zt: ZeroTester) -> CheckReport:
    chain = verify_chain(v["args"], v["with"], zt)
    rep = CheckReport("chain")
    rep.status = chain.status
    for nm, cert in chain.closedness:
        rep.details.append((f"closed {nm}", cert))
    _require_potentials(rep, chain.potentials, v, zt)
    if chain.frobenius is not None:
        rep.merge(chain.frobenius)
    rep._update_certainty()
    return rep


def _ext_chain(v: dict, zt: ZeroTester) -> CheckReport:
    rep = verify_ext_chain(v["args"], v["with"], zt)
    return _require_potentials(rep, rep.data["potentials"], v, zt)


def _require_potentials(rep: CheckReport, pots: list, v: dict, zt: ZeroTester) -> CheckReport:
    for i, (got, want) in enumerate(zip(pots, v.get("potentials", ()))):
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
    if decl.payload["form"].chart.kind[0] != "darboux-contact":
        raise ParseError(f"{toks[0]!r} is not on a darboux-contact chart", line, 1)
    return decl


# verb -> (argument kind, {clause: (kind, required)}, handler).  Handlers
# call library functions by their global name, so that tracing that
# rebinds those names sees every call.
_VERBS = {
    "haantjes": (_OPERATOR, {}, lambda v, zt: is_haantjes(v["args"], zt)),
    "algebra": (_OPERATORS, {"abelian": (_flag, False)}, lambda v, zt: check_haantjes_algebra(
        replace(v["args"], abelian_required="abelian" in v), zt)),
    "commute": (_named("operator", 2), {}, _commute),
    "jacobi": (_JACOBI, {}, lambda v, zt: v["args"].validity),
    "contact": (_CONTACT, {}, lambda v, zt: v["args"].validity),
    "lcs": (_LCS, {}, lambda v, zt: v["args"].validity),
    "reeb": (_CONTACT, {"equals": (_vector, False)},
             lambda v, zt: _equals("R", v["args"].reeb, v, zt)),
    "hamiltonian": (_scalar, {"on": (_CONTACT, True), "equals": (_vector, False)},
                    lambda v, zt: _equals("X_H", contact_hamiltonian_vf(v["args"], v["on"]), v, zt)),
    "dissipated": (_scalar, {"wrt": (_scalar, True), "on": (_CONTACT, True)},
                   lambda v, zt: is_dissipated(v["args"], v["wrt"], v["on"], zt)),
    "bracket": (_two_scalars, {"on": (_JACOBI, True), "equals": (_scalar, False)}, _bracket),
    "chain": (_scalar, {"with": (_OPERATORS, True), "potentials": (_tuple, False)}, _chain),
    "ejh": (_EXTOP, {"on": (_JACOBI, True)}, lambda v, zt: check_ejh(v["args"], v["on"], zt)),
    "ext_chain": (_scalar, {"with": (_EXTOPS, True), "potentials": (_tuple, False)}, _ext_chain),
    "thm_main": (_scalar, {"with": (_EXTOPS, True), "on": (_JACOBI, True)},
                 lambda v, zt: thm_main_check(v["args"], v["with"], v["on"], zt)),
    "lcsh": (_OPERATOR, {"on": (_LCS, True)}, lambda v, zt: check_lcsh(v["args"], v["on"], zt)),
    "eta_ke": (_OPERATOR, {"on": (_LCS, True)}, lambda v, zt: eta_KE_check(v["args"], v["on"], zt)),
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


class _Runtime:
    """The zero tester of one run and the structures it has validated."""

    def __init__(self, zt: ZeroTester):
        self.zt = zt
        self.structs: dict = {}

    def structure(self, decl: Declaration):
        s = self.structs.get(decl.name)
        if s is None:
            p = decl.payload
            if decl.kind == "contact":
                s = validate_contact(p["form"], self.zt)
            elif decl.kind == "lcs":
                s = validate_lcs(p["omega"], p["eta"], self.zt)
            else:
                s = validate_jacobi(p["lam"], p["e"], self.zt)
            self.structs[decl.name] = s
        return s


# What a well-formed model can still raise while its checks run; anything
# else is a fault of the toolkit and propagates.
_RUN_ERRORS = (BudgetError, DomainError, SubstitutionError, ChartMismatch)


def run_checks(model: Model, seed: int = 0, samples: int = 16, tol: float = 1e-9,
               fail_fast: bool = False) -> Report:
    zt = ZeroTester(seed=seed, samples=samples, tol=tol)
    rt = _Runtime(zt)
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
            sub = _execute(d, rt)
            sub._update_certainty()
            status = sub.status
            cert = sub.certainty.tag if sub.certainty else None
            witness = _jsonable(sub.witness)
            notes = list(sub.notes)
            if any("internal-inconsistency" in n for n in notes):
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


def _execute(d: Directive, rt: _Runtime) -> CheckReport:
    v = {k: rt.structure(x) if isinstance(x, Declaration) else x for k, x in d.values.items()}
    return _VERBS[d.verb][2](v, rt.zt)


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
            lines.append(_format_declaration(d, model.charts[d.chart_name]))
        else:
            d = model.directives[key]
            lines.append("check " + _format_directive(d))
    return "\n".join(lines) + "\n"


def _format_declaration(d: Declaration, chart: Chart) -> str:
    if d.kind == "scalar":
        return f"scalar {d.name} = {format_expr(d.payload['value'])}"
    if d.kind == "form":
        return f"form {d.name} = {_format_form(d.payload['value'])}"
    if d.kind == "vector":
        v = d.payload["value"]
        return f"vector {d.name} = ({', '.join(format_expr(e) for e in v.components)})"
    if d.kind == "bivector":
        return f"bivector {d.name} = {_format_bivector(d.payload['value'])}"
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


def _format_form(f: KForm) -> str:
    chart = f.chart
    if f.is_zero():
        return f"0 * d({chart.coords[0]})"
    parts = []
    for idx, val in f.items():
        wedge_txt = " /\\ ".join(f"d({chart.coords[i]})" for i in idx)
        parts.append(f"({format_expr(val)}) * {wedge_txt}")
    return " + ".join(parts)


def _format_bivector(b: KVector) -> str:
    chart = b.chart
    parts = []
    for (i, j), val in b.items():
        ei = ", ".join("1" if a == i else "0" for a in range(chart.dim))
        ej = ", ".join("1" if a == j else "0" for a in range(chart.dim))
        parts.append(f"({format_expr(val)}) * ({ei}) /\\ ({ej})")
    return " + ".join(parts) if parts else "0 * (" + ", ".join("0" for _ in chart.coords) + ")"


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
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(report.full_json())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
