import itertools
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

from haantjes import cli, contact, extended, jacobi, lcs, torsion
from haantjes.checks import memo_scope, once
from haantjes.cli import Model, format_model, main, parse_model, run_checks
from haantjes.geometry import Operator11
from haantjes.symexpr import BudgetError, ChartMismatch, Expr, ParseError, ZeroTester

from conftest import declared

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"


MINI = """
chart C (q, p, z) darboux-contact 1
scalar H = p - z
form theta = d(z) - p * d(q)
contact CS = theta
check dissipated p wrt H on CS
"""


class TestParsing:
    def test_chart_statement(self):
        m = parse_model("chart C (q,p,z) darboux-contact 1")
        assert m.charts["C"].kind == ("darboux-contact", 1)
        assert m.charts["C"].coords == ("q", "p", "z")

    def test_scalar_and_directive(self):
        m = parse_model(MINI)
        assert m.declarations[0].name == "H"
        d = m.directives[0]
        assert d.verb == "dissipated"
        assert d.fields == {"args": ["p"], "wrt": ["H"], "on": ["CS"]}

    def test_row_length_mismatch(self):
        text = "chart C (q,p) darboux-symplectic 1\noperator K = [[1,2],[3]]"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert "row length mismatch at line 2" in str(err.value)

    def test_unknown_identifier_in_check(self):
        text = "chart C (q,p) generic\ncheck haantjes NOPE"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert "NOPE" in str(err.value)

    def test_tuple_names(self):
        # coordinates, scalars of the chart, exp and abstract-function calls
        text = (MINI + "operator K = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]\n"
                "check chain H with K potentials (exp(q) * g(q, p) - H)\n")
        model = parse_model(text)
        (pot,) = model.directives[-1].values["potentials"]
        assert str(pot) == "-p + z + g(q,p)*exp(q)"
        with pytest.raises(ParseError) as err:
            parse_model(text.replace("- H)", "- G)"))
        assert "'G'" in str(err.value)

    def test_redeclaration_rejected(self):
        text = "chart C (q,p) generic\nscalar a = q\nscalar a = p"
        with pytest.raises(ParseError):
            parse_model(text)

    def test_form_wedge_and_scale(self):
        text = ("chart C (q,p) lcs-local 1\n"
                "form om = exp(q) * d(q) /\\ d(p)\n"
                "form tot = om + 2 * d(q) /\\ d(p)")
        m = parse_model(text)
        om = declared(m, "tot")
        assert om.degree == 2
        # a unary minus on a factor inside a product
        m = parse_model("chart C (x,y) generic\n"
                        "form a = 2 * -x * d(y)\n"
                        "form b = -2 * x * d(y)")
        assert declared(m, "a") == declared(m, "b")

    def test_bivector_tuples(self):
        text = ("chart C (q,p,z) darboux-contact 1\n"
                "bivector L = (1, 0, p) /\\ (0, 1, 0)")
        m = parse_model(text)
        lam = declared(m, "L")
        assert lam.degree == 2
        assert lam[(0, 1)] == m.charts["C"].one()

    def test_form_name_inside_a_function_name(self):
        # `e` is declared and is a substring of `exp`; it must not make the
        # scalar factor a graded operand
        m = parse_model("chart C (q, p) generic\nform e = d(q)\n"
                        "form t = (exp(q) + 1) * d(p)")
        assert repr(declared(m, "t")) == "(1 + exp(q)) d[p]"

    def test_form_divided_by_scalar(self):
        m = parse_model("chart C (q, p) generic\nform t = d(q) / 2")
        assert repr(declared(m, "t")) == "(1/2) d[q]"

    def test_one_element_potentials_tuple(self):
        text = MINI + "operator K = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]\n"
        m = parse_model(text + "check chain H with K potentials (p - z)\n")
        assert [str(e) for e in m.directives[-1].values["potentials"]] == ["p - z"]

    def test_bundled_models_parse(self):
        for f in MODELS.glob("*.hj"):
            parse_model(f.read_text())


class TestModelLines:
    """Each model line is lexed once by the expression lexer and its
    statement read from those tokens, so a chart coordinate or a declared
    name is an identifier, and a malformed line fails at its token's column."""

    @pytest.mark.parametrize("text,line,col", [
        ("chart C (x y, z)\n", 1, 12),            # a coordinate of two words
        ("chart C (x, 1)\n", 1, 13),              # a number
        ("chart C (q1/, p)\n", 1, 12),            # an operator after the name
        ("chart L2B (x, lcs-local 1\n", 1, 18),   # no ')': the '-' ends the coordinate
        ("chart C (_modf, y)\n", 1, 10),          # kept for the verifier's own symbols
        ("chart C (q, with)\n", 1, 13),           # a clause keyword
        ("chart C (q, p)\nscalar on = p\n", 2, 8),
        ("chart C (q, p)\nform expect = d(q)\n", 2, 6),
        ("chart C (q, p)\nscalar _h = p\n", 2, 8),
        ("chart C (q, p) lcs - local 1\n", 1, 16),  # a kind is one word
        ("chart C (q, p)\nscalar H p\n", 2, 10),
        ("chart C (q, p)\ncheck haantjes K expect\n", 2, 24),
    ])
    def test_malformed_line_at_its_column(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert (err.value.line, err.value.col) == (line, col), err.value

    def test_directive_words(self):
        # a word is a run of tokens with no blank between them: `(q,p)` is
        # one pair, and fields keep the words as written
        m = parse_model((MODELS / "example_p_minus_z.hj").read_text())
        poissonize = next(d for d in m.directives if d.verb == "poissonize")
        assert poissonize.fields == {"args": ["JJ"], "pairs": ["(q,p)", "(p,z)"]}
        # a blank splits `(q, p)` into two words, and `(q,` ends too soon
        with pytest.raises(ParseError) as err:
            parse_model("chart C (q, p)\nscalar H = q\ncheck bracket (q, p) on J\n")
        assert str(err.value) == "3:18: unexpected end of input"

    def test_edited_models_fail_in_their_line_or_format_stably(self):
        # a one- or two-character edit of a bundled model is refused at a
        # line of the text and a column inside that line, or it parses, and
        # then its fmt text parses to the same fmt text
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        texts = [path.read_text() for path in sorted(MODELS.glob("*.hj"))]
        pieces = [*" \t\n()[],-_=#/\\*+^1xqpz", "é", "$", "on", "with", "expect"]
        edit = st.tuples(st.integers(0, 10**4), st.sampled_from(["delete", "insert", "replace"]),
                         st.sampled_from(pieces))

        @hyp.settings(derandomize=True, database=None, max_examples=400, deadline=None)
        @hyp.given(st.sampled_from(texts), st.lists(edit, min_size=1, max_size=2))
        def prop(text, edits):
            for at, how, piece in edits:
                at %= len(text)
                text = text[:at] + ("" if how == "delete" else piece) + text[at + (how != "insert"):]
            try:
                formatted = format_model(parse_model(text))
            except ParseError as exc:
                lines = text.splitlines()
                assert 1 <= exc.line <= len(lines) and 1 <= exc.col <= len(lines[exc.line - 1]) + 1, exc
                return
            assert format_model(parse_model(formatted)) == formatted

        prop()


class TestRunner:
    def test_empty_model(self):
        rep = run_checks(parse_model("chart C (q,p) generic"), seed=1)
        assert rep.exit_code == 0 and rep.entries == []

    def test_mini_model(self):
        rep = run_checks(parse_model(MINI), seed=1)
        assert rep.exit_code == 0
        assert rep.entries[0]["status"] == "pass"

    def test_expect_fail_inverts(self):
        text = MINI + "check dissipated q wrt H on CS expect fail\n"
        rep = run_checks(parse_model(text), seed=1)
        assert rep.exit_code == 0

    def test_failing_directive_exit_code(self):
        text = MINI + "check dissipated q wrt H on CS\n"
        rep = run_checks(parse_model(text), seed=1)
        assert rep.exit_code == 1

    def test_fail_fast_stops(self):
        text = (MINI
                + "check dissipated q wrt H on CS\n"
                + "check dissipated p wrt H on CS\n")
        rep = run_checks(parse_model(text), seed=1, fail_fast=True)
        assert len(rep.entries) == 2

    def test_determinism_byte_identical(self):
        for f in MODELS.glob("*.hj"):
            model = parse_model(f.read_text())
            a = run_checks(model, seed=42).comparable_text()
            b = run_checks(model, seed=42).comparable_text()
            assert a == b, f.name

    def test_golden_reports(self):
        for f in MODELS.glob("*.hj"):
            golden = MODELS / "golden" / (f.stem + ".json")
            model = parse_model(f.read_text())
            rep = run_checks(model, seed=42, samples=16, tol=1e-9)
            rep.meta["model"] = f.name
            assert rep.comparable_text() == golden.read_text(), f.name

    def test_timing_excluded_from_comparable(self):
        rep = run_checks(parse_model(MINI), seed=1)
        comp = json.loads(rep.comparable_text())
        assert "timing" not in comp
        full = json.loads(rep.full_json())
        assert "timing" in full


TECHAIN_MODEL = """
chart M5 (q1, q2, p1, p2, z) darboux-contact 2
form theta5 = d(z) - p1 * d(q1) - p2 * d(q2)
contact CS5 = theta5
operator KG = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [p1, 0, 0, 0, 1]]
scalar H5 = q1^2 + q2
check haantjes KG
check techain H5 with KG on CS5 kind second
check techain H5 with KG on CS5 kind first expect fail
"""


class TestDirectiveSurface:
    def test_techain_directive(self):
        rep = run_checks(parse_model(TECHAIN_MODEL), seed=3)
        assert rep.exit_code == 0, [e for e in rep.entries if e["status"] != "pass"]


DEGENERATE = {
    "contact": """
chart C (q, p, z) darboux-contact 1
form theta = d(z)
contact S = theta
operator K = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
""",
    "lcs": """
chart L (q, p) lcs-local 1
form omega = 0 * d(q) /\\ d(p)
lcs S = (omega, d(q))
operator K = [[1, 0], [0, 1]]
""",
    # [L,L] = 0, but 2 E ^ L = 2 d_z ^ d_q ^ d_p
    "jacobi": """
chart G (q, p, z) generic
bivector L = (1, 0, 0) /\\ (0, 1, 0)
jacobi S = (L, (0, 0, 1))
""",
}


class TestUnvalidatedStructure:
    """A directive on a structure that failed validation is undecided, with
    a note naming the structure; the structure's own directive reports the
    failed validation."""

    @pytest.mark.parametrize("kind, directive", [
        ("contact", "hamiltonian p on S"),
        ("contact", "dissipated p wrt p on S"),
        ("contact", "techain q with K on S kind first"),
        ("contact", "reeb S"),
        ("lcs", "theorem9 q with K on S"),
        ("lcs", "lcsh K on S"),
        ("lcs", "eta_ke K on S"),
        ("jacobi", "bracket q p on S equals 1"),
    ])
    def test_directive_is_unknown(self, kind, directive):
        text = DEGENERATE[kind] + f"check {kind} S\ncheck {directive}\n"
        rep = run_checks(parse_model(text), seed=1)
        own, entry = rep.entries
        assert own["status"] == "fail"
        assert (entry["status"], entry["notes"]) == ("unknown", [f"{kind} S did not validate: fail"])
        assert rep.exit_code == 1


class TestReportType:
    def test_internal_inconsistency_exit_3(self):
        rep = run_checks(parse_model(MINI), seed=1)
        assert rep.exit_code == 0
        rep.internal_inconsistency = True
        assert rep.exit_code == 3

    def test_ejh_route_disagreement_in_thm_main_exits_3(self, monkeypatch):
        # the theorem's preconditions rerun the EJH check; routes that
        # disagree there are a toolkit bug, not a failed theorem
        real = extended.check_ejh

        def disagreeing(ek, j, zt):
            rep = real(ek, j, zt)
            rep.data["routes_agree"] = False
            return rep

        monkeypatch.setattr(extended, "check_ejh", disagreeing)
        rep = run_checks(parse_model((MODELS / "example_p_minus_z.hj").read_text()), seed=1)
        thm = [e for e in rep.entries if " thm_main " in e["name"]]
        assert [e["status"] for e in thm] == ["fail"]
        assert rep.exit_code == 3

    def test_runtime_error_surfaces_as_unknown(self, monkeypatch):
        # directives that blow up at run time with one of the library's own
        # errors (here: a chart mismatch) surface as unknown entries with the
        # reason recorded, never as a crash
        def mismatched(*args):
            raise ChartMismatch("C vs D")

        monkeypatch.setattr(cli, "is_dissipated", mismatched)
        rep = run_checks(parse_model(MINI), seed=1)
        assert rep.entries[0]["status"] == "unknown"
        assert any("ChartMismatch" in n for n in rep.entries[0]["notes"])
        assert rep.exit_code == 1

    def test_budget_error_in_potential_recovery_is_unknown(self, monkeypatch):
        # a blow-up while summing a potential leaves the chain undecided; it
        # must not read as "potential unavailable", which fails the check
        def over_budget(pairs):
            raise BudgetError("node budget exceeded")

        monkeypatch.setattr(torsion, "_t_dot", over_budget)
        rep = run_checks(parse_model((MODELS / "example_p_minus_z.hj").read_text()), seed=1)
        chain = next(e for e in rep.entries if e["name"].startswith("15 chain "))
        assert chain["status"] == "unknown"
        assert chain["notes"] == ["BudgetError: node budget exceeded"]
        assert rep.exit_code == 1

    def test_toolkit_error_propagates(self, monkeypatch):
        # only the library's own errors become unknown; a fault in the
        # toolkit itself must not be reported as an undecided check
        def broken(v, zt):
            raise TypeError("handler bug")

        args, clauses, _ = cli._VERBS["dissipated"]
        monkeypatch.setitem(cli._VERBS, "dissipated", (args, clauses, broken))
        with pytest.raises(TypeError, match="handler bug"):
            run_checks(parse_model(MINI), seed=1)


def _entries(model):
    """A run's entries without their names, which number the directives."""
    return [{k: v for k, v in e.items() if k != "name"} for e in run_checks(model, seed=42).entries]


def _scope_open() -> bool:
    calls = []
    once(calls.append, 1)
    once(calls.append, 1)
    return len(calls) == 1


def _count_calls(monkeypatch, name):
    """The argument tuples of every call of the library function `name`,
    through every module that binds it (one wrapper, so memo keys match)."""
    layers = (cli, torsion, extended, jacobi, contact, lcs)
    real = next(getattr(m, name) for m in layers if hasattr(m, name))
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for m in layers:
        if getattr(m, name, None) is real:
            monkeypatch.setattr(m, name, counted)
    return calls


class TestRunMemo:
    """A run decides each sub-check once: theorems reuse the verdicts of the
    preconditions the run has already checked."""

    @pytest.mark.parametrize("path", sorted(MODELS.glob("*.hj")), ids=lambda p: p.stem)
    def test_entries_do_not_depend_on_the_other_directives(self, path):
        model = parse_model(path.read_text())
        whole = _entries(model)
        assert [_entries(replace(model, directives=[d]))[0] for d in model.directives] == whole
        # the checks reversed within each chart section
        sections = itertools.groupby(range(len(whole)), key=lambda i: model.directives[i].chart_name)
        order = [i for _, section in sections for i in reversed(list(section))]
        reordered = _entries(replace(model, directives=[model.directives[i] for i in order]))
        assert [reordered[order.index(i)] for i in range(len(whole))] == whole

    @pytest.mark.parametrize("stem, counts", [
        # 10, not 14: each ring square K*K of a Haantjes generator K reads
        # the generator's torsion, since H_K = 0 gives H_{p(K)} = 0; 4
        # commutators for 6 uses, since `commute F1A F1B` and `algebra F1A
        # F1B abelian` share one, as do the F2 pair; 17 entry jets, one per
        # distinct entry up to sign of the 10 torsions' 32; 5 shape passes,
        # since the generators of a family have one shape, and so does h*A + B
        ("appendix_families", {"haantjes_torsion": 10, "op_commutator": 4, "_jet": 17,
                               "_shape_is_zero": 5}),
        # 2 commutators: thm_main's [EK1, EK2] of the lifts and [K1, K2];
        # one lift per extended operator and one Lambda^ for the Jacobi pair
        # (4 lifts and 3 Lambda^ before both went through the memo)
        ("example_p_minus_z", {"check_ejh": 2, "verify_ext_chain": 1, "generic_rank": 2,
                               "op_commutator": 2, "_shape_is_zero": 0, "_lift": 2,
                               "lambda_hat": 1}),
        ("lcs_example", {"check_lcsh": 4, "eta_KE_check": 3, "validate_jacobi": 0,
                         "generic_rank": 3, "_shape_is_zero": 0}),
    ])
    def test_each_sub_check_runs_once(self, monkeypatch, stem, counts):
        # at the parent of the memo: 18 torsions; 4 check_ejh, 2
        # verify_ext_chain and 4 generic_rank; 6 check_lcsh, 5 eta_KE_check,
        # 3 validate_jacobi and 6 generic_rank.  Before commutators and jets
        # went through the memo: 4 op_commutator calls, and the two abelian
        # tests each subtracted two ring products; 32 entry jets (160
        # Expr.diff calls); thm_main took 1 op_commutator call and 2
        # op_compose.  Before shapes were decided once per run, each of the
        # 10 torsions made a pattern pass or an expanded build of its own
        calls = {name: _count_calls(monkeypatch, name) for name in counts}
        run_checks(parse_model((MODELS / f"{stem}.hj").read_text()), seed=42)
        assert {name: len(c) for name, c in calls.items()} == counts

    def test_no_scope_outlives_a_run(self, monkeypatch):
        assert not _scope_open()
        run_checks(parse_model(MINI), seed=1)
        assert not _scope_open()

        def broken(v, zt):
            assert _scope_open()
            raise TypeError("handler bug")

        args, clauses, _ = cli._VERBS["dissipated"]
        monkeypatch.setitem(cli._VERBS, "dissipated", (args, clauses, broken))
        with pytest.raises(TypeError, match="handler bug"):
            run_checks(parse_model(MINI), seed=1)
        assert not _scope_open()
        with memo_scope():
            assert _scope_open()
        assert not _scope_open()

    def test_keys_by_value_or_by_identity(self, contact1):
        calls = []

        def f(*args):
            calls.append(args)
            return len(calls)

        p = contact1.coord(1)
        a, b = [p], [p]
        with memo_scope():
            assert once(f, p + 1, a) == once(f, p + 1, a) == 1   # equal Expr, same list
            assert once(f, p + 1, b) == 2                          # an equal list is another key
            assert once(f, p + 2, a) == 3
        assert once(f, p + 1, a) == 4                              # no scope: a plain call

    def test_operator_key_hashes_its_entries_once(self, monkeypatch):
        # an Operator11 memo key fills its hash slot on the first __hash__,
        # so N lookups of one 5x5 operator hash its 25 entries once, not N
        # times; an equal copy of a stored key is compared, not re-hashed
        model = parse_model((MODELS / "appendix_families.hj").read_text())
        k = next(d.payload["value"] for d in model.declarations if d.kind == "operator")
        assert k.chart.dim == 5
        zt = ZeroTester(seed=42)
        hashed = []
        real = Expr.__hash__

        def counted(e):
            hashed.append(e)
            return real(e)

        with memo_scope():
            first = once(torsion.is_haantjes, k, zt)
            copy = Operator11(k.chart, k.matrix)
            monkeypatch.setattr(Expr, "__hash__", counted)
            for _ in range(10):
                assert once(torsion.is_haantjes, copy, zt) is first
            monkeypatch.undo()
        assert len(hashed) == 25
        assert copy == k and copy == copy and hash(copy) == hash(k)

    @pytest.mark.parametrize("directive,status,certainty", [
        # potentials are defined up to a constant, and exist for exp terms
        ("chain q + p with I K potentials (q + p + 1, q*q/2 + p*p/2)", "pass", "proven_zero"),
        ("chain exp(q) + p with I potentials (exp(q) + p)", "pass", "proven_zero"),
        ("chain q + p with I K potentials (q + p, q*q/2 + p*p)", "fail", "proven_nonzero"),
    ])
    def test_chain_potentials_checked_by_their_differential(self, directive, status, certainty):
        text = ("chart C (q, p)\noperator I = [[1, 0], [0, 1]]\noperator K = [[q, 0], [0, p]]\n"
                f"check {directive}\n")
        (entry,) = run_checks(parse_model(text), seed=1).entries
        assert (entry["status"], entry["certainty"]) == (status, certainty)
        assert [label for label, _ in entry["residuals"]][-1].startswith("d(H")

    def test_extended_potentials_are_not_up_to_a_constant(self):
        # the lifted form of an extended chain is dH_i + H_i dt, whose dt
        # component is H_i itself
        text = (MODELS / "example_p_minus_z.hj").read_text()
        old = "check ext_chain H with EK1 EK2 potentials (p - z, p)"
        text = text.replace(old, "check ext_chain H with EK1 EK2 potentials (p - z + 1, p)")
        entry = run_checks(parse_model(text), seed=42).entries[10]
        assert entry["name"].startswith("11 ext_chain ")
        assert (entry["status"], entry["certainty"]) == ("fail", "proven_nonzero")

    def test_rejected_check_carries_no_certainty(self):
        # theorem9 needs explicit potentials, and exp(q) has no radial one:
        # a fail by rejection is not certified by the residuals that vanished
        text = ("chart L (q, p) lcs-local 1\nform om = exp(q) * d(q) /\\ d(p)\nform et = d(q)\n"
                "lcs LS = (om, et)\noperator K = [[q, 0], [0, q]]\ncheck theorem9 exp(q) with K on LS\n")
        (entry,) = run_checks(parse_model(text), seed=1).entries
        assert (entry["status"], entry["certainty"]) == ("fail", None)
        assert entry["notes"] == ["chain with explicit potentials required"]
        assert {cert for _, cert in entry["residuals"]} <= {"pass", "proven_zero"}

    @pytest.mark.parametrize("directive,note", [
        ("chain q with I I", "chain forms not independent: rank 1 < 2"),
        ("ext_chain q with EI EI", "(dH_i, H_i) pairs dependent: rank 1 < 2"),
    ])
    def test_dependent_chain_is_rejected(self, directive, note):
        # a chain's rank is no residual: forms that are not independent fail
        # it by rejection, with no certainty (`chain q with I I` read
        # `fail proven_zero`, from its closedness residuals, before)
        text = ("chart C (q, p)\noperator I = [[1, 0], [0, 1]]\nvector Y0 = (0, 0)\nform ZF = 0 * d(q)\n"
                f"extop EI = (I, Y0, ZF, 1)\ncheck {directive}\n")
        (entry,) = run_checks(parse_model(text), seed=1).entries
        assert (entry["status"], entry["certainty"]) == ("fail", None)
        assert entry["notes"] == [note]

    def test_ext_chain_potentials_do_not_reach_thm_main(self):
        # ext_chain adds its potentials to a copy of the chain report that
        # thm_main reads as a precondition
        text = (MODELS / "example_p_minus_z.hj").read_text()
        old = "check ext_chain H with EK1 EK2 potentials (p - z, p)"
        assert old in text
        text = text.replace(old, "check ext_chain H with EK1 EK2 potentials (p, p) expect fail")
        entries = run_checks(parse_model(text), seed=42).entries
        ext_chain, thm_main = entries[10:12]
        assert ext_chain["name"].startswith("11 ext_chain ") and ext_chain["status"] == "pass"
        assert thm_main["name"].startswith("12 thm_main ")
        assert (thm_main["status"], thm_main["certainty"]) == ("pass", "proven_zero")


class TestFormatter:
    def test_round_trip_fixture_models(self):
        for f in MODELS.glob("*.hj"):
            m1 = parse_model(f.read_text())
            t1 = format_model(m1)
            m2 = parse_model(t1)
            assert format_model(m2) == t1, f.name

    def test_round_trip_structural_equality(self):
        m1 = parse_model(MINI)
        m2 = parse_model(format_model(m1))
        a = declared(m1, "H")
        b = declared(m2, "H")
        assert a == b
        th1 = declared(m1, "theta")
        th2 = declared(m2, "theta")
        assert (th1 - th2).is_zero()


    def test_round_trip_keeps_degree_of_zero(self):
        text = ("chart C (q, p, z) generic\nform t = d(q) /\\ d(q)\n"
                "vector V = (1, 0, p)\nbivector L = V /\\ V\n")
        m1 = parse_model(text)
        m2 = parse_model(format_model(m1))
        for name in ("t", "L"):
            a = declared(m1, name)
            b = declared(m2, name)
            assert a.is_zero() and a.degree == 2
            assert b == a


class TestEntryPoint:
    def test_check_command(self, tmp_path):
        path = tmp_path / "m.hj"
        path.write_text(MINI)
        out = tmp_path / "r.json"
        code = main(["check", str(path), "--seed", "7", "--json", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["exit_code"] == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        # (model, line the error must name[, its column when not 1]); a
        # position inside a declared expression or a directive's expression
        # is a column of its model line
        cases = [
            # the short row, the sum of forms of two degrees at its '+', the
            # division by zero at its right-hand side
            ("chart C (q,p) generic\noperator K = [[1,2],[3]]\n", 2, 21),
            ("chart C (q, p) generic\nscalar b = q\nscalar c = p\nscalar a = q + * p\n", 4, 16),
            ("chart C (q, p) generic\n\n# entry\noperator K = [[1, q +], [0, 1]]\n", 4, 22),
            ("chart C (x, y) generic\nform c = d(x) /\\ d(y) + d(x)\n", 2, 23),
            ("chart C (x, y) generic\nscalar a = 1/0\n", 2, 12),
            # a vector of the wrong length, at its tuple
            (MINI + "check reeb CS equals (0, 1)\n", 7, 22),
            (MINI + "check hamiltonian H on CS equals (1, p)\n", 7, 34),
            # an abstract function that names a coordinate twice
            (MINI + "check hamiltonian f(q,q) - f(q) on CS equals (0, 0, 0)\n", 7, 19),
            # inside an equals tuple, whose tokens are apart by blanks and a tab
            (MINI + "check reeb CS equals (0,   q ^ x, 1)\n", 7, 32),
            (MINI + "check reeb CS  equals\t(0, 1, 1 +)\n", 7, 33),
            # a bare name that does not resolve, inside an expression or as
            # a directive's argument, is reported at its own column
            (MINI + "check reeb CS equals (0, nosuch, 1)\n", 7, 26),
            (MINI + "check reeb NOSUCH\n", 7, 12),
            # structures whose validators would raise at run time
            ("chart C (q, p) generic\nform t = d(q)\ncontact CS = t\n", 3),
            ("chart C (q, p, z) generic\nform o = d(q) /\\ d(p)\nform e = d(z)\n"
             "lcs L = (o, e)\n", 4),
            ("chart C (q, p) lcs-local 1\nform o = d(q)\nform e = d(q)\nlcs L = (o, e)\n", 4, 10),
            # a 2-form contact "structure", whose reeb check used to pass
            ("chart C (q, p, z) darboux-contact 1\nform t = d(q) /\\ d(p)\ncontact CS = t\n"
             "check reeb CS\n", 3, 14),
            ("chart A (x, y) generic\nvector E = (0, 1)\nchart C (q, p, z) generic\n"
             "vector V = (1, 0, 0)\nvector W = (0, 1, 0)\nbivector B = V /\\ W\n"
             "jacobi J = (B, E)\n", 7, 16),
            ("chart C (a, b, c) generic\nform t = d(c) - b * d(a)\ncontact CS = t\n"
             "operator K = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]\n"
             "check techain b with K on CS kind first\n", 5, 27),
            # a declared non-scalar name where a scalar belongs, reported at
            # its operator or at its tuple or list item
            ("chart C (q, p) generic\nvector V = (1, 0)\nscalar s = V + q\n", 3, 14),
            ("chart C (q, p) generic\nvector V = (1, 0)\nform t = V * d(q)\n", 3, 12),
            ("chart C (q, p) generic\nform t = d(q)\noperator K = [[t, 0], [0, 1]]\n", 3, 16),
            # * between two graded operands; /\ is the wedge
            ("chart C (q, p) generic\nvector V = (1, 0)\nvector W = (0, 1)\n"
             "bivector L = V * W\n", 4, 16),
            # a wedge past the chart dimension
            ("chart C (q, p) generic\nform o = d(q) /\\ d(p) /\\ d(q)\nform e = d(q)\n"
             "lcs L = (o, e)\ncheck lcs L\n", 2, 23),
        ]
        path = tmp_path / "bad.hj"
        for text, line, *col in cases:
            path.write_text(text)
            assert main(["check", str(path)]) == 2, text
            assert capsys.readouterr().err.startswith(f"{path}:{line}:{col[0] if col else 1}: "), text

    @pytest.mark.parametrize("text,line,col", [
        # names that begin with '_' stay reserved for the verifier's own
        # symbols, _t as much as a name the verifier uses today
        ("chart C (q, p)\nscalar H = _t * q * p\nscalar P = _t * q * p\n"
         "operator I2 = [[1, 0], [0, 1]]\ncheck chain H with I2 potentials (P)\n", 2, 12),
        # _modf is the algebra check's arbitrary module coefficient h
        ("chart C (q, p)\nscalar h = _modf(q, p)\noperator A = [[h, 0], [0, 1]]\n"
         "check algebra A\n", 2, 12),
        # a directive's expression is reported at its column in the line
        ("chart C (q, p)\noperator A = [[q, 0], [0, p]]\ncheck algebra A\n"
         "check chain _clsf(q) with A\n", 4, 13),
    ], ids=["_t", "_modf", "_clsf"])
    def test_verifier_symbol_names_exit_2(self, tmp_path, capsys, text, line, col):
        path = tmp_path / "bad.hj"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"{path}:{line}:{col}: "), text
        path.write_text(text.replace("_t", "s").replace("_modf", "g").replace("_clsf", "g"))
        assert main(["check", str(path)]) == 0  # the same model under a name of its own

    @pytest.mark.parametrize("directive,name", [pytest.param(d, n, id=d) for d, n in [
        ("dissipated p wrt H", None),                      # no 'on' clause
        ("haantjes", None),                                # no argument
        ("commute K1", None),                              # one operator
        ("haantjes H", "H"),                               # a scalar, not an operator
        ("hamiltonian H on JJ", "JJ"),                     # a jacobi, not a contact structure
        ("haantjes K1 on CS", "on"),                       # a clause haantjes does not take
        ("techain H with K1 on CS kind frist expect fail", "frist"),
        ("chain H with K1 potentials (p - z, p)", "("),    # more potentials than operators
        ("ext_chain H with EK1 EK1 potentials (p - z)", "("),  # fewer
        ("dissipated S wrt H on CS", "S"),                 # S is declared on chart D
        # a bare name inside a tuple: undeclared, or a scalar of chart D
        ("chain H with K1 potentials (nosuch)", "nosuch"),
        ("chain H with K1 potentials (S)", "S"),
        ("poissonize JJ pairs (q,nosuch)", "nosuch"),
        ("reeb CS equals (nosuch, 0, 1)", "nosuch"),
    ]])
    def test_malformed_directive_exit_2(self, tmp_path, capsys, directive, name):
        text = ("chart D (x, y) generic\nscalar S = x\n"
                + MINI
                + "operator K1 = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]\n"
                + "vector V1 = (1, 0, p)\nvector V2 = (0, 1, 0)\nvector EV = (0, 0, 1)\n"
                + "bivector LAM = V1 /\\ V2\njacobi JJ = (LAM, EV)\n"
                + "vector Y0 = (0, 0, 0)\nform ZF = 0 * d(q)\nextop EK1 = (K1, Y0, ZF, 1)\n")
        path = tmp_path / "m.hj"
        path.write_text(text + f"check {directive}\n")
        assert main(["check", str(path)]) == 2
        line = text.count("\n") + 1
        # an error is reported at the column of its word, and a missing
        # word or clause at the end of the line
        col = len(f"check {directive}") + 1 if name is None else len("check ") + directive.index(name) + 1
        assert capsys.readouterr().err.startswith(f"{path}:{line}:{col}: ")

    def test_directive_name_from_another_chart_exit_2(self, tmp_path, capsys):
        # a structure or operator declared on chart A cannot be read by a
        # directive of chart B, whatever clause or argument names it
        text = ("chart A (q, p, z) darboux-contact 1\nform theta = d(z) - p * d(q)\n"
                "contact CS = theta\noperator K = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
                "chart B (x, y, w) darboux-contact 1\nscalar H = x\n")
        path = tmp_path / "m.hj"
        for directive, line, col, err in [
            ("check hamiltonian H on CS\ncheck haantjes K\n", 7, 24, "contact 'CS' is not declared on chart B"),
            ("check haantjes K\n", 7, 16, "operator 'K' is not declared on chart B"),
        ]:
            path.write_text(text + directive)
            assert main(["check", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"{path}:{line}:{col}: {err}")

    def test_chart_with_a_coordinate_named_t(self, tmp_path):
        # the extra coordinate of Poissonization and of the extended lift
        # takes the first free name, here t1
        path = tmp_path / "t.hj"
        path.write_text("chart C (q, p, t) darboux-contact 1\n"
                        "vector V1 = (1, 0, p)\nvector V2 = (0, 1, 0)\nvector EV = (0, 0, 1)\n"
                        "bivector LAM = V1 /\\ V2\njacobi JJ = (LAM, EV)\n"
                        "operator K2 = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]\n"
                        "vector Y2 = (0, p, 0)\nform ZF = 0 * d(q)\nextop EK2 = (K2, Y2, ZF, 0)\n"
                        "check jacobi JJ\ncheck poissonize JJ pairs (q,p) (p,t)\ncheck ejh EK2 on JJ\n")
        assert main(["check", str(path)]) == 0

    @pytest.mark.parametrize("command", ["check", "fmt"])
    def test_python_m_haantjes(self, command):
        # run from a checkout: no warning from runpy or anywhere else
        env = {**os.environ, "PYTHONPATH": str(MODELS.parent / "src")}
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "haantjes", command,
                               str(MODELS / "example_p_minus_z.hj")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""

    def test_missing_file_exit_2(self):
        assert main(["check", "/nonexistent/model.hj"]) == 2

    def test_unwritable_json_path_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.hj"
        path.write_text(MINI)
        assert main(["check", str(path), "--json", str(tmp_path / "missing" / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fmt_command(self, tmp_path, capsys):
        path = tmp_path / "m.hj"
        path.write_text(MINI)
        assert main(["fmt", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("chart C (q, p, z) darboux-contact 1")

    @pytest.mark.parametrize("flag", [["--samples", "0"], ["--tol", "-1"], ["--tol", "0"]])
    def test_nonpositive_sampling_flags_exit_2(self, tmp_path, flag):
        path = tmp_path / "m.hj"
        path.write_text(MINI)
        with pytest.raises(SystemExit) as exc:
            main(["check", str(path), *flag])
        assert exc.value.code == 2

    def test_failing_model_exit_1(self, tmp_path):
        path = tmp_path / "m.hj"
        path.write_text(MINI + "check dissipated q wrt H on CS\n")
        assert main(["check", str(path)]) == 1
