"""The three benchmark workloads, each driven through the public API.

A workload is set up once per process (``setup``) and then runs numbered
units (``run(i)``); unit ``i`` runs input ``i % inputs``.  Every unit's
output is compared with an answer known in advance: the golden report bytes
for the model workloads, the answer fixed at construction for ``zero_test``.
"""

from __future__ import annotations

import pathlib
import sys

import corpus
from tracer import EXP_GROUP_NOTE

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"

# The zero-test settings the goldens in models/golden/ were made with.
SEED, SAMPLES, TOL = 42, 16, 1e-9


def import_haantjes():
    """Import ``haantjes`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import haantjes

    if pathlib.Path(haantjes.__file__).resolve().parents[1] != src.resolve():
        raise RuntimeError(f"haantjes imported from {haantjes.__file__}, not {src}")
    return haantjes


class Outcome:
    """What one unit produced, judged against its known answer."""

    __slots__ = ("wrong", "known_defect", "proven")

    def __init__(self, wrong=False, known_defect=False, proven=False):
        self.wrong = wrong
        self.known_defect = known_defect
        self.proven = proven


class Models:
    """Parse, check and report bundled models; compare with the goldens."""

    inputs = 1  # every unit runs the same models

    def __init__(self, hj, names, trace_units):
        self.hj = hj
        self.trace_units = trace_units
        self.cases = [
            (name + ".hj", (MODELS / (name + ".hj")).read_text(),
             (MODELS / "golden" / (name + ".json")).read_text())
            for name in names
        ]

    def run(self, i: int) -> Outcome:
        hj = self.hj
        wrong = False
        for filename, text, golden in self.cases:
            rep = hj.run_checks(hj.parse_model(text), seed=SEED, samples=SAMPLES, tol=TOL)
            rep.meta["model"] = filename  # as tests/test_cli.py sets it
            wrong |= rep.comparable_text() != golden
        return Outcome(wrong=wrong)


class ZeroTest:
    """One ``ZeroTester`` call per unit on a residual built in setup."""

    PER_KIND = 20

    def __init__(self, hj, seed: int):
        chart = hj.Chart("Z", corpus.COORDS)
        self.items = [
            (kind, corpus.to_expr(lhs, chart) - corpus.to_expr(rhs, chart), truth)
            for kind, lhs, rhs, truth in corpus.build(seed, self.PER_KIND)
        ]
        self.inputs = self.trace_units = len(self.items)
        self.zt = hj.ZeroTester(SEED, SAMPLES, TOL)

    def run(self, i: int) -> Outcome:
        kind, residual, truth = self.items[i % self.inputs]
        cert = self.zt(residual)
        if cert.accepts_zero == truth:
            return Outcome(proven=cert.tag.startswith("proven_"))
        # the documented defect: a true exp-of-rational identity certified
        # nonzero because its exp atoms differ before clearing denominators
        defect = (kind == "exp_rational.true" and cert.tag == "proven_nonzero"
                  and cert.note == EXP_GROUP_NOTE)
        return Outcome(wrong=True, known_defect=defect)


WORKLOADS = ("appendix", "small_models", "zero_test")


def setup(name: str, hj, seed: int):
    if name == "appendix":
        return Models(hj, ["appendix_families"], trace_units=1)
    if name == "small_models":
        # one unit runs both models, so the per-unit times form one cluster
        # and the median does not jump between the two models' times
        return Models(hj, ["example_p_minus_z", "lcs_example"], trace_units=10)
    if name == "zero_test":
        return ZeroTest(hj, seed)
    raise ValueError(f"unknown workload {name!r}")
