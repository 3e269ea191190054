"""Span tracer that wraps the public functions of each ``haantjes`` module.

``Tracer.install`` replaces every binding of each wrapped function: module
globals (``from .geometry import op_apply`` makes a second binding in each
importing module, the benchmark's own modules included) and class
attributes (``Expr.__radd__`` is the same function as ``Expr.__add__``).
It then asks the garbage collector for any remaining holder of an original
function and refuses to trace if one is left, so a missed binding cannot
silently drop calls.  ``uninstall`` restores every binding.

A span is ``(unit, id, parent, name, start, end)``.  Self time of a span is
its duration minus the durations of its direct child spans.  Aggregates are
kept for every span; raw spans are kept in memory up to ``MAX_SPANS`` and
written out by the caller at exit.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# Modules whose public module-level functions form one layer each.
MODULE_LAYERS = ("geometry", "torsion", "extended", "jacobi", "contact", "lcs")

ARITH_METHODS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__",
                 "__neg__", "diff", "subst")

EXP_GROUP_NOTE = "nonvanishing exponential group"

MAX_SPANS = 200_000


def zero_tier(expr, cert) -> str:
    """Which zero-testing tier settled ``cert`` for ``expr``."""
    if cert.tag == "proven_zero":
        return "structural" if not expr.terms else "cleared"
    if cert.tag == "proven_nonzero":
        return "exp_group" if cert.note == EXP_GROUP_NOTE else "exact_witness"
    if cert.tag == "probably_zero" or cert.note == "numeric-nonzero":
        return "float_sampled"
    return "undecided"


def _targets(hj):
    """Yield ``(layer, name, owner, attr)`` for every function to wrap."""
    sx, cli = hj.symexpr, hj.cli
    for attr in ARITH_METHODS:
        yield "symexpr.arith", f"Expr.{attr}", sx.Expr, attr
    yield "symexpr.arith", "exp", sx, "exp"
    yield "symexpr.is_zero", "is_zero", sx, "is_zero"
    yield "symexpr.is_zero", "ZeroTester.__call__", sx.ZeroTester, "__call__"
    yield "symexpr.parse", "parse_scalar", sx, "parse_scalar"
    for layer in MODULE_LAYERS:
        mod = getattr(hj, layer)
        for name, fn in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                yield layer, name, mod, name
    yield "cli", "parse_model", cli, "parse_model"
    yield "cli", "run_checks", cli, "run_checks"
    yield "cli", "report", cli.Report, "comparable_text"


class Tracer:
    def __init__(self):
        self.unit = 0
        self._stack: list = []
        self._next_id = 0
        self._zero_depth = 0
        self._restore: list = []
        self._cells: set = set()  # ids of the wrappers' closure cells
        self.spans: list = []
        self.dropped_spans = 0
        # (layer, name) -> [calls, self_s]
        self.fn_stats: dict = defaultdict(lambda: [0, 0.0])
        self.tiers: Counter = Counter()
        self.terms_out_sum = 0
        self.terms_out_max = 0

    # -- installation

    def install(self, hj) -> None:
        bindings = defaultdict(list)  # id(function) -> [(holder, key)]
        modules = [m for m in list(sys.modules.values()) if isinstance(m, types.ModuleType)]
        classes = {id(c): c for m in modules if m.__name__.split(".")[0] == "haantjes"
                   for c in vars(m).values()
                   if inspect.isclass(c) and c.__module__.split(".")[0] == "haantjes"}
        holders = modules + list(classes.values())
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if inspect.isfunction(value):
                    bindings[id(value)].append((holder, key))
        originals = []
        for layer, name, owner, attr in _targets(hj):
            orig = vars(owner)[attr]
            originals.append((layer, name, orig))
            wrapper = self._wrap(layer, name, orig)
            self._cells.update(id(cell) for cell in wrapper.__closure__)
            for holder, key in bindings[id(orig)]:
                self._restore.append((holder, key, orig))
                setattr(holder, key, wrapper)
        self._check_unbound(originals)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()
        self._cells.clear()

    def _check_unbound(self, originals) -> None:
        """Fail when anything but a wrapper still holds an original."""
        own = {id(originals), id(self._restore)} | self._cells
        own.update(id(rec) for rec in originals)
        own.update(id(rec) for rec in self._restore)
        gc.collect()
        for layer, name, orig in originals:
            for ref in gc.get_referrers(orig):
                if id(ref) in own or isinstance(ref, types.FrameType):
                    continue  # our records, its wrapper's closure, our frames
                if isinstance(ref, dict) and ref.get("__wrapped__") is orig:
                    continue  # the wrapper's __dict__ from functools.wraps
                self.uninstall()
                raise RuntimeError(
                    f"{layer}:{name} is still bound in a {type(ref).__name__}; "
                    "tracing would miss its calls")

    # -- spans

    def _wrap(self, layer, name, fn):
        stats = self.fn_stats[(layer, name)]
        is_arith = layer == "symexpr.arith"
        is_zero = layer == "symexpr.is_zero"
        expr_arg = 1 if name == "ZeroTester.__call__" else 0
        label = f"{layer}:{name}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            if is_zero:
                tracer._zero_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                stats[1] += duration - frame[0]
                if is_zero:
                    tracer._zero_depth -= 1
                else:
                    stats[0] += 1
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((tracer.unit, span_id,
                                         parent[1] if parent else None,
                                         label, start, end))
                else:
                    tracer.dropped_spans += 1
            if is_zero:
                # a zero test counts once, with the tier its outermost call
                # returned; recursive calls inside it add only time
                if tracer._zero_depth == 0:
                    stats[0] += 1
                    tracer.tiers[zero_tier(args[expr_arg], result)] += 1
            elif is_arith and result is not NotImplemented:
                n = len(result.terms)
                tracer.terms_out_sum += n
                if n > tracer.terms_out_max:
                    tracer.terms_out_max = n
            return result

        return wrapper

    # -- results

    def layer_totals(self) -> dict:
        """layer -> [calls, self_s]."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for (layer, _), (calls, self_s) in self.fn_stats.items():
            out[layer][0] += calls
            out[layer][1] += self_s
        return out

