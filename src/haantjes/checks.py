"""Check reports: the uniform outcome type for every verification, and the
run-scoped memo through which a run decides each sub-check once.

A theorem states its preconditions as checks that a model also runs as
directives of their own.  `once(fn, *args)` returns ``fn(*args)``, computed
at most once per memo scope for equal arguments.  `memo_scope()` opens a
scope for a block or, as a decorator, for a call (`cli.run_checks` opens one
per run); with no scope open, `once` is a plain call.  A memo key holds its
arguments: by value where the type has value equality and a hash (``Expr``,
``ZeroTester``, operators, fields, forms, bases), else by identity.  Zero
testing is pure, so a shared verdict is the verdict a fresh call would give.
A memoized report is shared by every caller of its key, so no caller may
change it; `CheckReport.copy` gives one that may be extended.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Optional

from .symexpr import PROVEN_ZERO, ZeroCertainty, weakest

__all__ = ["CheckReport", "memo_scope", "once"]

# the note prefix of a disagreement between two independent routes to one
# verdict: a toolkit bug, never a property of the input
INTERNAL_INCONSISTENCY = "internal-inconsistency"


@dataclass
class CheckReport:
    """Outcome of one verification.

    ``status`` is ``pass`` / ``fail`` / ``unknown``; ``details`` keeps
    per-residual outcomes for diagnosis, and ``certainty`` follows from
    them; ``witness`` is a counterexample or certificate point when one
    exists.
    """

    name: str
    status: str = "pass"
    details: list = field(default_factory=list)
    witness: Optional[dict] = None
    notes: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    rejected: bool = False  # failed by reject(), not by a residual

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def certainty(self) -> Optional[ZeroCertainty]:
        """The weakest zero-certainty among the recorded residuals; a pass
        with none recorded cancelled structurally, so it is proven_zero."""
        certs = [c for _, c in self.details if isinstance(c, ZeroCertainty)]
        if self.rejected and not any(c.rejects_zero for c in certs):
            return None  # a rejection that no residual certifies
        if certs:
            return weakest(certs)
        return PROVEN_ZERO if self.status == "pass" else None

    def require_zero(self, label: str, cert: ZeroCertainty) -> "CheckReport":
        """Record a residual that must vanish."""
        self.details.append((label, cert))
        if cert.rejects_zero:
            self.status = "fail"
            if self.witness is None and cert.witness is not None:
                self.witness = cert.witness
        elif not cert.accepts_zero and self.status != "fail":
            self.status = "unknown"
        return self

    def require_nonzero(self, label: str, cert: ZeroCertainty) -> "CheckReport":
        """Record a residual that must NOT vanish."""
        self.details.append((label + " != 0", cert))
        if cert.accepts_zero:
            self.status = "fail"
        elif not cert.rejects_zero and self.status != "fail":
            self.status = "unknown"
        if cert.tag == "proven_nonzero" and self.witness is None:
            self.witness = cert.witness
        return self

    def reject(self, reason: str) -> "CheckReport":
        self.status, self.rejected = "fail", True
        self.notes.append(reason)
        return self

    def merge(self, sub: "CheckReport") -> "CheckReport":
        """Record a sub-report with its status, certainty, evidence, witness
        and notes.  A theorem takes each premise this way, as
        ``merge(replace(sub, name=label))``."""
        self.details.append((sub.name, sub.status))
        if sub.status == "fail":
            self.status = "fail"
            self.rejected = self.rejected or sub.rejected
            # failed sub-checks surface their own evidence
            self.details.extend((f"{sub.name}: {l}", c) for l, c in sub.details)
            self.notes.extend(f"{sub.name}: {n}" for n in sub.notes)
        elif sub.status == "unknown" and self.status == "pass":
            self.status = "unknown"
        if sub.status != "fail":
            self.details.extend((f"{sub.name}: {l}", c) for l, c in sub.details
                                if isinstance(c, ZeroCertainty))
        if self.witness is None:
            self.witness = sub.witness
        return self

    def copy(self) -> "CheckReport":
        """A copy that a caller may extend without changing this report."""
        return replace(self, details=list(self.details), notes=list(self.notes), data=dict(self.data))

    def summary(self) -> str:
        cert = f" [{self.certainty.tag}]" if self.certainty else ""
        note = f" ({'; '.join(self.notes)})" if self.notes else ""
        return f"{self.name}: {self.status}{cert}{note}"

    def __str__(self):
        return self.summary()


def _unvalidated(rep: CheckReport, kind: str, s) -> bool:
    """Whether the structure s failed validation; if so, rep, a check on s,
    is undecided, with the note ``<kind> did not validate: <status>``."""
    if s.validated:
        return False
    rep.status = "unknown"
    rep.notes.append(f"{kind} did not validate: {s.validity.status}")
    return True


# the memo of the open scope: (fn, *argument keys) -> result; None outside
# a scope, so no table outlives the block that opened it
_MEMO = ContextVar("haantjes_memo", default=None)


@contextmanager
def memo_scope():
    """Open the memo of `once` for the block, unless a scope is open."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


class _Same:
    """An argument keyed by identity.  The key holds the argument, so its id
    cannot be reused while the memo lives."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return isinstance(other, _Same) and self.obj is other.obj


def once(fn, *args):
    """fn(*args), computed at most once per memo scope for equal arguments."""
    memo = _MEMO.get()
    if memo is None:
        return fn(*args)
    key = (fn, *(a if type(a).__hash__ is not None else _Same(a) for a in args))
    result = memo.get(key, _Same)
    if result is _Same:  # not computed in this scope yet
        result = memo[key] = fn(*args)
    return result
