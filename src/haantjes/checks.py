"""Check reports: the uniform outcome type for every verification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .symexpr import ZeroCertainty, weakest

__all__ = ["CheckReport"]

# the note prefix of a disagreement between two independent routes to one
# verdict: a toolkit bug, never a property of the input
INTERNAL_INCONSISTENCY = "internal-inconsistency"


@dataclass
class CheckReport:
    """Outcome of one verification.

    ``status`` is ``pass`` / ``fail`` / ``unknown``; ``certainty`` the weakest
    zero-certainty among the residuals that had to vanish; ``details`` keeps
    per-residual outcomes for diagnosis; ``witness`` a counterexample or
    certificate point when one exists.
    """

    name: str
    status: str = "pass"
    certainty: Optional[ZeroCertainty] = None
    details: list = field(default_factory=list)
    witness: Optional[dict] = None
    notes: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def require_zero(self, label: str, cert: ZeroCertainty) -> "CheckReport":
        """Record a residual that must vanish."""
        self.details.append((label, cert))
        if cert.rejects_zero:
            self.status = "fail"
            if self.witness is None and cert.witness is not None:
                self.witness = cert.witness
        elif not cert.accepts_zero and self.status != "fail":
            self.status = "unknown"
        self._update_certainty()
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
        self._update_certainty()
        return self

    def require(self, label: str, ok: bool, note: str = "") -> "CheckReport":
        self.details.append((label, "ok" if ok else "violated"))
        if not ok:
            self.status = "fail"
            if note:
                self.notes.append(note)
        return self

    def reject(self, reason: str) -> "CheckReport":
        self.status = "fail"
        self.notes.append(reason)
        return self

    def merge(self, sub: "CheckReport") -> "CheckReport":
        self.details.append((sub.name, sub.status))
        if sub.status == "fail":
            self.status = "fail"
            # failed sub-checks surface their own evidence
            self.details.extend((f"{sub.name}: {l}", c) for l, c in sub.details)
            self.notes.extend(f"{sub.name}: {n}" for n in sub.notes)
        elif sub.status == "unknown" and self.status == "pass":
            self.status = "unknown"
        if sub.certainty is not None:
            self.details.extend((f"{sub.name}: {l}", c) for l, c in sub.details
                                if isinstance(c, ZeroCertainty) and sub.status != "fail")
            self._update_certainty()
        if self.witness is None:
            self.witness = sub.witness
        return self

    def _update_certainty(self):
        certs = [c for _, c in self.details if isinstance(c, ZeroCertainty)]
        if certs:
            self.certainty = weakest(certs)
        elif self.status == "pass":
            # nothing sampled: every residual cancelled structurally
            self.certainty = ZeroCertainty("proven_zero")
        else:
            self.certainty = None

    def summary(self) -> str:
        cert = f" [{self.certainty.tag}]" if self.certainty else ""
        note = f" ({'; '.join(self.notes)})" if self.notes else ""
        return f"{self.name}: {self.status}{cert}{note}"

    def __str__(self):
        return self.summary()

