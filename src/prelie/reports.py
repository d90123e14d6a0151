"""Structured pass/fail verdicts returned by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckReport:
    """Outcome of one check: a verdict, an optional witness, extra facts.

    `witness` is only meaningful when it explains the verdict (for a failed
    identity check it is the offending tuple, for a failed simplicity check
    the proper ideal, and so on).  `details` carries named sub-verdicts or
    computed data that callers and the CLI serialize.
    """

    ok: bool
    witness: Any = None
    details: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def residual_report(F, residuals) -> CheckReport:
    """Verdict for a named residual system: ok iff every scalar vanishes.

    `residuals` is an iterable of (name, scalar) pairs, consumed in full;
    the witness is the first violated name with its value, details count
    the violations.
    """
    bad = [(name, F.format(value)) for name, value in residuals
           if not F.is_zero(value)]
    return CheckReport(not bad, witness=bad[0] if bad else None,
                       details={"violations": len(bad)})
