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

