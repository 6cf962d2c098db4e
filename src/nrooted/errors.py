"""Exception types and the JSON-object preamble shared across the package."""

from __future__ import annotations


class ConsistencyError(RuntimeError):
    """Two supposedly-equivalent computation routes disagreed.

    Raised whenever an internal cross-check fails: mismatching series routes,
    a coefficient that should be a non-negative integer but is not, negative
    powers that should cancel but do not, a count that should be divisible by
    (2e)! but is not.  This is always a bug indicator, never a user error, and
    is therefore never silently swallowed.

    ``power`` is the first λ-power at which two compared series differ, when
    the check compared series; otherwise it is ``None``.
    """

    def __init__(self, *args, power: int | None = None):
        super().__init__(*args)
        self.power = power


class BoundExceededError(ValueError):
    """An exhaustive enumeration was requested beyond its size guardrail."""


def _require_json_object(data, kind: str, keys: set[str]) -> None:
    """Raise ValueError unless ``data`` is a JSON object with exactly ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} JSON must be an object")
    missing = keys - data.keys()
    if missing:
        raise ValueError(f"{kind} JSON missing keys: {sorted(missing)}")
    extra = data.keys() - keys
    if extra:
        raise ValueError(f"{kind} JSON has unknown keys: {sorted(extra)}")
