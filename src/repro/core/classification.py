"""Variant outcome classification (the columns of Table II).

Every dynamically evaluated variant lands in exactly one bucket:

``PASS``           ran to completion, correctness within threshold, and
                   (when the search demands it) faster than baseline;
``FAIL``           ran to completion but exceeded the error threshold;
``TIMEOUT``        exceeded 3x the 64-bit baseline's runtime;
``RUNTIME_ERROR``  crashed: ``error stop`` guard, NaN/Inf in the
                   observable, divergence of an iterative kernel.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["Outcome"]


class Outcome(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    TIMEOUT = "timeout"
    RUNTIME_ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
