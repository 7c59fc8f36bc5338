"""Abstract operation counting.

The CPU timing models (Tables 3/4) need *operation counts*, not wall-clock
time: our NumPy implementations run at Python speed, while the paper's
baselines are C/C++ on an ARM Cortex-A53 and a Core i7.  Every model exposes
an analytic per-walk op profile (validated against its implementation by
tests); platform profiles in :mod:`repro.hw.cpu` map op classes to seconds.

Op classes
----------
``mac``
    scalar multiply-accumulate (the dominant cost of both models).
``div``
    scalar division (the RLS gain normalization).
``exp``
    transcendental evaluation (the baseline's sigmoids).
``rng``
    random draws (negative sampling).
``mem``
    words moved through gather/scatter of weight rows.
``ctx`` / ``win`` / ``walk``
    fixed per-context / per-window / per-walk loop overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["OpCount"]


@dataclass(frozen=True)
class OpCount:
    """Operation counts for one unit of work (typically one random walk)."""

    mac: float = 0.0
    div: float = 0.0
    exp: float = 0.0
    rng: float = 0.0
    mem: float = 0.0
    ctx: float = 0.0
    win: float = 0.0
    walk: float = 0.0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(*[getattr(self, n) + getattr(other, n) for n in _FIELDS])

    def __mul__(self, k: float) -> "OpCount":
        return OpCount(*[getattr(self, n) * k for n in _FIELDS])

    __rmul__ = __mul__

    def as_dict(self) -> dict[str, float]:
        return {n: getattr(self, n) for n in _FIELDS}

    @property
    def total_arithmetic(self) -> float:
        """MACs + divisions + transcendentals — a rough FLOP proxy."""
        return self.mac + self.div + self.exp


#: the op classes in field order (looked up once, not per arithmetic call)
_FIELDS = tuple(f.name for f in fields(OpCount))
