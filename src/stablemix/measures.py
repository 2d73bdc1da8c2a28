"""Finite atomic measures on the real line.

These are the carriers for discretized spectral measures and for the jump
parts of infinitely divisible laws. An :class:`AtomicMeasure` is immutable,
canonically sorted, and cheap to hash, which lets downstream code memoize
expensive metric computations keyed on measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

__all__ = ["AtomicMeasure"]

_WEIGHT_TOL = 1e-12


def _check_weights(weights: Sequence[float]) -> None:
    """A ValueError unless ``weights``, the weights of a finite prior or
    mixture, are positive and sum to 1 within 1e-12; written so that a NaN
    weight is rejected too."""
    if not weights:
        raise ValueError("need at least one atom")
    if not all(w > 0 for w in weights):
        raise ValueError("weights must be positive")
    total = math.fsum(weights)
    if not abs(total - 1.0) <= _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1, got {total!r}")


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite nonnegative measure carried by finitely many points.

    ``atoms`` holds ``(location, mass)`` pairs sorted by location, with
    distinct locations and strictly positive masses. Build instances through
    :meth:`from_pairs` unless the input is already canonical. The atoms and
    every mass below are plain Python floats.
    """

    atoms: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        last = None
        for loc, mass in self.atoms:
            if not (math.isfinite(loc) and math.isfinite(mass)):
                raise ValueError(f"atom ({loc!r}, {mass!r}) is not finite")
            if mass <= 0:
                raise ValueError(f"atom at {loc} has nonpositive mass {mass}")
            if last is not None and loc <= last:
                raise ValueError(
                    f"atoms must be sorted by location without duplicates, got {loc!r} after {last!r}; "
                    "use AtomicMeasure.from_pairs"
                )
            last = loc

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, float]]) -> "AtomicMeasure":
        """Build a measure from arbitrary (location, mass) pairs.

        Input pairs are sorted, masses at duplicate locations are summed,
        and zero-mass entries are dropped. Negative masses are rejected.
        """
        merged: dict[float, float] = {}
        for loc, mass in pairs:
            if mass < 0:
                raise ValueError(f"negative mass {mass} at location {loc}")
            if mass == 0:
                continue
            key = float(loc)
            merged[key] = merged.get(key, 0.0) + float(mass)
        return cls(tuple(sorted(merged.items())))

    @property
    def total_mass(self) -> float:
        """Total mass, a ``math.fsum`` sum like every mass below: correctly
        rounded, and an ``OverflowError`` when it exceeds the float range."""
        return math.fsum(mass for _, mass in self.atoms)

    def mass_le(self, x: float) -> float:
        """Mass of the half line (-inf, x]."""
        return math.fsum(mass for loc, mass in self.atoms if loc <= x)

    def mass_lt(self, x: float) -> float:
        """Mass of the open half line (-inf, x)."""
        return math.fsum(mass for loc, mass in self.atoms if loc < x)

    def mass_interval(self, lo: float, hi: float, closed: str = "right") -> float:
        """Mass of an interval between ``lo`` and ``hi``.

        ``closed`` selects the endpoint convention: "right" means (lo, hi],
        "both" means [lo, hi] and "left" means [lo, hi).
        """
        if closed == "right":
            return self.mass_le(hi) - self.mass_le(lo)
        if closed == "both":
            return self.mass_le(hi) - self.mass_lt(lo)
        if closed == "left":
            return self.mass_lt(hi) - self.mass_lt(lo)
        raise ValueError(f"unknown interval convention {closed!r}")
