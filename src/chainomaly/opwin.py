"""Sites, windows, tolerances and matrix literals for qudit chains.

A SiteSpec lists the register dimensions of one site; a Window is a finite
interval of integer sites. The tensor convention is global and fixed: the
leftmost site is the most significant factor, and within one site the
registers of the SiteSpec appear in listed order with register 0 most
significant. Operators themselves are (slots, matrix) pairs handled by the
slot engine in `chainomaly.qca`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _tensors as tz
from .errors import ValidationError

# Tolerance hierarchy: exact algebraic identities, automorphism and
# unitarity checks, phase extraction.
TOL_ALGEBRA = 1e-12
TOL_AUTO = 1e-9
TOL_PHASE = 1e-6

# Matrices larger than this are refused (12 sites at d=2).
DEFAULT_DIM_CAP = 4096

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class SiteSpec:
    """On-site Hilbert space as an ordered list of register dimensions."""

    registers: tuple[int, ...]

    def __post_init__(self):
        regs = tuple(int(m) for m in self.registers)
        object.__setattr__(self, "registers", regs)
        if not regs:
            raise ValidationError("SiteSpec needs at least one register")
        if any(m < 2 for m in regs):
            raise ValidationError(f"register dimensions must be >= 2, got {regs}")

    @property
    def dim(self) -> int:
        return math.prod(self.registers)

    @property
    def nregisters(self) -> int:
        return len(self.registers)

    def stacked(self, other: "SiteSpec") -> "SiteSpec":
        return SiteSpec(self.registers + other.registers)


@dataclass(frozen=True)
class Window:
    """Closed interval of sites [lo, hi]; lo > hi encodes the empty window
    (canonically (0, -1))."""

    lo: int = 0
    hi: int = -1

    def __post_init__(self):
        if self.lo > self.hi and (self.lo, self.hi) != (0, -1):
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "hi", -1)

    @classmethod
    def empty(cls) -> "Window":
        return cls(0, -1)

    @classmethod
    def site(cls, j: int) -> "Window":
        return cls(j, j)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def length(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1

    def sites(self) -> range:
        return range(self.lo, self.hi + 1) if not self.is_empty else range(0)

    def contains_site(self, j: int) -> bool:
        return not self.is_empty and self.lo <= j <= self.hi

    def __str__(self):
        return "[]" if self.is_empty else f"[{self.lo},{self.hi}]"


# -- matrix literal format (shared with the CLI config) ----------------------

def matrix_from_pairs(pairs, expect_unitary: bool = True) -> np.ndarray:
    """Row-major list of [re, im] pairs -> square complex matrix."""
    if not isinstance(pairs, (list, tuple)) or not all(
        isinstance(p, (list, tuple))
        and len(p) == 2
        and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in p)
        for p in pairs
    ):
        raise ValidationError("matrix literal is not a flat list of numeric [re, im] pairs")
    vals = [complex(p[0], p[1]) for p in pairs]
    n = math.isqrt(len(vals))
    if n * n != len(vals):
        raise ValidationError(f"matrix literal length {len(vals)} is not a square")
    m = np.array(vals, dtype=complex).reshape(n, n)
    if expect_unitary and not tz.is_unitary(m, TOL_AUTO):
        raise ValidationError("matrix literal is not unitary within 1e-9")
    return m


def matrix_to_pairs(mat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(mat).reshape(-1)]
