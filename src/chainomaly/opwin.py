"""Sites and tolerances for qudit chains.

A SiteSpec lists the register dimensions of one site; a run of sites is a
plain `range` of site positions. The tensor convention is global and fixed:
the leftmost site is the most significant factor, and within one site the
registers of the SiteSpec appear in listed order with register 0 most
significant. Operators themselves are (slots, matrix) pairs handled by the
slot engine in `chainomaly.qca`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Tolerance hierarchy: exact algebraic identities, automorphism and
# unitarity checks, phase extraction.
TOL_ALGEBRA = 1e-12
TOL_AUTO = 1e-9
TOL_PHASE = 1e-6

# Matrices larger than this are refused (12 sites at d=2).
DEFAULT_DIM_CAP = 4096

# A whole-chain check that needs more probe sites than this is refused.
PROBE_SITE_CAP = 256

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class SiteSpec:
    """On-site Hilbert space as an ordered list of register dimensions."""

    registers: tuple[int, ...]

    def __post_init__(self):
        try:
            regs = tuple(operator.index(m) for m in self.registers)
        except TypeError as exc:
            raise ValidationError(
                f"register dimensions must be integers, got {self.registers}"
            ) from exc
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
