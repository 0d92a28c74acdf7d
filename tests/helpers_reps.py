"""Projective representations beyond the presets of `chainomaly.anomaly`,
for test inputs. Used only by the tests."""

from __future__ import annotations

import numpy as np

from chainomaly.anomaly import ProjectiveRep
from chainomaly.grpcoh import FiniteGroup


def clock_shift_rep(p: int) -> ProjectiveRep:
    """Weyl pair representation of Z/p x Z/p: clock^a shift^b."""
    G = FiniteGroup.direct_product(FiniteGroup.cyclic(p), FiniteGroup.cyclic(p))
    w = np.exp(2j * np.pi / p)
    clock = np.diag([w ** k for k in range(p)])
    shift = np.zeros((p, p), dtype=complex)
    for k in range(p):
        shift[(k + 1) % p, k] = 1.0
    mats = []
    for a in range(p):
        for b in range(p):
            mats.append(
                np.linalg.matrix_power(clock, a) @ np.linalg.matrix_power(shift, b)
            )
    return ProjectiveRep(G, tuple(mats))
