"""The whole-expression extraction probe, kept as an independent oracle for
the inverse-image probe in `chainomaly.anomaly._InverseImages.active_slots`.

Every slot of the hint window, padded by radius + 1 sites on each side, has
its matrix units run through the whole expression beta_a beta_b beta_ab^-1
and compared with themselves. Used only by the tests as an oracle."""

from __future__ import annotations

import numpy as np

from chainomaly import qca
from chainomaly.errors import NotIdentityOutside
from chainomaly.opwin import TOL_AUTO, Window
from chainomaly.qca import QcaExpr, matrix_unit_batch, radius


def active_slots(expr: QcaExpr, hint_window: Window, tol: float = TOL_AUTO) -> list[int]:
    """The slots around the hint window that `expr` moves. Raises
    NotIdentityOutside at the first moved slot outside the window."""
    sites = expr.sites
    R = sites.nregisters
    r = max(radius(expr), 1)
    active: list[int] = []
    register_units = [matrix_unit_batch(m) for m in sites.registers]
    for site in range(hint_window.lo - (r + 1), hint_window.hi + r + 2):
        for reg in range(R):
            slot = site * R + reg
            units = register_units[reg]
            out_slots, out = qca._run_batch(expr, (slot,), units)
            if out_slots == (slot,):
                moved = bool(np.max(np.abs(out - units)) > tol)
            else:
                moved = True
            if moved:
                if hint_window.contains_site(site):
                    active.append(slot)
                else:
                    raise NotIdentityOutside(f"action is not the identity at site {site}")
    return active
