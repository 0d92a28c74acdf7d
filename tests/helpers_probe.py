"""The whole-expression extraction probe, kept as an independent oracle for
the inverse-image probe in `chainomaly.anomaly.VTable.active_slots`, and the
distance between two expressions' images of a unit batch.

Sites 0, 1, 2, ... are swept until the radius + 1 sites after the last moved
site (after site -1 if none moved) are fixed; every slot of a swept site has
its matrix units run through the whole expression beta_a beta_b beta_ab^-1
and compared with themselves. Used only by the tests as an oracle."""

from __future__ import annotations

import numpy as np

from chainomaly import qca
from chainomaly.opwin import TOL_AUTO
from chainomaly.qca import QcaExpr, matrix_unit_batch, radius


def action_distance(e1: QcaExpr, e2: QcaExpr, window: range, mats: np.ndarray) -> float:
    """Largest Frobenius distance between the images under e1 and e2 of a
    unit batch on the sites of `window`, compared on the union of their
    slots."""
    slots = qca._slots_of_window(e1.sites, window)
    images = (qca._run_batch(e, slots, mats) for e in (e1, e2))
    _, (m1, m2) = qca._on_union(e1.sites, list(images))
    return float(np.max(np.sqrt(np.sum(np.abs(m1 - m2) ** 2, axis=(1, 2)))))


def moves(expr: QcaExpr, slot: int, tol: float = TOL_AUTO) -> bool:
    """Whether `expr` moves the matrix units of one slot."""
    units = matrix_unit_batch(expr.sites.registers[slot % expr.sites.nregisters])
    out_slots, out = qca._run_batch(expr, (slot,), units)
    return out_slots != (slot,) or bool(np.max(np.abs(out - units)) > tol)


def active_slots(expr: QcaExpr, max_site: int = 64) -> list[int]:
    """The slots that `expr` moves, by the sweep rule. Fails past `max_site`
    instead of sweeping without end."""
    R = expr.sites.nregisters
    r = max(radius(expr), 1)
    active: list[int] = []
    last, site = -1, 0
    while site <= last + r + 1:
        assert site <= max_site, "the sweep does not end"
        for slot in range(site * R, (site + 1) * R):
            if moves(expr, slot):
                active.append(slot)
                last = site
        site += 1
    return active
