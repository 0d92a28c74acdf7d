"""The gates of a layer that meet a batch, found by walking every translate
of each template whose site window can reach the batch's sites. Kept as an
independent oracle for `chainomaly.qca._layer_gates`, which derives the
candidate translates from the batch's own slots. Used only by the tests."""

from __future__ import annotations

from chainomaly.qca import BlockLayer
from chainomaly.opwin import SiteSpec


def layer_gates_by_translates(layer: BlockLayer, sites: SiteSpec, slots):
    """(gate slots, template) of every gate of `layer` whose slots intersect
    `slots`, in slot order."""
    if not slots:
        return []
    R = sites.nregisters
    lo_site, hi_site = min(slots) // R, max(slots) // R
    held = set(slots)
    out = []
    for t in layer.templates:
        # base = anchor + k * period, with base + span - 1 >= lo_site and base <= hi_site
        k_lo = -((t.anchor - lo_site + t.span - 1) // layer.period)
        k_hi = (hi_site - t.anchor) // layer.period
        for k in range(k_lo, k_hi + 1):
            base = t.anchor + k * layer.period
            lo, hi = t.window_at(base)
            if layer.min_site is not None and lo < layer.min_site:
                continue
            if layer.max_site is not None and hi > layer.max_site:
                continue
            gslots = t.slots_at(base, R)
            if held.intersection(gslots):
                out.append((gslots, t))
    out.sort(key=lambda g: g[0])
    return out
