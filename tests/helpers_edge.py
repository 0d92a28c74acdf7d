"""The edge action of a 3-cocycle: a finite-group action on a chain of
|G|-dimensional sites whose anomaly is the cocycle's class, for round trips
through `chainomaly.anomaly.anomaly_class`. Used only by the tests."""

from __future__ import annotations

import numpy as np

from chainomaly.anomaly import ActionSpec
from chainomaly.grpcoh import FiniteGroup, PhaseCochain
from chainomaly.opwin import SiteSpec
from chainomaly.qca import BlockLayer, GateTemplate, QcaExpr, identity_expr


def edge_action(G: FiniteGroup, omega: PhaseCochain) -> ActionSpec:
    """U(g) = L_g prod_j phi_g(a_j, a_j+1) on sites holding |a>, a in G,
    with L_g|a> = |ga> and phi_g(a, b) = omega(g^-1, ga, a^-1 b) in turns: two
    brickwork layers of the diagonal two-site gate e^{2 pi i phi_g}, then
    the on-site permutation L_g. The identity element gets no steps."""
    n = G.order
    sites = SiteSpec((n,))
    inv = [next(b for b in G.elements() if G.mul(a, b) == 0) for a in G.elements()]
    exprs = [identity_expr(sites)]
    for g in range(1, n):
        phi = [
            float(omega.at(inv[g], G.mul(g, a), G.mul(inv[a], b)))
            for a in G.elements()
            for b in G.elements()
        ]
        gate = np.diag(np.exp(2j * np.pi * np.array(phi)))
        perm = np.zeros((n, n), dtype=complex)
        for a in G.elements():
            perm[G.mul(g, a), a] = 1.0
        steps = (
            BlockLayer(2, (GateTemplate(0, 2, gate),)),
            BlockLayer(2, (GateTemplate(1, 2, gate),)),
            BlockLayer(1, (GateTemplate(0, 1, perm),)),
        )
        exprs.append(QcaExpr(sites, steps))
    return ActionSpec(G, sites, tuple(exprs))
