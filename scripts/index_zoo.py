#!/usr/bin/env python3
"""Small tour of composition indices: shifts, swap circuits, and the numeric
cross-check as a ratio of Hilbert-Schmidt overlaps across the cut.

Run from the repository root: PYTHONPATH=src python scripts/index_zoo.py"""

import numpy as np

from chainomaly.opwin import SiteSpec
from chainomaly.qca import (
    BlockLayer,
    GateTemplate,
    QcaExpr,
    ShiftPrimitive,
    balance_shifts,
    gnvw_numeric,
    gnvw_symbolic,
    index_text,
)

SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def show(name, expr):
    sym = gnvw_symbolic(expr)
    num = gnvw_numeric(expr)
    print(f"{name:38s} index = {index_text(sym)}   (numeric agrees: {num == sym})")


def main():
    s2 = SiteSpec((2,))
    s3 = SiteSpec((3,))
    s6 = SiteSpec((6,))
    s22 = SiteSpec((2, 2))

    show("qubit shift right", QcaExpr(s2, (ShiftPrimitive(0, 1),)))
    show("qutrit shift left", QcaExpr(s3, (ShiftPrimitive(0, -1),)))
    show("six-dimensional shift", QcaExpr(s6, (ShiftPrimitive(0, 1),)))
    show(
        "swap layer across the cut",
        QcaExpr(s2, (BlockLayer(2, (GateTemplate(-1, 2, SWAP4),)),)),
    )
    opposed = QcaExpr(s22, (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    print(f"{'opposed register shifts':38s} index = {index_text(gnvw_symbolic(opposed))}")
    circuit = balance_shifts(opposed)
    show("  ... as a two-layer swap circuit", circuit)
    print(
        f"{'':38s} steps = {[type(s).__name__ for s in circuit.steps]}"
    )


if __name__ == "__main__":
    main()
