"""Serialisation of step lists and matrices to the config data format that
`chainomaly.cli.parse_config` reads (a step list under `action.steps`, a
matrix literal as row-major [re, im] pairs). Used only by the tests, for
round trips through the config reader and to compare expressions as data."""

from __future__ import annotations

import numpy as np

from chainomaly.qca import QcaExpr, ShiftPrimitive


def matrix_to_pairs(mat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(mat).reshape(-1)]


def step_to_data(step) -> dict:
    if isinstance(step, ShiftPrimitive):
        return {"kind": "shift", "register": step.register, "displacement": step.displacement}
    data = {
        "kind": "layer",
        "period": step.period,
        "templates": [
            {
                "anchor": t.anchor,
                "span": t.span,
                "unitary": matrix_to_pairs(t.unitary),
                **(
                    {"registers": [list(x) for x in t.registers]}
                    if t.registers is not None
                    else {}
                ),
            }
            for t in step.templates
        ],
    }
    if step.min_site is not None:
        data["min_site"] = step.min_site
    if step.max_site is not None:
        data["max_site"] = step.max_site
    return data


def expr_to_data(expr: QcaExpr) -> list[dict]:
    return [step_to_data(s) for s in expr.steps]
