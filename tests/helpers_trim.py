"""Factor triviality by partial trace and re-embedding, kept as an independent
oracle for the slot engine's one-pass test of a gate's slots in
`chainomaly.qca._conj_gate_batch`.

A batch acts as identity on a factor exactly when it equals its normalised
partial trace over that factor tensored with the identity there. Used only
by the tests as an oracle, with `embed_factors`, the one-matrix form of the
embedding."""

from __future__ import annotations

import math

import numpy as np

from chainomaly import _tensors as tz
from chainomaly import qca


def embed_factors(mat: np.ndarray, dims_all, positions) -> np.ndarray:
    """tz.embed_factors_batch for a single matrix."""
    return tz.embed_factors_batch(mat[None], dims_all, positions)[0]


def conj_identity(sites, slots, mats, gslots):
    """`qca._conj_gate_batch` by the identity gate on `gslots`. Conjugating
    by the identity is exact, so this is the engine's trim of those slots
    alone; every slot of `gslots` must be in `slots`."""
    eye = np.eye(math.prod(qca._slot_dims(sites, gslots)))
    return qca._conj_gate_batch(sites, slots, mats, gslots, qca.GateTemplate(0, 1, eye))


def factor_is_trivial_batch(mats: np.ndarray, dims, idx, tol) -> bool:
    """True if every operator in the batch acts as identity on factor `idx`,
    i.e. equals (normalized partial trace over idx) tensor identity."""
    n = len(dims)
    keep = [i for i in range(n) if i != idx]
    reduced = tz.partial_trace_keep_batch(mats, dims, keep)
    rebuilt = tz.embed_factors_batch(reduced, dims, keep)
    scale = max(1.0, float(np.max(np.abs(mats))) if mats.size else 1.0)
    return bool(np.max(np.abs(rebuilt - mats)) <= tol * scale)


def trim_batch(sites, slots, mats, candidates, tol=qca.TOL_ALGEBRA):
    """Drop each candidate slot on which the batch is trivial, highest first,
    tracing it out."""
    slots = list(slots)
    for s in sorted(set(candidates), reverse=True):
        if s not in slots:
            continue
        dims = qca._slot_dims(sites, slots)
        idx = slots.index(s)
        if factor_is_trivial_batch(mats, dims, idx, tol):
            keep = [i for i in range(len(slots)) if i != idx]
            mats = tz.partial_trace_keep_batch(mats, dims, keep)
            slots.pop(idx)
    return tuple(slots), mats
