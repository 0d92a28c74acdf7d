"""Low-level dense tensor helpers shared by the operator and circuit engines.

Operators live on an ordered list of factors with given dimensions; factor 0
is the most significant index of the flat matrix. Everything here is plain
numpy; callers own the bookkeeping of what the factors mean.
"""

from __future__ import annotations

import math

import numpy as np


def embed_factors_batch(mats: np.ndarray, dims_all, positions) -> np.ndarray:
    """Embed each matrix of `mats` (shape (B, d, d), acting on the factors
    listed in `positions`, in that order) into the full factor list
    `dims_all`, tensoring identity on the rest."""
    n = len(dims_all)
    positions = list(positions)
    if positions == list(range(n)):
        return mats
    rest = [i for i in range(n) if i not in positions]
    dims_pos = [dims_all[i] for i in positions]
    dims_rest = [dims_all[i] for i in rest]
    eye = np.eye(math.prod(dims_rest), dtype=complex)
    B = mats.shape[0]
    D = math.prod(dims_all)
    out = np.empty((B, D, D), dtype=complex)
    # write mats x eye once, through a view of `out` whose factors come in
    # the order positions + rest
    order = positions + rest
    view = out.reshape([B] + list(dims_all) * 2)
    view = view.transpose([0] + [1 + o for o in order] + [1 + n + o for o in order])
    ones_pos, ones_rest = [1] * len(positions), [1] * len(rest)
    np.multiply(
        mats.reshape([B] + dims_pos + ones_rest + dims_pos + ones_rest),
        eye.reshape([1] + ones_pos + dims_rest + ones_pos + dims_rest),
        out=view,
    )
    return out


def permute_factors_batch(mats: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a batch of operators; perm[i] is the current
    position of the factor that should end up at position i."""
    n = len(dims)
    B = mats.shape[0]
    dims_cur = list(dims)
    t = mats.reshape([B] + dims_cur + dims_cur)
    t = t.transpose([0] + [1 + p for p in perm] + [1 + n + p for p in perm])
    D = math.prod(dims)
    return np.ascontiguousarray(t.reshape(B, D, D))


def partial_trace_keep_batch(mats: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all factors not in `keep` (ascending positions kept in
    order) from each matrix of the batch. Each traced factor is averaged,
    which makes the map unital."""
    n = len(dims)
    keep = list(keep)
    traced = [i for i in range(n) if i not in keep]
    if not traced:
        return mats.copy()
    B = mats.shape[0]
    order = keep + traced
    t = mats.reshape([B] + list(dims) + list(dims))
    t = t.transpose([0] + [1 + o for o in order] + [1 + n + o for o in order])
    dk = math.prod([dims[i] for i in keep])
    dt = math.prod([dims[i] for i in traced])
    t = t.reshape(B, dk, dt, dk, dt)
    return np.einsum("nakbk->nab", t) / dt


def factor_swap_source(dims, i, j) -> np.ndarray:
    """The column of the 1 in each row of factor_swap_matrix(dims, i, j)."""
    return np.swapaxes(np.arange(math.prod(dims)).reshape(dims), i, j).reshape(-1)


def factor_swap_matrix(dims, i, j) -> np.ndarray:
    """Permutation matrix exchanging factors i and j (equal dimensions)."""
    if dims[i] != dims[j]:
        raise ValueError("factor_swap_matrix needs equal dimensions")
    D = math.prod(dims)
    P = np.zeros((D, D), dtype=complex)
    P[np.arange(D), factor_swap_source(dims, i, j)] = 1.0
    return P


def operator_norm(mat: np.ndarray) -> float:
    if mat.size == 1:
        return float(abs(mat.reshape(-1)[0]))
    return float(np.linalg.norm(mat, 2))


def is_unitary(mat: np.ndarray, tol: float) -> bool:
    d = mat.shape[0]
    return bool(np.max(np.abs(mat @ mat.conj().T - np.eye(d))) <= tol)

