"""Low-level dense tensor helpers shared by the operator and circuit engines.

Operators live on an ordered list of factors with given dimensions; factor 0
is the most significant index of the flat matrix. Everything here is plain
numpy; callers own the bookkeeping of what the factors mean.
"""

from __future__ import annotations

import math

import numpy as np


def embed_factors(mat: np.ndarray, dims_all, positions) -> np.ndarray:
    """embed_factors_batch for a single matrix."""
    return embed_factors_batch(mat[None], dims_all, positions)[0]


def embed_factors_batch(mats: np.ndarray, dims_all, positions) -> np.ndarray:
    """Embed each matrix of `mats` (shape (B, d, d), acting on the factors
    listed in `positions`, in that order) into the full factor list
    `dims_all`, tensoring identity on the rest."""
    n = len(dims_all)
    positions = list(positions)
    if positions == list(range(n)):
        return mats
    rest = [i for i in range(n) if i not in positions]
    d_rest = math.prod([dims_all[i] for i in rest])
    eye = np.eye(d_rest, dtype=complex)
    B, d, _ = mats.shape
    big = (mats[:, :, None, :, None] * eye[None, None, :, None, :]).reshape(
        B, d * d_rest, d * d_rest
    )
    # current factor order is positions + rest; permute to 0..n-1
    order = positions + rest
    perm = np.argsort(order)
    dims_cur = [dims_all[i] for i in order]
    t = big.reshape([B] + dims_cur + dims_cur)
    t = t.transpose([0] + [1 + p for p in perm] + [1 + n + p for p in perm])
    D = math.prod(dims_all)
    return np.ascontiguousarray(t.reshape(B, D, D))


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


def partial_trace_keep_batch(mats: np.ndarray, dims, keep, normalized=True) -> np.ndarray:
    """Trace out all factors not in `keep` (ascending positions kept in
    order) from each matrix of the batch. With normalized=True each traced
    factor is averaged, which makes the map unital."""
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
    out = np.einsum("nakbk->nab", t)
    if normalized:
        out = out / dt
    return out


def factor_is_trivial_batch(mats: np.ndarray, dims, idx, tol) -> bool:
    """True if every operator in the batch acts as identity on factor `idx`,
    i.e. equals (normalized partial trace over idx) tensor identity."""
    n = len(dims)
    keep = [i for i in range(n) if i != idx]
    reduced = partial_trace_keep_batch(mats, dims, keep, normalized=True)
    rebuilt = embed_factors_batch(reduced, dims, keep)
    scale = max(1.0, float(np.max(np.abs(mats))) if mats.size else 1.0)
    return bool(np.max(np.abs(rebuilt - mats)) <= tol * scale)


def factor_swap_matrix(dims, i, j) -> np.ndarray:
    """Permutation matrix exchanging factors i and j (equal dimensions)."""
    if dims[i] != dims[j]:
        raise ValueError("factor_swap_matrix needs equal dimensions")
    D = math.prod(dims)
    flat = np.arange(D).reshape(dims)
    src = np.swapaxes(flat, i, j).reshape(-1)
    P = np.zeros((D, D), dtype=complex)
    P[np.arange(D), src] = 1.0
    return P


def operator_norm(mat: np.ndarray) -> float:
    if mat.size == 1:
        return float(abs(mat.reshape(-1)[0]))
    return float(np.linalg.norm(mat, 2))


def is_unitary(mat: np.ndarray, tol: float) -> bool:
    d = mat.shape[0]
    return bool(np.max(np.abs(mat @ mat.conj().T - np.eye(d))) <= tol)


def operator_schmidt_rank_one(mat: np.ndarray, dims, part, tol=1e-9) -> bool:
    """True if `mat` factorizes as (operator on `part`) x (operator on the
    rest) across the given factor bipartition."""
    n = len(dims)
    part = list(part)
    rest = [i for i in range(n) if i not in part]
    if not part or not rest:
        return True
    order = part + rest
    t = mat.reshape(list(dims) + list(dims))
    t = t.transpose([o for o in order] + [n + o for o in order])
    dp = math.prod([dims[i] for i in part])
    dr = math.prod([dims[i] for i in rest])
    t = t.reshape(dp, dr, dp, dr).transpose(0, 2, 1, 3).reshape(dp * dp, dr * dr)
    s = np.linalg.svd(t, compute_uv=False)
    return bool(s.size <= 1 or s[1] <= tol * s[0])
