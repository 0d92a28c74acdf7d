"""Support-algebra dimensions across a cut, kept as an independent oracle for
the overlap form of the numeric shift index.

The algebra generated by the part-side coefficients of the images of all
matrix units on a window is closed under multiplication with an SVD rank
tolerance. Gross-Nesme-Vogts-Werner define the index through these
dimensions; `chainomaly.qca.gnvw_numeric` computes the same ratio from
Hilbert-Schmidt overlaps. Used only by the tests as an oracle."""

from __future__ import annotations

import math

import numpy as np

from chainomaly import _tensors as tz
from chainomaly import qca
from chainomaly.errors import InvariantViolation, WindowCapExceeded
from chainomaly.opwin import DEFAULT_DIM_CAP, SiteSpec, Window
from chainomaly.qca import QcaExpr, matrix_unit_batch, radius


def unit_images(expr: QcaExpr, window: Window) -> list[tuple[Window, np.ndarray]]:
    """Images of all matrix units on `window`, as (window, matrix) pairs on
    one common window of whole sites."""
    sites = expr.sites
    units = matrix_unit_batch(sites.dim ** window.length)
    slots, mats = qca._run_batch(expr, qca._slots_of_window(sites, window), units)
    span = qca._site_span(sites, slots)
    full = qca._slots_of_window(sites, span)
    big = tz.embed_factors_batch(mats, qca._slot_dims(sites, full), [full.index(s) for s in slots])
    return [(span, m) for m in big]


def support_dims(expr: QcaExpr) -> tuple[int, int]:
    """(dim_r, dim_l): the support algebra on the right of the cut between
    sites -1 and 0 of the images of [-2r, -1], and its mirror image; the
    index squared is dim_r / dim_l."""
    r = max(radius(expr), 1)
    sites = expr.sites
    dim_r = support_algebra_dim(sites, unit_images(expr, Window(-2 * r, -1)), Window(0, 3 * r))
    dim_l = support_algebra_dim(sites, unit_images(expr, Window(0, 2 * r - 1)), Window(-3 * r, -1))
    return dim_r, dim_l


def support_algebra_dim(
    sites: SiteSpec,
    gens,
    part: Window,
    rank_tol: float = 1e-9,
    dim_cap: int | None = None,
) -> int:
    """Dimension of the algebra generated by the part-side coefficients of the
    generators, expanded in a Hilbert-Schmidt product basis of the complement
    and closed under multiplication. Each generator is a (window, matrix)
    pair, the matrix acting on all sites of the window."""
    gens = list(gens)
    if not gens:
        return 0
    d = sites.dim
    peff = sorted(
        {
            j
            for w, _ in gens
            for j in w.sites()
            if part.contains_site(j)
        }
    )
    dims_p = [d] * len(peff)
    Dp = math.prod(dims_p) if peff else 1
    cap = DEFAULT_DIM_CAP if dim_cap is None else dim_cap
    if Dp > cap:
        raise WindowCapExceeded(f"support window dimension {Dp} exceeds cap {cap}")

    coeffs: list[np.ndarray] = []
    for w, mat in gens:
        if w.is_empty:
            if abs(mat[0, 0]) > 1e-12:
                coeffs.append(np.eye(Dp, dtype=complex).reshape(1, Dp, Dp))
            continue
        wsites = list(w.sites())
        n = len(wsites)
        ov = [i for i, j in enumerate(wsites) if part.contains_site(j)]
        out = [i for i in range(n) if i not in ov]
        dims = [d] * n
        arr = mat.reshape(dims + dims)
        order = ov + out
        arr = arr.transpose([o for o in order] + [n + o for o in order])
        Dov = d ** len(ov)
        Dout = d ** len(out)
        arr = arr.reshape(Dov, Dout, Dov, Dout).transpose(1, 3, 0, 2).reshape(
            Dout * Dout, Dov, Dov
        )
        scale = max(1.0, float(np.max(np.abs(mat))))
        norms = np.linalg.norm(arr.reshape(arr.shape[0], -1), axis=1)
        block = arr[norms > 1e-12 * scale]
        if block.size == 0:
            continue
        pos = [peff.index(wsites[i]) for i in ov]
        coeffs.append(tz.embed_factors_batch(block, dims_p, pos) if peff else block)

    # close the span under multiplication, batched
    basis = np.zeros((0, Dp * Dp), dtype=complex)

    def absorb(cands: np.ndarray) -> np.ndarray:
        """Orthonormalize candidates against the basis; returns new rows."""
        nonlocal basis
        flat = cands.reshape(cands.shape[0], -1)
        nrm = np.linalg.norm(flat, axis=1)
        flat = flat[nrm > rank_tol]
        if flat.shape[0] == 0:
            return flat
        flat = flat / np.linalg.norm(flat, axis=1)[:, None]
        for _ in range(2):
            if basis.shape[0]:
                flat = flat - (flat @ basis.conj().T) @ basis
        if flat.shape[0] == 0:
            return flat
        u, s, vh = np.linalg.svd(flat, full_matrices=False)
        new = vh[s > rank_tol]
        if new.shape[0]:
            basis = np.vstack([basis, new])
        return new

    fresh = absorb(np.concatenate(coeffs)) if coeffs else np.zeros((0, Dp * Dp))
    while fresh.shape[0]:
        if basis.shape[0] > Dp * Dp:
            raise InvariantViolation("support algebra closure exceeded full dimension")
        a = fresh.reshape(-1, Dp, Dp)
        b = basis.reshape(-1, Dp, Dp)
        prods = np.concatenate(
            [
                np.einsum("aij,bjk->abik", a, b).reshape(-1, Dp, Dp),
                np.einsum("aij,bjk->abik", b, a).reshape(-1, Dp, Dp),
            ]
        )
        fresh = absorb(prods)
    return basis.shape[0]
