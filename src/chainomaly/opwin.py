"""Exact finite-window operator algebra for qudit chains.

An operator is a dense complex matrix attached to a finite interval of
integer sites. The tensor convention is global and fixed: the leftmost site
is the most significant factor, and within one site the registers of the
SiteSpec appear in listed order with register 0 most significant. Scalars
are carried on the distinguished empty window as 1x1 matrices.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _tensors as tz
from .errors import ValidationError, WindowCapExceeded, WindowMismatch

# Tolerance hierarchy: exact algebraic identities, automorphism and
# unitarity checks, phase extraction.
TOL_ALGEBRA = 1e-12
TOL_AUTO = 1e-9
TOL_PHASE = 1e-6

# Matrices larger than this are refused (12 sites at d=2).
DEFAULT_DIM_CAP = 4096

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class SiteSpec:
    """On-site Hilbert space as an ordered list of register dimensions."""

    registers: tuple[int, ...]

    def __post_init__(self):
        regs = tuple(int(m) for m in self.registers)
        object.__setattr__(self, "registers", regs)
        if not regs:
            raise ValidationError("SiteSpec needs at least one register")
        if any(m < 2 for m in regs):
            raise ValidationError(f"register dimensions must be >= 2, got {regs}")

    @property
    def dim(self) -> int:
        return math.prod(self.registers)

    @property
    def nregisters(self) -> int:
        return len(self.registers)

    def stacked(self, other: "SiteSpec") -> "SiteSpec":
        return SiteSpec(self.registers + other.registers)


@dataclass(frozen=True)
class Window:
    """Closed interval of sites [lo, hi]; lo > hi encodes the empty window
    (canonically (0, -1))."""

    lo: int = 0
    hi: int = -1

    def __post_init__(self):
        if self.lo > self.hi and (self.lo, self.hi) != (0, -1):
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "hi", -1)

    @classmethod
    def empty(cls) -> "Window":
        return cls(0, -1)

    @classmethod
    def site(cls, j: int) -> "Window":
        return cls(j, j)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def length(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1

    def sites(self) -> range:
        return range(self.lo, self.hi + 1) if not self.is_empty else range(0)

    def contains_site(self, j: int) -> bool:
        return not self.is_empty and self.lo <= j <= self.hi

    def contains(self, other: "Window") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.lo <= other.lo and other.hi <= self.hi

    def union(self, other: "Window") -> "Window":
        """Smallest interval containing both windows."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Window(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersection(self, other: "Window") -> "Window":
        if self.is_empty or other.is_empty:
            return Window.empty()
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Window(lo, hi) if lo <= hi else Window.empty()

    def __str__(self):
        return "[]" if self.is_empty else f"[{self.lo},{self.hi}]"


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Complex matrix on a finite window of sites of a fixed SiteSpec."""

    sites: SiteSpec
    window: Window
    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        want = self.sites.dim ** self.window.length
        if m.shape != (want, want):
            raise ValidationError(
                f"matrix shape {m.shape} does not match window {self.window} "
                f"(expected {want}x{want})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def norm(self) -> float:
        return tz.operator_norm(self.mat)

    def is_unitary(self, tol: float = TOL_AUTO) -> bool:
        return tz.is_unitary(self.mat, tol)

    def site_dims(self) -> list[int]:
        return [self.sites.dim] * self.window.length

    def __repr__(self):
        return f"LocalOperator(window={self.window}, dim={self.dim})"


def scalar(sites: SiteSpec, value: complex = 1.0) -> LocalOperator:
    return LocalOperator(sites, Window.empty(), np.array([[value]], dtype=complex))


def identity_on(sites: SiteSpec, window: Window) -> LocalOperator:
    d = sites.dim ** window.length
    return LocalOperator(sites, window, np.eye(d, dtype=complex))


def one_site(sites: SiteSpec, j: int, mat: np.ndarray) -> LocalOperator:
    return LocalOperator(sites, Window.site(j), mat)


def matrix_unit(sites: SiteSpec, j: int, a: int, b: int) -> LocalOperator:
    d = sites.dim
    m = np.zeros((d, d), dtype=complex)
    m[a, b] = 1.0
    return one_site(sites, j, m)


def _check_cap(dim: int, cap: int | None):
    cap = DEFAULT_DIM_CAP if cap is None else cap
    if dim > cap:
        raise WindowCapExceeded(f"operator dimension {dim} exceeds cap {cap}")


def embed(op: LocalOperator, target: Window, dim_cap: int | None = None) -> LocalOperator:
    """Embed as op tensor identity on the extra sites of `target`."""
    if not target.contains(op.window):
        raise WindowMismatch(f"target {target} does not contain {op.window}")
    if target == op.window:
        return op
    d = op.sites.dim
    _check_cap(d ** target.length, dim_cap)
    if op.window.is_empty:
        val = op.mat[0, 0]
        return LocalOperator(
            op.sites, target, val * np.eye(d ** target.length, dtype=complex)
        )
    dims = [d] * target.length
    positions = [j - target.lo for j in op.window.sites()]
    return LocalOperator(op.sites, target, tz.embed_factors(op.mat, dims, positions))


def product(a: LocalOperator, b: LocalOperator, dim_cap: int | None = None) -> LocalOperator:
    """Multiply after embedding both into the union window."""
    if a.sites != b.sites:
        raise WindowMismatch("operands live on different SiteSpecs")
    w = a.window.union(b.window)
    ea = embed(a, w, dim_cap)
    eb = embed(b, w, dim_cap)
    return LocalOperator(a.sites, w, ea.mat @ eb.mat)


def adjoint(op: LocalOperator) -> LocalOperator:
    return LocalOperator(op.sites, op.window, op.mat.conj().T)


def scale(op: LocalOperator, c: complex) -> LocalOperator:
    return LocalOperator(op.sites, op.window, c * op.mat)


def add(a: LocalOperator, b: LocalOperator, dim_cap: int | None = None) -> LocalOperator:
    if a.sites != b.sites:
        raise WindowMismatch("operands live on different SiteSpecs")
    w = a.window.union(b.window)
    return LocalOperator(a.sites, w, embed(a, w, dim_cap).mat + embed(b, w, dim_cap).mat)


def conditional_expectation(op: LocalOperator, keep: Window) -> LocalOperator:
    """Normalized partial trace onto `keep`; unital and contractive."""
    if not op.window.contains(keep):
        raise WindowMismatch(f"keep {keep} is not inside {op.window}")
    if keep == op.window:
        return op
    if op.window.is_empty:
        return op
    dims = op.site_dims()
    keep_pos = [j - op.window.lo for j in keep.sites()]
    out = tz.partial_trace_keep(op.mat, dims, keep_pos, normalized=True)
    if keep.is_empty:
        return scalar(op.sites, out[0, 0])
    return LocalOperator(op.sites, keep, out)


def op_distance(a: LocalOperator, b: LocalOperator, dim_cap: int | None = None) -> float:
    """Operator norm of a - b after common embedding."""
    if a.sites != b.sites:
        raise WindowMismatch("operands live on different SiteSpecs")
    w = a.window.union(b.window)
    if w.is_empty:
        return float(abs(a.mat[0, 0] - b.mat[0, 0]))
    return tz.operator_norm(embed(a, w, dim_cap).mat - embed(b, w, dim_cap).mat)


def trim(op: LocalOperator, tol: float = TOL_ALGEBRA) -> LocalOperator:
    """Drop boundary sites on which the operator acts as identity."""
    cur = op
    while not cur.window.is_empty:
        dims = cur.site_dims()
        n = len(dims)
        if tz.factor_is_trivial_batch(cur.mat[None], dims, 0, tol):
            cur = conditional_expectation(cur, Window(cur.window.lo + 1, cur.window.hi))
            continue
        if n > 0 and tz.factor_is_trivial_batch(cur.mat[None], dims, n - 1, tol):
            cur = conditional_expectation(cur, Window(cur.window.lo, cur.window.hi - 1))
            continue
        break
    return cur


def lift_registers(sites: SiteSpec, mats: dict[int, np.ndarray]) -> np.ndarray:
    """Build a one-site matrix acting as `mats[r]` on register r and identity
    elsewhere. Keys are register indices."""
    dims = list(sites.registers)
    out = np.eye(sites.dim, dtype=complex)
    for r, m in mats.items():
        if m.shape != (dims[r], dims[r]):
            raise ValidationError(f"register {r} matrix has wrong shape {m.shape}")
        out = out @ tz.embed_factors(np.asarray(m, dtype=complex), dims, [r])
    return out


# -- matrix literal format (shared with the CLI config) ----------------------

def matrix_from_pairs(pairs, expect_unitary: bool = True) -> np.ndarray:
    """Row-major list of [re, im] pairs -> square complex matrix."""
    if not isinstance(pairs, (list, tuple)) or not all(
        isinstance(p, (list, tuple))
        and len(p) == 2
        and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in p)
        for p in pairs
    ):
        raise ValidationError("matrix literal is not a flat list of numeric [re, im] pairs")
    vals = [complex(p[0], p[1]) for p in pairs]
    n = math.isqrt(len(vals))
    if n * n != len(vals):
        raise ValidationError(f"matrix literal length {len(vals)} is not a square")
    m = np.array(vals, dtype=complex).reshape(n, n)
    if expect_unitary and not tz.is_unitary(m, TOL_AUTO):
        raise ValidationError("matrix literal is not unitary within 1e-9")
    return m


def matrix_to_pairs(mat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(mat).reshape(-1)]
