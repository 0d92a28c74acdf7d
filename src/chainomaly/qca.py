"""Quantum cellular automata as layered circuits plus register shifts.

An expression is an ordered list of steps, each a translation-invariant
layer of disjoint gates or a shift of one on-site register. Steps act on
operators in list order: the image of A is step_n(...step_1(A)...). The
shift index, a positive rational (the product of m^displacement over the
register shifts, m the register dimension), is computed symbolically from the
shift content and can be cross-checked numerically as a ratio of
Hilbert-Schmidt overlaps across a cut. Runs of sites are `range`s.

An operator is a pair (slots, matrix): each (site, register) pair is one
tensor slot, numbered site * nregisters + register, and the matrix acts on
the listed slots in ascending order (identity elsewhere). The slot engine
`_run_batch` maps a batch of such matrices, given on its minimal support (no
slot on which the whole batch is the identity), through an expression. A
shift, and a gate whose matrix is exactly the swap of two equal-dimension
slots, only relabel slots: the factors are reordered and no entry changes.
Every other gate is conjugated on the union of its slots and the batch's, by
an embedding its template keeps per union shape, and in the same step
(`_conj_gate_batch`) the gate's slots on which the batch acts as identity are
trimmed, the only slots ever trimmed, so the output stays minimal. So swap
circuits (balanced shifts) cost no matrix products, and the matrices stay
small however deep the circuit. An operator is the identity on a slot
exactly when, cut into blocks by that slot's index, its off-diagonal blocks
vanish and its diagonal blocks agree. Two automorphisms are compared on one probe batch per site
(`site_probe`): the column units |i><0| of each register, tensored with the
identity on the site's other registers, which generate the site's algebra;
`register_distances` reads the largest distance per register. The overlap
index sums over all matrix units, an orthonormal basis.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import _tensors as tz
from .errors import (
    IndexMismatch,
    InvariantViolation,
    NonSquareRatio,
    NonZeroIndex,
    UnpairableShifts,
    ValidationError,
    WindowCapExceeded,
)
from .opwin import (
    DEFAULT_DIM_CAP,
    PROBE_SITE_CAP,
    TOL_ALGEBRA,
    TOL_AUTO,
    SiteSpec,
)


def _factorize(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def prime_exponents(index: Fraction) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of a positive rational, primes ascending:
    12 is [(2, 2), (3, 1)] and 1 is []."""
    pairs = _factorize(index.numerator)
    pairs.update((p, -e) for p, e in _factorize(index.denominator).items())
    return sorted(pairs.items())


def index_text(index: Fraction) -> str:
    """A positive rational as its sum of exponent*log(prime) terms, "0" for 1."""
    return " + ".join(f"{e}*log{p}" for p, e in prime_exponents(index)) or "0"


@dataclass(frozen=True, eq=False)
class GateTemplate:
    """One gate of a layer: a unitary on `span` consecutive sites anchored at
    an offset. With `registers` set, the gate acts only on the listed
    (site_offset, register) slots, in that tensor order."""

    anchor: int
    span: int
    unitary: np.ndarray
    registers: tuple[tuple[int, int], ...] | None = None
    _swaps: dict = field(default_factory=dict, init=False, repr=False)  # factor_swap memo
    _embeds: dict = field(default_factory=dict, init=False, repr=False)  # embedded memo

    def __post_init__(self):
        m = np.array(self.unitary, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "unitary", m)
        if self.span < 1:
            raise ValidationError("gate span must be >= 1")
        if self.registers is not None:
            try:
                regs = tuple((operator.index(a), operator.index(b)) for a, b in self.registers)
            except (TypeError, ValueError) as exc:
                raise ValidationError("registers must be [offset, register] pairs") from exc
            object.__setattr__(self, "registers", regs)

    def slots_at(self, base: int, nregs: int) -> tuple[int, ...]:
        if self.registers is None:
            return tuple(
                (base + off) * nregs + r for off in range(self.span) for r in range(nregs)
            )
        return tuple((base + off) * nregs + r for off, r in self.registers)

    def window_at(self, base: int) -> tuple[int, int]:
        return (base, base + self.span - 1)

    def factor_swap(self, sites: SiteSpec) -> tuple[int, int] | None:
        """The positions (i, j) in `slots_at` order if the unitary is exactly
        tz.factor_swap_matrix(dims, i, j) for two equal-dimension factors,
        identity on the rest; otherwise None. Decided once per SiteSpec: the
        unitary is read-only."""
        if sites not in self._swaps:
            self._swaps[sites] = _factor_swap(
                self.unitary, _slot_dims(sites, self.slots_at(0, sites.nregisters))
            )
        return self._swaps[sites]

    def embedded(self, dims: tuple[int, ...], positions: tuple[int, ...]):
        """The unitary tensored with identity onto factors of dimensions
        `dims`, acting on the factors at `positions` in `slots_at` order, and
        its conjugate transpose. Kept per (dims, positions) up to dimension
        _EMBED_MEMO_DIM, so the translates of a gate share one embedding."""
        key = (dims, positions)
        pair = self._embeds.get(key)
        if pair is None:
            g = tz.embed_factors_batch(self.unitary[None], dims, positions)[0]
            pair = (g, g.conj().T)
            for m in pair:
                m.setflags(write=False)
            if math.prod(dims) <= _EMBED_MEMO_DIM:
                self._embeds[key] = pair
        return pair


# Largest operator dimension whose gate embeddings a template keeps: each kept
# pair holds 2 * 16 * D^2 bytes, 128 KiB at D = 64, while a kept embedding at
# the 4096 cap would hold half a gigabyte.
_EMBED_MEMO_DIM = 64


def _factor_swap(u: np.ndarray, dims) -> tuple[int, int] | None:
    # u equals factor_swap_matrix(dims, i, j) bit for bit iff it is the 0/1
    # permutation matrix with the same column in every row
    src = np.argmax(np.abs(u), axis=1)
    if not np.array_equal(u, np.eye(len(u), dtype=complex)[src]):
        return None
    for i, j in itertools.combinations(range(len(dims)), 2):
        if dims[i] == dims[j] and np.array_equal(src, tz.factor_swap_source(dims, i, j)):
            return i, j
    return None


@dataclass(frozen=True, eq=False)
class BlockLayer:
    """Translation-invariant layer: copies of each template at anchor + k*period.
    min_site/max_site truncate the layer by keeping only gates whose site
    window fits inside [min_site, max_site]."""

    period: int
    templates: tuple[GateTemplate, ...]
    min_site: int | None = None
    max_site: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "templates", tuple(self.templates))
        if self.period < 1:
            raise ValidationError("layer period must be >= 1")
        if not self.templates:
            raise ValidationError("a layer needs at least one gate template")


@dataclass(frozen=True)
class ShiftPrimitive:
    """Shift one register by `displacement` sites (positive = right)."""

    register: int
    displacement: int

    def __post_init__(self):
        if self.displacement == 0:
            raise ValidationError("shift displacement must be nonzero")


Step = BlockLayer | ShiftPrimitive


def _validate_layer(layer: BlockLayer, sites: SiteSpec):
    R = sites.nregisters
    for t in layer.templates:
        if t.registers is not None:
            for off, r in t.registers:
                if not 0 <= off < t.span:
                    raise ValidationError(f"template offset {off} outside span {t.span}")
                if not 0 <= r < R:
                    raise ValidationError(f"template register {r} out of range")
            slots = t.slots_at(0, R)
            if any(a >= b for a, b in zip(slots, slots[1:])):
                raise ValidationError("template registers must be in slot order")
        dims = [sites.registers[s % R] for s in t.slots_at(0, R)]
        want = math.prod(dims)
        if t.unitary.shape != (want, want):
            raise ValidationError(
                f"gate matrix shape {t.unitary.shape} does not match slots (dim {want})"
            )
        if not tz.is_unitary(t.unitary, TOL_AUTO):
            raise ValidationError("gate matrix is not unitary within 1e-9")
    # translated copies must be pairwise slot-disjoint
    span_max = max(t.span for t in layer.templates)
    k_range = range(-(span_max // layer.period + 2), span_max // layer.period + 3)
    seen: dict[int, tuple[int, int]] = {}
    for ti, t in enumerate(layer.templates):
        for k in k_range:
            base = t.anchor + k * layer.period
            for s in t.slots_at(base, R):
                tag = seen.get(s)
                if tag is not None and tag != (ti, k):
                    raise ValidationError("layer gates overlap")
                seen[s] = (ti, k)


@dataclass(frozen=True, eq=False)
class QcaExpr:
    """Ordered steps on a fixed SiteSpec; applied to operators left to right."""

    sites: SiteSpec
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if isinstance(step, BlockLayer):
                _validate_layer(step, self.sites)
            elif isinstance(step, ShiftPrimitive):
                if not 0 <= step.register < self.sites.nregisters:
                    raise ValidationError(f"shift register {step.register} out of range")
            else:
                raise ValidationError(f"unknown step {step!r}")

    @property
    def has_shifts(self) -> bool:
        return any(isinstance(s, ShiftPrimitive) for s in self.steps)


def identity_expr(sites: SiteSpec) -> QcaExpr:
    return QcaExpr(sites, ())


def _validated(sites: SiteSpec, steps: tuple[Step, ...]) -> QcaExpr:
    """A QcaExpr of steps that already passed validation against `sites`:
    gates unitary, of their slots' shape, in range and disjoint, shifts in
    range. Composing, dropping, truncating, inverting and shift-conjugating
    valid steps keep these."""
    out = object.__new__(QcaExpr)
    object.__setattr__(out, "sites", sites)
    object.__setattr__(out, "steps", steps)
    return out


def compose(e1: QcaExpr, e2: QcaExpr) -> QcaExpr:
    """The automorphism e1(e2(A)): the steps of e2 act first, then those of e1."""
    if e1.sites != e2.sites:
        raise ValidationError("composition across different SiteSpecs")
    return _validated(e1.sites, e2.steps + e1.steps)


def _placement(step: Step):
    """What a layer's gates sit on: period, bounds, and each template's
    anchor, span and registers. None for a shift."""
    if not isinstance(step, BlockLayer):
        return None
    return (
        step.period, step.min_site, step.max_site,
        tuple((t.anchor, t.span, t.registers) for t in step.templates),
    )


def _is_scalar(m: np.ndarray) -> bool:
    return bool(np.abs(m - m[0, 0] * np.eye(len(m))).max() <= TOL_ALGEBRA)


def cancel_scalar_runs(e: QcaExpr) -> QcaExpr:
    """The same automorphism without every run of two or more adjacent layers
    that share one placement (`_placement`) and whose gate-wise product is,
    template by template, a multiple of the identity within TOL_ALGEBRA:
    such a run conjugates every operator trivially. A layer followed by its
    exact inverse is the shortest such run. One stack pass also removes
    nested runs, as in L M M^-1 L^-1; products are formed only where a layer
    has the placement of the stack top, and the layers that stay are the
    input's own. Shifts are never dropped."""
    kept: list[Step] = []
    # per kept step: its placement and, for each start k of the same-placement
    # run ending at it, the gate-wise products of the layers k .. it
    runs: list[tuple] = []
    for step in e.steps:
        key = _placement(step)
        prods: list[list[np.ndarray]] = []
        if key is not None:
            gates = [t.unitary for t in step.templates]
            if kept and runs[-1][0] == key:
                prods = [[g @ p for g, p in zip(gates, ps)] for ps in runs[-1][1]]
                scalar = [k for k, ps in enumerate(prods) if all(map(_is_scalar, ps))]
                if scalar:
                    # the shortest scalar run ending here goes
                    cut = len(kept) - len(prods) + scalar[-1]
                    del kept[cut:], runs[cut:]
                    continue
            prods.append(gates)
        kept.append(step)
        runs.append((key, prods))
    return e if len(kept) == len(e.steps) else _validated(e.sites, tuple(kept))


def invert(e: QcaExpr) -> QcaExpr:
    steps: list[Step] = []
    for step in reversed(e.steps):
        if isinstance(step, ShiftPrimitive):
            steps.append(ShiftPrimitive(step.register, -step.displacement))
        else:
            steps.append(
                replace(
                    step,
                    templates=tuple(
                        replace(t, unitary=t.unitary.conj().T) for t in step.templates
                    ),
                )
            )
    return _validated(e.sites, tuple(steps))


def radius(e: QcaExpr) -> int:
    """Light-cone radius. Each layer adds its widest span - 1. A run of
    consecutive shifts moves every register rigidly by its net displacement,
    so the run adds only the largest |net|."""
    r = 0
    for is_shift, run in itertools.groupby(e.steps, key=lambda s: isinstance(s, ShiftPrimitive)):
        if is_shift:
            net: dict[int, int] = {}
            for s in run:
                net[s.register] = net.get(s.register, 0) + s.displacement
            r += max(abs(n) for n in net.values())
        else:
            r += sum(max(t.span - 1 for t in layer.templates) for layer in run)
    return r


# -- slot engine ---------------------------------------------------------------

def _slot_dims(sites: SiteSpec, slots) -> list[int]:
    R = sites.nregisters
    return [sites.registers[s % R] for s in slots]


def _layer_gates(layer: BlockLayer, sites: SiteSpec, slots):
    """All gates of the layer whose slots intersect `slots`, as (gate slots,
    template, the two slots it swaps or None), in slot order. A template
    placed at `base` holds slot s at its place (offset, register) exactly
    when s is on that register at site base + offset, so the candidate bases
    are site - offset over the batch's slots and the template's places, kept
    when congruent to the anchor modulo the period."""
    R = sites.nregisters
    out = []
    for t in layer.templates:
        pair = t.factor_swap(sites)
        bases = set()
        for place in t.slots_at(0, R):
            off, r = divmod(place, R)
            bases.update(s // R - off for s in slots if s % R == r)
        for base in bases:
            if (base - t.anchor) % layer.period:
                continue
            wlo, whi = t.window_at(base)
            if layer.min_site is not None and wlo < layer.min_site:
                continue
            if layer.max_site is not None and whi > layer.max_site:
                continue
            gslots = t.slots_at(base, R)
            swap = None if pair is None else (gslots[pair[0]], gslots[pair[1]])
            out.append((gslots, t, swap))
    out.sort(key=lambda g: g[0])
    return out


def _reduce_if_identity(mats: np.ndarray, a: int, d: int, c: int, thr: float):
    """For a batch on factors (a, d, c): the normalised partial trace over the
    middle factor if every matrix is identity there, i.e. every off-diagonal
    d x d block has all entries within `thr` of 0 and every diagonal block is
    within `thr` of that trace; otherwise None. A NaN entry is never within
    `thr`."""
    B = mats.shape[0]
    t = mats.reshape(B, a, d, c, a, d, c)
    # (x, 0) blocks first: a batch of column units |i><0| is zero in every
    # (0, y) block of its own slot and nonzero in (i, 0)
    for y, x in itertools.permutations(range(d), 2):
        if not np.abs(t[:, :, x, :, :, y, :]).max() <= thr:
            return None
    reduced = np.einsum("nixjkxl->nijkl", t) / d
    if not np.abs(t.diagonal(axis1=2, axis2=5) - reduced[..., None]).max() <= thr:
        return None
    return reduced.reshape(B, a * c, a * c)


def _conj_gate_batch(sites, slots, mats, gslots, gate: GateTemplate):
    """Conjugate the batch by the template `gate` placed on `gslots` (in its
    slots_at order), on the union of their slots, then drop each gate slot on
    which the whole batch acts as identity, within TOL_ALGEBRA times the
    largest entry (at least 1), highest slot first."""
    union, dims = _union(sites, (slots, gslots))
    union = list(union)
    mats = tz.embed_factors_batch(mats, dims, [union.index(s) for s in slots])
    G, G_dag = gate.embedded(tuple(dims), tuple(union.index(s) for s in gslots))
    mats = G @ mats @ G_dag
    scale = max(1.0, float(np.abs(mats).max(initial=0.0)))
    for s in sorted(gslots, reverse=True):
        idx = union.index(s)
        a, c = math.prod(dims[:idx]), math.prod(dims[idx + 1:])
        reduced = _reduce_if_identity(mats, a, dims[idx], c, TOL_ALGEBRA * scale)
        if reduced is not None:
            mats = reduced
            scale = max(1.0, float(np.abs(mats).max(initial=0.0)))
            del union[idx], dims[idx]
    return tuple(union), mats


def _relabel_batch(sites, slots, mats, rename: dict[int, int]):
    """Move the factor on each slot s to slot rename.get(s, s) (a register
    shift, or a gate that swaps two equal-dimension slots). Only the factor
    order changes, so every entry is kept exactly and no slot turns trivial."""
    moved = [rename.get(s, s) for s in slots]
    order = sorted(range(len(moved)), key=moved.__getitem__)
    if order != list(range(len(moved))):
        mats = tz.permute_factors_batch(mats, _slot_dims(sites, slots), order)
    return tuple(moved[i] for i in order), mats


def _run_batch(expr: QcaExpr, slots, mats):
    """`expr` applied to a batch on its minimal support (module docstring):
    only each conjugated gate's slots are trimmed, never the input's."""
    sites = expr.sites
    R = sites.nregisters
    for step in expr.steps:
        if isinstance(step, ShiftPrimitive):
            n = step.displacement * R
            rename = {s: s + n for s in slots if s % R == step.register}
            slots, mats = _relabel_batch(sites, slots, mats, rename)
            continue
        for gslots, gate, swap in _layer_gates(step, sites, slots):
            if swap is None:
                slots, mats = _conj_gate_batch(sites, slots, mats, gslots, gate)
            else:
                x, y = swap
                slots, mats = _relabel_batch(sites, slots, mats, {x: y, y: x})
    return slots, mats


def _slots_of_window(sites: SiteSpec, window: range) -> tuple[int, ...]:
    """Every slot of the sites in `window`, a range of step 1."""
    R = sites.nregisters
    return tuple(range(window.start * R, window.stop * R))


def _site_span(sites: SiteSpec, slots) -> str:
    """The smallest closed interval of sites that holds the given slots, as
    "[lo,hi]" ("[]" for no slots)."""
    R = sites.nregisters
    return f"[{min(slots) // R},{max(slots) // R}]" if slots else "[]"


def _union(sites: SiteSpec, slot_lists) -> tuple[tuple[int, ...], list[int]]:
    """The sorted union of the slot lists and its slot dimensions, refusing a
    union whose dimension exceeds the cap."""
    union = tuple(sorted(set().union(*slot_lists)))
    dims = _slot_dims(sites, union)
    D = math.prod(dims)
    if D > DEFAULT_DIM_CAP:
        raise WindowCapExceeded(f"operator dimension {D} exceeds cap {DEFAULT_DIM_CAP}")
    return union, dims


def _on_union(sites: SiteSpec, parts) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Embed every (slots, batch) part on the sorted union of all their slots,
    refusing a union whose dimension exceeds the cap."""
    union, dims = _union(sites, (slots for slots, _ in parts))
    return union, [
        tz.embed_factors_batch(mats, dims, [union.index(s) for s in slots])
        for slots, mats in parts
    ]


def matrix_unit_batch(dim: int) -> np.ndarray:
    """All dim^2 matrix units as a batch, unit (i, j) at index i*dim + j."""
    out = np.zeros((dim * dim, dim, dim), dtype=complex)
    i = np.repeat(np.arange(dim), dim)
    j = np.tile(np.arange(dim), dim)
    out[np.arange(dim * dim), i, j] = 1.0
    return out


def site_units(sites: SiteSpec) -> np.ndarray:
    """The column units of every register of one site, register 0's first,
    each tensored with the identity on the site's other registers: one batch
    on the site's slots, in which register r holds the dims[r] units after
    those of registers 0 .. r - 1."""
    dims = list(sites.registers)
    return np.concatenate([
        tz.embed_factors_batch(column_units(d), dims, [r]) for r, d in enumerate(dims)
    ])


def site_probe(sites: SiteSpec, site: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The probe batch of one site: its slots and the column units of each of
    its registers (`site_units`), which generate the site's algebra."""
    return _slots_of_window(sites, range(site, site + 1)), site_units(sites)


def column_units(dim: int) -> np.ndarray:
    """The dim column units |i><0| as a batch, unit i at index i. They
    generate the full matrix algebra, |i><j| = |i><0| (|j><0|)^+, so two
    automorphisms agree on it exactly when they agree on these units."""
    out = np.zeros((dim, dim, dim), dtype=complex)
    out[np.arange(dim), np.arange(dim), 0] = 1.0
    return out


# -- index computations --------------------------------------------------------

def gnvw_symbolic(expr: QcaExpr) -> Fraction:
    """Shift content of the expression: the product of m^displacement over
    its register shifts, m the dimension of the shifted register."""
    total = Fraction(1)
    for step in expr.steps:
        if isinstance(step, ShiftPrimitive):
            total *= Fraction(expr.sites.registers[step.register]) ** step.displacement
    return total


# Largest d^(2r) (site dimension d, radius r) the numeric index accepts. It is
# the size of the unit batch on r input sites; larger circuits push the slot
# engine's transient batches to gigabytes.
_NUMERIC_UNIT_CAP = 64


def _overlap(expr: QcaExpr, inputs: range, outputs: range) -> float:
    """eta(X -> Y) = sum_i ||E_Y(alpha(u_i))||_tau^2 over the tau-orthonormal
    matrix units u_i = sqrt(D)|a><b| of X, with E_Y the normalised partial
    trace onto the slots of Y and ||x||_tau^2 = tr(x^dag x) / dim x."""
    sites = expr.sites
    D = sites.dim ** len(inputs)
    units = math.sqrt(D) * matrix_unit_batch(D)
    slots, mats = _run_batch(expr, _slots_of_window(sites, inputs), units)
    keep = [i for i, s in enumerate(slots) if s // sites.nregisters in outputs]
    reduced = tz.partial_trace_keep_batch(mats, _slot_dims(sites, slots), keep)
    return float(np.sum(np.abs(reduced) ** 2)) / reduced.shape[-1]


def gnvw_numeric(expr: QcaExpr) -> Fraction:
    """Numeric cross-check of the shift content across the cut between sites
    -1 and 0, as the ratio of Hilbert-Schmidt overlaps
    ind^2 = eta([-r, -1] -> [0, 2r-1]) / eta([0, r-1] -> [-2r, -1])
    (Gross-Nesme-Vogts-Werner). Raises IndexMismatch if it disagrees with
    gnvw_symbolic (the symbolic value is authoritative)."""
    r = max(radius(expr), 1)
    d = expr.sites.dim
    if d ** (2 * r) > _NUMERIC_UNIT_CAP:
        raise WindowCapExceeded(
            f"numeric index at radius {r} and site dimension {d} needs a "
            f"{d}^{2 * r}-element unit batch; cap is {_NUMERIC_UNIT_CAP}"
        )
    eta_lr = _overlap(expr, range(-r, 0), range(0, 2 * r))
    eta_rl = _overlap(expr, range(0, r), range(-2 * r, 0))
    measured = eta_lr / eta_rl
    ratio = Fraction(measured).limit_denominator(d ** (2 * r))
    ns, ds = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
    if (
        abs(measured - ratio) > TOL_AUTO * max(1.0, ratio)
        or ns * ns != ratio.numerator
        or ds * ds != ratio.denominator
    ):
        raise NonSquareRatio(
            f"overlap ratio {eta_lr:.12g}/{eta_rl:.12g} is not the square of a rational"
        )
    result = Fraction(ns, ds)
    expected = gnvw_symbolic(expr)
    if result != expected:
        raise IndexMismatch(
            f"numeric index {index_text(result)} (overlaps {eta_lr:.12g}/{eta_rl:.12g}) "
            f"disagrees with symbolic {index_text(expected)}"
        )
    return result


# -- shift neutralization --------------------------------------------------------

def _pair_swap_steps(sites: SiteSpec, plus: int, minus: int, k: int) -> tuple[Step, Step]:
    """Two layers equal to (shift `plus` right k sites) * (shift `minus` left
    k sites): an on-site register swap, then one swap of (j, minus) with
    (j + k, plus) at every site j, a gate of span k + 1."""
    regs = sites.registers
    swap_onsite = tz.factor_swap_matrix(list(regs), plus, minus)
    s_layer = BlockLayer(period=1, templates=(GateTemplate(0, 1, swap_onsite),))
    swap_pair = tz.factor_swap_matrix([regs[plus]] * 2, 0, 1)
    st_layer = BlockLayer(
        period=1, templates=(GateTemplate(0, k + 1, swap_pair, ((0, minus), (k, plus))),)
    )
    return s_layer, st_layer


def _conjugate_layer(layer: BlockLayer, back: list[int], sites: SiteSpec) -> BlockLayer:
    """S^-1 layer S for the shift S that moves each register r by back[r]
    sites: every gate slot on register r moves back[r] sites left, and each
    unitary's factors are reordered into slot order. A template that moves
    no slot is kept as it is."""
    R = sites.nregisters
    templates = []
    for t in layer.templates:
        regs = t.registers
        if regs is None:
            regs = tuple((off, r) for off in range(t.span) for r in range(R))
        moved = [(off - back[r], r) for off, r in regs]
        if moved == list(regs):
            templates.append(t)
            continue
        if layer.min_site is not None or layer.max_site is not None:
            raise UnpairableShifts("a truncated layer acts on a register with a pending shift")
        order = sorted(range(len(moved)), key=moved.__getitem__)
        dims = [sites.registers[r] for _, r in regs]
        unitary = tz.permute_factors_batch(t.unitary[None], dims, order)[0]
        lo = moved[order[0]][0]
        hi = max(off for off, _ in moved)
        new_regs = tuple((moved[i][0] - lo, moved[i][1]) for i in order)
        templates.append(GateTemplate(t.anchor + lo, hi - lo + 1, unitary, new_regs))
    return replace(layer, templates=tuple(templates))


def balance_shifts(expr: QcaExpr) -> QcaExpr:
    """Replace all shift steps by swap circuits. Requires zero total index.
    Each shift is moved past the layers after it: a layer L that follows a
    net displacement S becomes S^-1 L S. The unit shifts of the final net
    displacement are then paired, right with left, between equal-dimension
    registers, and each run of k equal pairs becomes one two-layer swap
    circuit of span k + 1 at the end."""
    if not expr.has_shifts:
        return expr
    index = gnvw_symbolic(expr)
    if index != 1:
        raise NonZeroIndex(f"nonzero index {index_text(index)}: not a circuit")
    sites = expr.sites
    net = [0] * sites.nregisters
    steps: list[Step] = []
    for step in expr.steps:
        if isinstance(step, ShiftPrimitive):
            net[step.register] += step.displacement
        else:
            steps.append(_conjugate_layer(step, net, sites))
    unpaired = 0
    for m in sorted(set(sites.registers)):
        regs = [r for r, dim in enumerate(sites.registers) if dim == m]
        plus = [r for r in regs for _ in range(net[r])]
        minus = [r for r in regs for _ in range(-net[r])]
        unpaired += abs(len(plus) - len(minus))
        for pair, run in itertools.groupby(zip(plus, minus)):
            steps.extend(_pair_swap_steps(sites, *pair, len(list(run))))
    if unpaired:
        raise UnpairableShifts(
            f"{unpaired} unit shifts have no equal-dimension partner"
        )
    out = _validated(sites, tuple(steps))
    _verify_same_action(expr, out)
    return out


def register_distances(sites: SiteSpec, a, b) -> np.ndarray:
    """Per register, the largest Frobenius distance between matching units of
    two images (slots, matrices) of one `site_probe` batch, compared on the
    union of their slots."""
    _, (m1, m2) = _on_union(sites, [a, b])
    dist = np.sqrt(np.sum(np.abs(m1 - m2) ** 2, axis=(1, 2)))
    return np.maximum.reduceat(dist, np.cumsum((0,) + sites.registers[:-1]))


def _probe_sites(exprs) -> range:
    """Sites whose probe batches (`site_probe`) decide whether automorphisms
    built from `exprs` agree on the whole chain. Every step commutes with
    translation by P, the lcm of the layer periods, so the check at j + P is
    the translate of the check at j and sites 0 .. P - 1 decide it. A
    `min_site`/`max_site` bound breaks that only within reach 2r + 1 of it
    (r the largest radius), so with bounds the sites also run from the
    lowest - reach - P to the highest + reach + P. More than PROBE_SITE_CAP
    sites raise WindowCapExceeded."""
    layers = [s for e in exprs for s in e.steps if isinstance(s, BlockLayer)]
    period = math.lcm(*(layer.period for layer in layers))
    bounds = [b for layer in layers for b in (layer.min_site, layer.max_site) if b is not None]
    lo, hi = 0, period
    if bounds:
        reach = 2 * max(radius(e) for e in exprs) + 1
        lo = min(lo, min(bounds) - reach - period)
        hi = max(hi, max(bounds) + reach + period + 1)
    if hi - lo > PROBE_SITE_CAP:
        raise WindowCapExceeded(f"{hi - lo} probe sites exceed cap {PROBE_SITE_CAP}")
    return range(lo, hi)


def _verify_same_action(e1: QcaExpr, e2: QcaExpr):
    """Raise InvariantViolation unless e1 and e2 agree, within TOL_AUTO, on
    the probe batch of every probe site (`site_probe`, `_probe_sites`)."""
    sites = e1.sites
    for j in _probe_sites((e1, e2)):
        probe = site_probe(sites, j)
        if register_distances(sites, *(_run_batch(e, *probe) for e in (e1, e2))).max() > TOL_AUTO:
            raise InvariantViolation(
                f"shift neutralization changed the action at site {j}"
            )
