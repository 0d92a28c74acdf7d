"""Quantum cellular automata as layered circuits plus register shifts.

An expression is an ordered list of steps, each a translation-invariant
layer of disjoint gates or a shift of one on-site register. Steps act on
operators in list order: the image of A is step_n(...step_1(A)...). The
composition index (integer combinations of log-primes of register
dimensions) is computed symbolically from the shift content and can be
cross-checked numerically as a ratio of Hilbert-Schmidt overlaps across a cut.

An operator is a pair (slots, matrix): each (site, register) pair is one
tensor slot, numbered site * nregisters + register, and the matrix acts on
the listed slots in ascending order (identity elsewhere). The slot engine
`_run_batch` maps a batch of such matrices through an expression, trimming
identity slots after every gate. That keeps swap-heavy circuits (stacked
shift neutralizations) at small matrix sizes regardless of their depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import _tensors as tz
from . import opwin
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
    TOL_ALGEBRA,
    TOL_AUTO,
    SiteSpec,
    Window,
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


@dataclass(frozen=True)
class PrimeLog:
    """Integer combination of log-primes, stored as (prime, exponent) pairs."""

    exponents: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        acc: dict[int, int] = {}
        for p, e in self.exponents:
            acc[p] = acc.get(p, 0) + e
        norm = tuple(sorted((p, e) for p, e in acc.items() if e != 0))
        object.__setattr__(self, "exponents", norm)

    @classmethod
    def zero(cls) -> "PrimeLog":
        return cls(())

    @classmethod
    def of_dimension(cls, m: int, k: int = 1) -> "PrimeLog":
        return cls(tuple((p, e * k) for p, e in _factorize(m).items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.exponents)

    @property
    def is_zero(self) -> bool:
        return not self.exponents

    def __add__(self, other: "PrimeLog") -> "PrimeLog":
        return PrimeLog(self.exponents + other.exponents)

    def __neg__(self) -> "PrimeLog":
        return PrimeLog(tuple((p, -e) for p, e in self.exponents))

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{e}*log{p}" for p, e in self.exponents)


@dataclass(frozen=True, eq=False)
class GateTemplate:
    """One gate of a layer: a unitary on `span` consecutive sites anchored at
    an offset. With `registers` set, the gate acts only on the listed
    (site_offset, register) slots, in that tensor order."""

    anchor: int
    span: int
    unitary: np.ndarray
    registers: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        m = np.array(self.unitary, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "unitary", m)
        if self.span < 1:
            raise ValidationError("gate span must be >= 1")
        if self.registers is not None:
            try:
                regs = tuple((int(a), int(b)) for a, b in self.registers)
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


def compose(e1: QcaExpr, e2: QcaExpr) -> QcaExpr:
    """The automorphism e1(e2(A)): the steps of e2 act first, then those of e1."""
    if e1.sites != e2.sites:
        raise ValidationError("composition across different SiteSpecs")
    return QcaExpr(e1.sites, e2.steps + e1.steps)


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
    return QcaExpr(e.sites, tuple(steps))


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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _layer_gates(layer: BlockLayer, sites: SiteSpec, slots) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All gates of the layer whose slots intersect `slots`."""
    if not slots:
        return []
    R = sites.nregisters
    lo_site = min(slots) // R
    hi_site = max(slots) // R
    sset = set(slots)
    out = []
    for t in layer.templates:
        k_lo = _ceil_div(lo_site - t.span + 1 - t.anchor, layer.period)
        k_hi = (hi_site - t.anchor) // layer.period
        for k in range(k_lo, k_hi + 1):
            base = t.anchor + k * layer.period
            wlo, whi = t.window_at(base)
            if layer.min_site is not None and wlo < layer.min_site:
                continue
            if layer.max_site is not None and whi > layer.max_site:
                continue
            gslots = t.slots_at(base, R)
            if sset.intersection(gslots):
                out.append((gslots, t.unitary))
    out.sort(key=lambda g: g[0])
    return out


def _trim_batch(sites, slots, mats, candidates, tol=TOL_ALGEBRA):
    slots = list(slots)
    for s in sorted(set(candidates), reverse=True):
        if s not in slots or len(slots) == 0:
            continue
        dims = _slot_dims(sites, slots)
        idx = slots.index(s)
        if tz.factor_is_trivial_batch(mats, dims, idx, tol):
            keep = [i for i in range(len(slots)) if i != idx]
            mats = tz.partial_trace_keep_batch(mats, dims, keep, normalized=True)
            slots.pop(idx)
    return tuple(slots), mats


def _conj_gate_batch(sites, slots, mats, gslots, gmat, dim_cap):
    new_slots = tuple(sorted(set(slots) | set(gslots)))
    dims = _slot_dims(sites, new_slots)
    D = math.prod(dims)
    cap = DEFAULT_DIM_CAP if dim_cap is None else dim_cap
    if D > cap:
        raise WindowCapExceeded(f"transient dimension {D} exceeds cap {cap}")
    if new_slots != tuple(slots):
        pos = [new_slots.index(s) for s in slots]
        mats = tz.embed_factors_batch(mats, dims, pos)
    gpos = [new_slots.index(s) for s in gslots]
    G = tz.embed_factors(np.asarray(gmat, dtype=complex), dims, gpos)
    mats = G @ mats @ G.conj().T
    return _trim_batch(sites, new_slots, mats, gslots)


def _shift_batch(sites, slots, mats, register, displacement):
    R = sites.nregisters
    moved = [s + displacement * R if s % R == register else s for s in slots]
    order = sorted(range(len(moved)), key=lambda i: moved[i])
    if order != list(range(len(moved))):
        dims = _slot_dims(sites, slots)
        mats = tz.permute_factors_batch(mats, dims, order)
    return tuple(moved[i] for i in order), mats


def _run_batch(expr: QcaExpr, slots, mats, dim_cap=None):
    slots, mats = _trim_batch(expr.sites, slots, mats, slots)
    for step in expr.steps:
        if isinstance(step, ShiftPrimitive):
            slots, mats = _shift_batch(expr.sites, slots, mats, step.register, step.displacement)
        else:
            for gslots, gmat in _layer_gates(step, expr.sites, slots):
                slots, mats = _conj_gate_batch(expr.sites, slots, mats, gslots, gmat, dim_cap)
    return slots, mats


def _slots_of_window(sites: SiteSpec, window: Window) -> tuple[int, ...]:
    R = sites.nregisters
    if window.is_empty:
        return ()
    return tuple(range(window.lo * R, (window.hi + 1) * R))


def _site_span(sites: SiteSpec, slots) -> Window:
    """The smallest window of sites that holds the given slots."""
    R = sites.nregisters
    return Window(min(slots) // R, max(slots) // R) if slots else Window.empty()


def _on_union(
    sites: SiteSpec, parts, dim_cap: int | None = None
) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Embed every (slots, batch) part on the sorted union of all their slots,
    refusing a union whose dimension exceeds the cap."""
    union = tuple(sorted(set().union(*(slots for slots, _ in parts))))
    dims = _slot_dims(sites, union)
    D = math.prod(dims)
    cap = DEFAULT_DIM_CAP if dim_cap is None else dim_cap
    if D > cap:
        raise WindowCapExceeded(f"operator dimension {D} exceeds cap {cap}")
    return union, [
        mats if tuple(slots) == union
        else tz.embed_factors_batch(mats, dims, [union.index(s) for s in slots])
        for slots, mats in parts
    ]


def matrix_unit_batch(dim: int) -> np.ndarray:
    """All dim^2 matrix units as a batch, unit (i, j) at index i*dim + j."""
    out = np.zeros((dim * dim, dim, dim), dtype=complex)
    i = np.repeat(np.arange(dim), dim)
    j = np.tile(np.arange(dim), dim)
    out[np.arange(dim * dim), i, j] = 1.0
    return out


# -- index computations --------------------------------------------------------

def gnvw_symbolic(expr: QcaExpr) -> PrimeLog:
    """Shift content of the expression: each register shift contributes its
    displacement times the prime exponents of the register dimension."""
    total = PrimeLog.zero()
    for step in expr.steps:
        if isinstance(step, ShiftPrimitive):
            m = expr.sites.registers[step.register]
            total = total + PrimeLog.of_dimension(m, step.displacement)
    return total


# Largest d^(2r) (site dimension d, radius r) the numeric index accepts. It is
# the size of the unit batch on r input sites; larger circuits push the slot
# engine's transient batches to gigabytes.
_NUMERIC_UNIT_CAP = 64


def _overlap(expr: QcaExpr, inputs: Window, outputs: Window, dim_cap: int | None = None) -> float:
    """eta(X -> Y) = sum_i ||E_Y(alpha(u_i))||_tau^2 over the tau-orthonormal
    matrix units u_i = sqrt(D)|a><b| of X, with E_Y the normalised partial
    trace onto the slots of Y and ||x||_tau^2 = tr(x^dag x) / dim x."""
    sites = expr.sites
    D = sites.dim ** inputs.length
    units = math.sqrt(D) * matrix_unit_batch(D)
    slots, mats = _run_batch(expr, _slots_of_window(sites, inputs), units, dim_cap)
    keep = [i for i, s in enumerate(slots) if outputs.contains_site(s // sites.nregisters)]
    reduced = tz.partial_trace_keep_batch(mats, _slot_dims(sites, slots), keep)
    return float(np.sum(np.abs(reduced) ** 2)) / reduced.shape[-1]


def gnvw_numeric(expr: QcaExpr, dim_cap: int | None = None) -> PrimeLog:
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
            f"{d ** (2 * r)}-element unit batch; cap is {_NUMERIC_UNIT_CAP}"
        )
    eta_lr = _overlap(expr, Window(-r, -1), Window(0, 2 * r - 1), dim_cap)
    eta_rl = _overlap(expr, Window(0, r - 1), Window(-2 * r, -1), dim_cap)
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
    result = PrimeLog.of_dimension(ns, 1) + PrimeLog.of_dimension(ds, -1)
    expected = gnvw_symbolic(expr)
    if result != expected:
        raise IndexMismatch(
            f"numeric index {result} (overlaps {eta_lr:.12g}/{eta_rl:.12g}) "
            f"disagrees with symbolic {expected}"
        )
    return result


# -- shift neutralization --------------------------------------------------------

def _template_touches_register(t: GateTemplate, reg: int, nregs: int) -> bool:
    if t.registers is None:
        return True
    return any(r == reg for _, r in t.registers)


def _layer_commutes_with_unit_shift(layer: BlockLayer, reg: int, sites: SiteSpec) -> bool:
    R = sites.nregisters
    if all(not _template_touches_register(t, reg, R) for t in layer.templates):
        return True
    # uniform on-site layers that factorize across the shifted register
    if layer.period != 1 or len(layer.templates) != 1:
        return False
    if layer.min_site is not None or layer.max_site is not None:
        return False
    t = layer.templates[0]
    if t.span != 1:
        return False
    slots = t.slots_at(0, R)
    dims = [sites.registers[s % R] for s in slots]
    part = [i for i, s in enumerate(slots) if s % R == reg]
    return tz.operator_schmidt_rank_one(t.unitary, dims, part, tol=TOL_ALGEBRA)


def _pair_swap_steps(sites: SiteSpec, reg_plus: int, reg_minus: int) -> tuple[Step, Step]:
    """Two layers equal to (shift reg_plus right one site) * (shift reg_minus
    left one site): an on-site register swap followed by a staggered swap."""
    regs = sites.registers
    m = regs[reg_plus]
    swap_onsite = tz.factor_swap_matrix(list(regs), reg_plus, reg_minus)
    s_layer = BlockLayer(period=1, templates=(GateTemplate(0, 1, swap_onsite),))
    swap_pair = tz.factor_swap_matrix([m, m], 0, 1)
    st_layer = BlockLayer(
        period=1,
        templates=(
            GateTemplate(0, 2, swap_pair, registers=((0, reg_minus), (1, reg_plus))),
        ),
    )
    return s_layer, st_layer


def balance_shifts(expr: QcaExpr, dim_cap: int | None = None, tol: float = TOL_AUTO) -> QcaExpr:
    """Replace all shift steps by swap circuits. Requires zero total index;
    unit shifts of equal-dimension registers with opposite signs are paired
    greedily in step order."""
    if not expr.has_shifts:
        return expr
    if not gnvw_symbolic(expr).is_zero:
        raise NonZeroIndex(f"nonzero index {gnvw_symbolic(expr)}: not a circuit")
    sites = expr.sites
    layers: list[Step] = []
    carried: list[ShiftPrimitive] = []
    for step in expr.steps:
        if isinstance(step, ShiftPrimitive):
            sign = 1 if step.displacement > 0 else -1
            carried.extend(
                ShiftPrimitive(step.register, sign) for _ in range(abs(step.displacement))
            )
        else:
            for sh in carried:
                if not _layer_commutes_with_unit_shift(step, sh.register, sites):
                    raise UnpairableShifts(
                        "cannot normalize step order: a shift does not commute "
                        "with a later layer"
                    )
            layers.append(step)
    # greedy pairing of opposite unit shifts on equal-dimension registers
    unpaired: list[ShiftPrimitive] = []
    pairs: list[tuple[int, int]] = []
    for sh in carried:
        mate = None
        for i, other in enumerate(unpaired):
            if (
                other.displacement == -sh.displacement
                and sites.registers[other.register] == sites.registers[sh.register]
            ):
                mate = i
                break
        if mate is None:
            unpaired.append(sh)
        else:
            other = unpaired.pop(mate)
            plus, minus = (sh, other) if sh.displacement > 0 else (other, sh)
            pairs.append((plus.register, minus.register))
    if unpaired:
        raise UnpairableShifts(
            f"{len(unpaired)} unit shifts have no equal-dimension partner"
        )
    steps = list(layers)
    for reg_plus, reg_minus in pairs:
        if reg_plus == reg_minus:
            continue  # opposite shifts of one register cancel outright
        steps.extend(_pair_swap_steps(sites, reg_plus, reg_minus))
    out = QcaExpr(sites, tuple(steps))
    _verify_same_action(expr, out, tol, dim_cap)
    return out


def action_distance_on_units(
    e1: QcaExpr, e2: QcaExpr, window: Window, mats: np.ndarray, dim_cap=None
) -> float:
    """Largest Frobenius distance between the images of a unit batch under two
    expressions (an upper bound for the operator-norm distance), computed at
    slot granularity so big common windows are never materialized."""
    slots = _slots_of_window(e1.sites, window)
    images = [_run_batch(e, slots, mats, dim_cap) for e in (e1, e2)]
    _, (m1, m2) = _on_union(e1.sites, images, dim_cap)
    diff = m1 - m2
    per_unit = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(1, 2)))
    return float(np.max(per_unit))


def _verify_same_action(e1: QcaExpr, e2: QcaExpr, tol: float, dim_cap=None):
    d = e1.sites.dim
    rr = max(radius(e1), radius(e2), 1) + 1
    units = matrix_unit_batch(d)
    for j in range(-rr, rr + 1):
        if action_distance_on_units(e1, e2, Window.site(j), units, dim_cap) > tol:
            raise InvariantViolation(
                f"shift neutralization changed the action at site {j}"
            )


# -- serialization ----------------------------------------------------------------

def step_to_data(step: Step) -> dict:
    if isinstance(step, ShiftPrimitive):
        return {"kind": "shift", "register": step.register, "displacement": step.displacement}
    data = {
        "kind": "layer",
        "period": step.period,
        "templates": [
            {
                "anchor": t.anchor,
                "span": t.span,
                "unitary": opwin.matrix_to_pairs(t.unitary),
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


def _at(path: str, make, *args):
    """make(*args), with `path` prefixed to any ValidationError it raises."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _ints(data, path: str, *keys: str) -> list[int]:
    """The required integer fields of a serialized mapping."""
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a mapping, got {data!r}")
    out = []
    for key in keys:
        if key not in data:
            raise ValidationError(f"{path}.{key}: missing required field")
        try:
            out.append(int(data[key]))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}.{key}: expected an integer, got {data[key]!r}") from exc
    return out


def step_from_data(data, path: str = "step") -> Step:
    """Parse one serialized step; every error names its place under `path`."""
    _ints(data, path)  # a mapping, before any field is read
    kind = data.get("kind")
    if kind == "shift":
        return _at(path, ShiftPrimitive, *_ints(data, path, "register", "displacement"))
    if kind != "layer":
        raise ValidationError(f"{path}: unknown step kind {kind!r}")
    (period,) = _ints(data, path, "period")
    if not isinstance(data.get("templates"), list):
        raise ValidationError(f"{path}.templates: expected a list of gate templates")
    templates = []
    for j, t in enumerate(data["templates"]):
        tpath = f"{path}.templates[{j}]"
        anchor, span = _ints(t, tpath, "anchor", "span")
        unitary = _at(f"{tpath}.unitary", opwin.matrix_from_pairs, t.get("unitary"))
        templates.append(_at(tpath, GateTemplate, anchor, span, unitary, t.get("registers")))
    lo, hi = (
        None if data.get(k) is None else _ints(data, path, k)[0] for k in ("min_site", "max_site")
    )
    return _at(path, BlockLayer, period, tuple(templates), lo, hi)


def expr_to_data(expr: QcaExpr) -> list[dict]:
    return [step_to_data(s) for s in expr.steps]


def expr_from_data(sites: SiteSpec, data, path: str = "steps") -> QcaExpr:
    """Parse a serialized step list; errors name `path[i]` for a bad step and
    `path` for a step list that does not fit the SiteSpec."""
    if not isinstance(data, list):
        raise ValidationError(f"{path}: expected a list of steps")
    steps = tuple(step_from_data(s, f"{path}[{i}]") for i, s in enumerate(data))
    return _at(path, QcaExpr, sites, steps)
