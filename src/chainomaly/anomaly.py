"""End-to-end anomaly pipeline for group actions on spin chains.

Given a finite group acting by circuit-plus-shift automorphisms, the
pipeline checks the action is a homomorphism, neutralizes any shift content
by stacking with a copy carrying the inverse shifts, restricts each
automorphism to the right half-chain by gate truncation, extracts the local
unitaries measuring the failure of the restriction to be a homomorphism,
assembles the resulting degree-3 phase cocycle, and classifies it exactly.
A nonzero class rules out symmetric gapped ground states for every
invariant finite-range Hamiltonian.

For a projective on-site representation combined with translation, the
mixed anomaly is computed lazily on the translation-slant argument set and
reduced to a degree-2 class on the on-site group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import _tensors as tz
from . import qca
from .errors import (
    CocycleViolation,
    NotAHomomorphism,
    NotIdentityOutside,
    NotInner,
    NotProjective,
    NotScalar,
    ShiftsPresent,
    SnapFailure,
    ValidationError,
    WindowCapExceeded,
)
from .grpcoh import (
    ClassCoords,
    CohomologyGroup,
    FiniteGroup,
    PhaseCochain,
    class_of,
    cohomology,
    is_cocycle,
    slant_z,
    snap_fraction,
)
from .opwin import (
    PAULI_X,
    PAULI_Z,
    TOL_AUTO,
    TOL_PHASE,
    SiteSpec,
    Window,
)
from .qca import (
    BlockLayer,
    GateTemplate,
    QcaExpr,
    ShiftPrimitive,
    balance_shifts,
    compose,
    gnvw_symbolic,
    identity_expr,
    invert,
    matrix_unit_batch,
    radius,
)
from .qca import _on_union, _run_batch, _site_span, _slot_dims, _trim_batch

# A local operator (slots, matrix): the matrix acts on the listed tensor
# slots in ascending order, as in the slot engine of `qca`.
SlotOperator = tuple[tuple[int, ...], np.ndarray]


def default_den_cap(group_order: int) -> int:
    return group_order * group_order * 12


@dataclass(frozen=True, eq=False)
class ActionSpec:
    """A finite group acting by one QcaExpr per element (element 0 maps to
    the first entry, and so on)."""

    group: FiniteGroup
    sites: SiteSpec
    exprs: tuple[QcaExpr, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.exprs) != self.group.order:
            raise ValidationError("one expression per group element required")
        for e in self.exprs:
            if e.sites != self.sites:
                raise ValidationError("all expressions must share the SiteSpec")

    def expr(self, g: int) -> QcaExpr:
        return self.exprs[g]


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    """Unitary projective representation given by one matrix per element."""

    group: FiniteGroup
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        if len(mats) != self.group.order:
            raise ValidationError("one matrix per group element required")
        m0 = mats[0].shape[0]
        for m in mats:
            if m.shape != (m0, m0):
                raise ValidationError("representation matrices differ in shape")
            if not tz.is_unitary(m, TOL_AUTO):
                raise ValidationError("representation matrix is not unitary")
        if np.max(np.abs(mats[0] - np.eye(m0))) > TOL_AUTO:
            raise ValidationError("identity element must map to the identity matrix")
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(eq=False)
class VTable:
    """Obstruction unitaries V(g, h), as (slots, matrix), with extraction
    diagnostics."""

    entries: dict[tuple[int, int], SlotOperator]
    residuals: dict[tuple[int, int], float] = field(default_factory=dict)
    omega_diagnostics: dict[tuple[int, ...], dict] = field(default_factory=dict)

    def gate(self, g: int, h: int) -> SlotOperator:
        return self.entries[(g, h)]


def _phase_rows(cochain: PhaseCochain):
    """(tuple, report row) for every argument tuple, in lexicographic order."""
    G = cochain.group
    for t in itertools.product(range(G.order), repeat=cochain.degree):
        v = cochain.at(*t)
        yield t, {"args": [G.name(g) for g in t], "phase": f"{v.numerator}/{v.denominator}"}


@dataclass(eq=False)
class AnomalyReport:
    group: FiniteGroup
    gnvw: dict[int, qca.PrimeLog]
    stacked: bool
    omega: PhaseCochain
    cohomology: CohomologyGroup
    coords: ClassCoords
    verdict: str
    diagnostics: dict

    def as_json_dict(self) -> dict:
        G = self.group
        omega_diag = self.diagnostics.get("omega", {})
        omega_rows = [
            {**row, "snap_error": float(omega_diag.get(t, {}).get("snap_error", 0.0))}
            for t, row in _phase_rows(self.omega)
        ]
        return {
            "gnvw": {
                G.name(g): {str(p): e for p, e in pl.exponents}
                for g, pl in sorted(self.gnvw.items())
            },
            "stacked": self.stacked,
            "omega": omega_rows,
            "invariant_factors": list(self.cohomology.invariant_factors),
            "class": list(self.coords.residues),
            "verdict": self.verdict,
            "diagnostics": {
                k: v for k, v in self.diagnostics.items() if k != "omega"
            },
        }

    def summary_text(self) -> str:
        lines = [
            f"group order: {self.group.order}",
            f"stacked: {self.stacked}",
            f"H^3 = {self.cohomology.pretty()}",
            f"class: {list(self.coords.residues)}",
        ]
        if self.verdict == "Anomalous":
            lines.append(
                "verdict: Anomalous; no symmetric gapped ground state is "
                "possible for any invariant finite-range Hamiltonian"
            )
        else:
            lines.append("verdict: NonAnomalous")
        return "\n".join(lines)


@dataclass(eq=False)
class MixedAnomalyReport:
    group0: FiniteGroup
    slant: PhaseCochain
    slant_class: ClassCoords
    projective: PhaseCochain
    projective_class: ClassCoords
    classes_equal: bool
    cohomology: CohomologyGroup
    verdict: str
    diagnostics: dict

    def as_json_dict(self) -> dict:
        return {
            "stacked": True,
            "slant": [row for _, row in _phase_rows(self.slant)],
            "projective": [row for _, row in _phase_rows(self.projective)],
            "invariant_factors": list(self.cohomology.invariant_factors),
            "slant_class": list(self.slant_class.residues),
            "projective_class": list(self.projective_class.residues),
            "classes_equal": self.classes_equal,
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
        }

    def summary_text(self) -> str:
        lines = [
            f"on-site group order: {self.group0.order}",
            f"H^2 = {self.cohomology.pretty()}",
            f"slant class: {list(self.slant_class.residues)}",
            f"projective class: {list(self.projective_class.residues)}",
            f"classes equal: {self.classes_equal}",
        ]
        if self.verdict == "Anomalous":
            lines.append(
                "verdict: Anomalous (mixed anomaly); no symmetric gapped "
                "ground state is possible for any invariant finite-range "
                "Hamiltonian"
            )
        else:
            lines.append("verdict: NonAnomalous")
        return "\n".join(lines)


# -- action verification and neutralization -----------------------------------

def verify_action(spec: ActionSpec, tol: float = TOL_AUTO, dim_cap: int | None = None) -> dict:
    """Check map(identity) = id and map(g) map(h) = map(gh) on all single-site
    matrix units in a probe window of width 2*radius + 2."""
    G = spec.group
    d = spec.sites.dim
    r = max(max((radius(e) for e in spec.exprs), default=0), 1)
    probe = range(-(r + 1), r + 1)
    units = matrix_unit_batch(d)

    def action_distance(e1: QcaExpr, e2: QcaExpr) -> float:
        return max(
            qca.action_distance_on_units(e1, e2, Window.site(j), units, dim_cap)
            for j in probe
        )

    ident = identity_expr(spec.sites)
    res = action_distance(spec.expr(0), ident)
    if res > tol:
        raise NotAHomomorphism(f"identity element acts nontrivially (residual {res:.3g})")
    worst = res
    for g in G.elements():
        for h in G.elements():
            dist = action_distance(
                compose(spec.expr(g), spec.expr(h)), spec.expr(G.mul(g, h))
            )
            worst = max(worst, dist)
            if dist > tol:
                raise NotAHomomorphism(
                    f"pair ({G.name(g)}, {G.name(h)}) violates the homomorphism "
                    f"property (residual {dist:.3g})"
                )
    return {"max_residual": worst, "pairs_checked": G.order ** 2, "probe_radius": r + 1}


def _lift_step_to_double(step, nregs0: int):
    """Reinterpret a step of the original system inside the doubled SiteSpec
    (original registers keep their indices; the copy occupies the rest)."""
    if isinstance(step, ShiftPrimitive):
        return step
    templates = []
    for t in step.templates:
        regs = t.registers
        if regs is None:
            regs = tuple((off, r) for off in range(t.span) for r in range(nregs0))
        templates.append(replace(t, registers=regs))
    return replace(step, templates=tuple(templates))


def stack_neutralize(spec: ActionSpec, dim_cap: int | None = None) -> ActionSpec:
    """If some element carries shift content, act on a doubled chain where the
    copy is shifted oppositely, then replace all shifts by swap circuits."""
    indices = [gnvw_symbolic(e) for e in spec.exprs]
    if all(ix.is_zero for ix in indices):
        return spec
    R0 = spec.sites.nregisters
    sites2 = spec.sites.stacked(spec.sites)
    new_exprs = []
    for e in spec.exprs:
        steps = [_lift_step_to_double(s, R0) for s in e.steps]
        net: dict[int, int] = {}
        for s in e.steps:
            if isinstance(s, ShiftPrimitive):
                net[s.register] = net.get(s.register, 0) + s.displacement
        for r, n in sorted(net.items()):
            if n:
                steps.append(ShiftPrimitive(R0 + r, -n))
        new_exprs.append(balance_shifts(QcaExpr(sites2, tuple(steps)), dim_cap))
    out = ActionSpec(spec.group, sites2, tuple(new_exprs), name=spec.name)
    verify_action(out, dim_cap=dim_cap)
    return out


def restrict_right(expr: QcaExpr) -> QcaExpr:
    """Keep exactly the gates whose site window fits in [0, inf)."""
    steps = []
    for step in expr.steps:
        if isinstance(step, ShiftPrimitive):
            raise ShiftsPresent("restriction needs a layer-only expression")
        new_min = 0 if step.min_site is None else max(0, step.min_site)
        steps.append(replace(step, min_site=new_min))
    return QcaExpr(expr.sites, tuple(steps))


# -- implementing-unitary extraction -------------------------------------------

def _extract_once(
    expr: QcaExpr,
    hint_window: Window,
    rank_ratio: float = 1e-7,
    tol: float = TOL_AUTO,
    dim_cap: int | None = None,
    max_choi_dim: int = 64,
) -> tuple[SlotOperator, float]:
    """The local unitary V, trimmed to the slots it acts on, with
    V A V^+ = expr(A), and the residual of that identity."""
    sites = expr.sites
    R = sites.nregisters
    r = max(radius(expr), 1)
    if hint_window.is_empty:
        raise ValidationError("hint window must be nonempty")

    active: list[int] = []
    for site in range(hint_window.lo - (r + 1), hint_window.hi + r + 2):
        for reg in range(R):
            slot = site * R + reg
            m = sites.registers[reg]
            units = matrix_unit_batch(m)
            out_slots, out = _run_batch(expr, (slot,), units, dim_cap)
            if out_slots == (slot,):
                moved = bool(np.max(np.abs(out - units)) > tol)
            else:
                moved = True
            if moved:
                if hint_window.contains_site(site):
                    active.append(slot)
                else:
                    raise NotIdentityOutside(
                        f"action is not the identity at site {site}"
                    )
    if not active:
        return ((), np.ones((1, 1), dtype=complex)), 0.0

    dims = _slot_dims(sites, active)
    D = math.prod(dims)
    if D > max_choi_dim:
        raise WindowCapExceeded(
            f"candidate support dimension {D} exceeds the extraction cap {max_choi_dim}"
        )
    units = matrix_unit_batch(D)
    out_slots, out = _run_batch(expr, tuple(active), units, dim_cap)
    if not set(out_slots) <= set(active):
        raise NotInner("images leave the candidate support window")
    if tuple(out_slots) != tuple(active):
        pos = [active.index(s) for s in out_slots]
        out = tz.embed_factors_batch(out, dims, pos)

    # reshuffled superoperator (Choi form): rank one exactly for conjugations
    arr = out.reshape(D, D, D, D)
    choi = arr.transpose(2, 0, 3, 1).reshape(D * D, D * D)
    choi = (choi + choi.conj().T) / 2
    if D * D <= 1024:
        w, v = np.linalg.eigh(choi)
        lam1, lam2 = float(w[-1]), float(w[-2])
        vec = v[:, -1]
    else:
        from scipy.sparse.linalg import eigsh

        v0 = np.ones(D * D) / math.sqrt(D * D)
        w, v = eigsh(choi, k=2, which="LA", v0=v0)
        order = np.argsort(w)
        lam1, lam2 = float(w[order[-1]]), float(w[order[-2]])
        vec = v[:, order[-1]]
    if lam2 > rank_ratio * lam1:
        raise NotInner(
            f"superoperator is not rank one (ratio {lam2 / lam1:.3g}); "
            "window too small or action not inner"
        )
    V = vec.reshape(D, D) * math.sqrt(D)
    u, _, wh = np.linalg.svd(V)
    V = u @ wh
    flat = V.reshape(-1)
    thr = 0.5 / math.sqrt(D)
    idx = int(next(i for i in range(flat.size) if abs(flat[i]) > thr))
    V = V * (flat[idx].conjugate() / abs(flat[idx]))

    resid = float(np.max(np.abs(V @ units @ V.conj().T - out)))
    if resid > tol:
        raise NotInner(f"extracted unitary fails to reproduce the action ({resid:.3g})")
    slots, mats = _trim_batch(sites, active, V[None], active)
    return (slots, mats[0]), resid


def _extract_search(
    expr: QcaExpr,
    max_hint: int = 8,
    **kw,
) -> tuple[SlotOperator, float]:
    step = max(1, radius(expr))
    hi = 1
    while True:
        try:
            return _extract_once(expr, Window(0, hi), **kw)
        except (NotInner, NotIdentityOutside):
            if hi + 1 >= max_hint:
                raise
            hi = min(hi + step, max_hint - 1)


# -- the degree-3 cocycle --------------------------------------------------------

def _scalar_phase(M: np.ndarray, scalar_tol: float) -> tuple[complex, float]:
    D = M.shape[0]
    lam = complex(np.trace(M) / D)
    resid = tz.operator_norm(M - lam * np.eye(D))
    if resid > scalar_tol or abs(abs(lam) - 1.0) > scalar_tol:
        raise NotScalar(
            f"product is not a unimodular multiple of the identity "
            f"(residual {resid:.3g}, |scale| {abs(lam):.6f})"
        )
    return lam / abs(lam), resid


def _omega_at(V, beta, mul, a, b, c, den_cap, scalar_tol, dim_cap, name) -> tuple[Fraction, dict]:
    """The associator V(a,b) V(ab,c) V(a,bc)^+ beta_a(V(b,c))^+ as an exact
    phase, with its snap and scalar residuals. `V(x, y)` returns the gate as
    (slots, matrix), `mul` is the group law and `name` labels elements in
    error messages."""
    ab, bc = mul(a, b), mul(b, c)
    try:
        bc_slots, vbc = V(b, c)
        parts = [(slots, m[None]) for slots, m in (V(a, b), V(ab, c), V(a, bc))]
        parts.append(_run_batch(beta[a], bc_slots, vbc[None], dim_cap))
        _, (vab, vabc, va_bc, beta_vbc) = _on_union(beta[a].sites, parts, dim_cap)
        P = (vab[0] @ vabc[0]) @ (va_bc[0].conj().T @ beta_vbc[0].conj().T)
        lam, resid = _scalar_phase(P, scalar_tol)
        frac, err = snap_fraction(float(np.angle(lam)) / (2 * math.pi), den_cap)
    except (NotScalar, SnapFailure) as exc:
        raise type(exc)(f"omega({name(a)}, {name(b)}, {name(c)}): {exc}") from exc
    return frac, {"snap_error": err, "scalar_residual": resid}


def omega_from_vtable(
    group: FiniteGroup,
    beta: dict[int, QcaExpr],
    vtable: VTable,
    den_cap: int,
    scalar_tol: float = TOL_PHASE,
    dim_cap: int | None = None,
) -> PhaseCochain:
    """Evaluate the associator of the V table and snap to exact phases."""
    vals = []
    for t in itertools.product(range(group.order), repeat=3):
        frac, diag = _omega_at(
            vtable.gate, beta, group.mul, *t, den_cap, scalar_tol, dim_cap, group.name
        )
        vals.append(frac)
        vtable.omega_diagnostics[t] = diag
    om = PhaseCochain(group, 3, tuple(vals))
    if not is_cocycle(om):
        raise CocycleViolation("snapped 3-cochain fails the cocycle identity")
    return om


def omega_cocycle(
    spec: ActionSpec,
    den_cap: int | None = None,
    dim_cap: int | None = None,
    max_hint: int = 8,
    scalar_tol: float = TOL_PHASE,
) -> tuple[PhaseCochain, VTable]:
    """Restrict the (zero-index) action to the right half-chain, extract all
    V(g, h), and evaluate the degree-3 phase cocycle."""
    G = spec.group
    den = default_den_cap(G.order) if den_cap is None else den_cap
    balanced = {
        g: balance_shifts(spec.expr(g), dim_cap) if spec.expr(g).has_shifts else spec.expr(g)
        for g in G.elements()
    }
    beta = {g: restrict_right(balanced[g]) for g in G.elements()}
    vtable = VTable(entries={}, residuals={})
    for g in G.elements():
        for h in G.elements():
            ev = compose(beta[g], compose(beta[h], invert(beta[G.mul(g, h)])))
            gate, resid = _extract_search(ev, max_hint=max_hint, dim_cap=dim_cap)
            vtable.entries[(g, h)] = gate
            vtable.residuals[(g, h)] = resid
    om = omega_from_vtable(G, beta, vtable, den, scalar_tol=scalar_tol, dim_cap=dim_cap)
    return om, vtable


def anomaly_class(
    spec: ActionSpec,
    den_cap: int | None = None,
    dim_cap: int | None = None,
    max_hint: int = 8,
    scalar_tol: float = TOL_PHASE,
) -> AnomalyReport:
    """Full pipeline: verify, neutralize, restrict, extract, snap, classify."""
    ver = verify_action(spec, dim_cap=dim_cap)
    gnvw = {g: gnvw_symbolic(spec.expr(g)) for g in spec.group.elements()}
    spec2 = stack_neutralize(spec, dim_cap)
    stacked = spec2 is not spec
    om, vtable = omega_cocycle(spec2, den_cap, dim_cap, max_hint, scalar_tol)
    H = cohomology(spec.group, 3)
    coords = class_of(om, H)
    verdict = "NonAnomalous" if coords.is_trivial else "Anomalous"
    diagnostics = {
        "homomorphism_residual": ver["max_residual"],
        "max_v_residual": max(vtable.residuals.values(), default=0.0),
        "max_snap_error": max(
            (d["snap_error"] for d in vtable.omega_diagnostics.values()), default=0.0
        ),
        "max_scalar_residual": max(
            (d["scalar_residual"] for d in vtable.omega_diagnostics.values()),
            default=0.0,
        ),
        "v_windows": {
            f"{spec.group.name(g)},{spec.group.name(h)}": str(_site_span(spec2.sites, slots))
            for (g, h), (slots, _) in sorted(vtable.entries.items())
        },
        "omega": dict(vtable.omega_diagnostics),
    }
    return AnomalyReport(
        group=spec.group,
        gnvw=gnvw,
        stacked=stacked,
        omega=om,
        cohomology=H,
        coords=coords,
        verdict=verdict,
        diagnostics=diagnostics,
    )


# -- projective representations and the mixed anomaly ---------------------------

def projective_cocycle(
    rep: ProjectiveRep, den_cap: int | None = None, tol: float = TOL_AUTO
) -> PhaseCochain:
    """The multiplier phases: rep(gh) = rho(g,h) rep(g) rep(h)."""
    G = rep.group
    den = default_den_cap(G.order) if den_cap is None else den_cap
    vals = []
    for g, h in itertools.product(range(G.order), repeat=2):
        M = rep.matrices[G.mul(g, h)] @ (rep.matrices[g] @ rep.matrices[h]).conj().T
        pair = f"({G.name(g)}, {G.name(h)})"
        try:
            lam, _ = _scalar_phase(M, tol)
        except NotScalar as exc:
            raise NotProjective(f"matrices at {pair} are not projective: {exc}") from exc
        try:
            frac, _ = snap_fraction(float(np.angle(lam)) / (2 * math.pi), den)
        except SnapFailure as exc:
            raise SnapFailure(f"multiplier at {pair}: {exc}") from exc
        vals.append(frac)
    rho = PhaseCochain(G, 2, tuple(vals))
    if not is_cocycle(rho):
        raise CocycleViolation("snapped multiplier fails the 2-cocycle identity")
    return rho


def _lsm_translation(m: int, n: int, dim_cap: int | None) -> QcaExpr:
    """Translation by n on the doubled chain of two m-dimensional registers
    (the copy shifted by -n), realized as a swap circuit."""
    sites2 = SiteSpec((m, m))
    if n == 0:
        return identity_expr(sites2)
    shift = QcaExpr(sites2, (ShiftPrimitive(0, n), ShiftPrimitive(1, -n)))
    return balance_shifts(shift, dim_cap)


def _lsm_with_onsite(rep: ProjectiveRep, g: int, translation: QcaExpr) -> QcaExpr:
    """The on-site layer of rep(g) on the first register, then `translation`."""
    if g == 0:
        return translation
    tmpl = GateTemplate(0, 1, rep.matrices[g], registers=((0, 0),))
    return QcaExpr(translation.sites, (BlockLayer(1, (tmpl,)),) + translation.steps)


def lsm_stacked_expr(
    rep: ProjectiveRep, g: int, n: int, dim_cap: int | None = None
) -> QcaExpr:
    """Action of (g, n) on the doubled chain: the on-site projective layer on
    the first register, with translation realized as n swap-circuit rounds."""
    return _lsm_with_onsite(rep, g, _lsm_translation(rep.dimension, n, dim_cap))


def lsm_pipeline(
    rep: ProjectiveRep,
    den_cap: int | None = None,
    dim_cap: int | None = None,
    max_hint: int = 8,
    scalar_tol: float = TOL_PHASE,
) -> MixedAnomalyReport:
    """Mixed anomaly of (projective on-site) x (translation): the slant of
    the degree-3 cocycle against the translation generator, compared with the
    class of the projective multiplier."""
    G0 = rep.group
    den = default_den_cap(G0.order) if den_cap is None else den_cap
    max_n = 2
    translations = [_lsm_translation(rep.dimension, n, dim_cap) for n in range(max_n + 1)]
    beta: dict[tuple[int, int], QcaExpr] = {
        (g, n): restrict_right(_lsm_with_onsite(rep, g, t))
        for g in G0.elements()
        for n, t in enumerate(translations)
    }

    def mulz(a, b):
        return (G0.mul(a[0], b[0]), a[1] + b[1])

    def namez(a):
        return f"({G0.name(a[0])}, {a[1]})"

    vcache: dict[tuple, tuple[SlotOperator, float]] = {}

    def V(a, b) -> SlotOperator:
        key = (a, b)
        if key not in vcache:
            ab = mulz(a, b)
            ev = compose(beta[a], compose(beta[b], invert(beta[ab])))
            vcache[key] = _extract_search(ev, max_hint=max_hint, dim_cap=dim_cap)
        return vcache[key][0]

    omega_diags: list[dict] = []

    def omega_eval(a, b, c) -> Fraction:
        frac, diag = _omega_at(V, beta, mulz, a, b, c, den, scalar_tol, dim_cap, namez)
        omega_diags.append(diag)
        return frac

    slant = slant_z(omega_eval, G0)
    H2 = cohomology(G0, 2)
    slant_class = class_of(slant, H2)
    rho = projective_cocycle(rep, den)
    rho_class = class_of(rho, H2)
    equal = slant_class.residues == rho_class.residues
    verdict = "NonAnomalous" if slant_class.is_trivial else "Anomalous"
    diag = {
        "max_snap_error": max((d["snap_error"] for d in omega_diags), default=0.0),
        "max_scalar_residual": max(
            (d["scalar_residual"] for d in omega_diags), default=0.0
        ),
        "max_v_residual": max((r for _, r in vcache.values()), default=0.0),
        "v_count": len(vcache),
    }
    return MixedAnomalyReport(
        group0=G0,
        slant=slant,
        slant_class=slant_class,
        projective=rho,
        projective_class=rho_class,
        classes_equal=equal,
        cohomology=H2,
        verdict=verdict,
        diagnostics=diag,
    )


# -- presets --------------------------------------------------------------------

CZ_GATE = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def levin_gu_action() -> ActionSpec:
    """Order-two action whose generator maps Z -> -Z and X -> Z X Z, realized
    as a uniform spin-flip layer followed by two brickwork layers of
    controlled-Z gates."""
    sites = SiteSpec((2,))
    x_layer = BlockLayer(1, (GateTemplate(0, 1, PAULI_X),))
    cz_even = BlockLayer(2, (GateTemplate(0, 2, CZ_GATE),))
    cz_odd = BlockLayer(2, (GateTemplate(1, 2, CZ_GATE),))
    gamma = QcaExpr(sites, (x_layer, cz_even, cz_odd))
    G = FiniteGroup.cyclic(2, names=("1", "-1"))
    return ActionSpec(G, sites, (identity_expr(sites), gamma), name="levin-gu-z2")


def onsite_flip_action() -> ActionSpec:
    """Order-two on-site control: the generator is the uniform spin flip."""
    sites = SiteSpec((2,))
    x_layer = BlockLayer(1, (GateTemplate(0, 1, PAULI_X),))
    flip = QcaExpr(sites, (x_layer,))
    G = FiniteGroup.cyclic(2, names=("1", "-1"))
    return ActionSpec(G, sites, (identity_expr(sites), flip), name="onsite")


def pauli_projective_rep() -> ProjectiveRep:
    """The two-dimensional projective representation of Z/2 x Z/2 by X^a Z^b."""
    G = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    mats = []
    for a in range(2):
        for b in range(2):
            mats.append(np.linalg.matrix_power(PAULI_X, a) @ np.linalg.matrix_power(PAULI_Z, b))
    return ProjectiveRep(G, tuple(mats))


def clock_shift_rep(p: int) -> ProjectiveRep:
    """Weyl pair representation of Z/p x Z/p: clock^a shift^b."""
    G = FiniteGroup.direct_product(FiniteGroup.cyclic(p), FiniteGroup.cyclic(p))
    w = np.exp(2j * np.pi / p)
    clock = np.diag([w ** k for k in range(p)])
    shift = np.zeros((p, p), dtype=complex)
    for k in range(p):
        shift[(k + 1) % p, k] = 1.0
    mats = []
    for a in range(p):
        for b in range(p):
            mats.append(
                np.linalg.matrix_power(clock, a) @ np.linalg.matrix_power(shift, b)
            )
    return ProjectiveRep(G, tuple(mats))


def linear_flip_rep() -> ProjectiveRep:
    """Honest linear representation of Z/2 (identity and X); trivial multiplier."""
    G = FiniteGroup.cyclic(2, names=("1", "-1"))
    return ProjectiveRep(G, (np.eye(2, dtype=complex), PAULI_X))


PRESET_ACTIONS = {
    "levin-gu-z2": levin_gu_action,
    "onsite": onsite_flip_action,
}

PRESET_REPS = {
    "pauli": pauli_projective_rep,
    "linear-z2": linear_flip_rep,
}
