"""End-to-end anomaly pipeline for group actions on spin chains.

Given a finite group acting by circuit-plus-shift automorphisms, the
pipeline checks the action is a homomorphism, restricts each automorphism
to the right half-chain by gate truncation, extracts the local unitaries
measuring the failure of the restriction to be a homomorphism, evaluates
the resulting degree-3 phase cocycle in float turns, and classifies it
exactly from its rounded Bockstein, which does not depend on the gauge the
extraction picks. A nonzero class rules out symmetric gapped ground states
for every invariant finite-range Hamiltonian. The shift index is a
homomorphism into the torsion-free group of positive rationals, so every
element of a finite group has index 1: its shift content is balanced into
a swap circuit, and nothing is stacked.

Each V(g, h) implements beta_g beta_h beta_gh^-1 and is extracted, when the
associator first needs it, on the slots that expression moves. Its runs of
adjacent same-placement layers whose gate-wise product is a scalar are
dropped first, and an expression with no layer left is implemented by V = 1
unprobed. One sweep finds the moved slots. A right restriction of a
homomorphic action moves nothing left of the cut and nothing at a site >= r,
r being the radius of the remaining expression (at least 1), so sites 0 ..
r - 1 are probed, and only when a slot at site r - 1 or beyond moves does
the sweep go on until the r + 1 sites after the last moved one are fixed.
An automorphism is fixed on a site by its images of the column units
|i><0| of each register, tensored with the identity on the site's other
registers, which generate the site's algebra. They are a site's one probe
batch (qca.site_probe): the homomorphism check, the shift-balance self-check
and the V sweep all compare two images of it, register by register
(qca.register_distances). A slot is moved unless beta_h beta_gh^-1 maps its
register's units to their images under beta_g^-1; the V table keeps those
inverse images, computed once per element and site, so each probed site
costs one run of beta_h. On the moved slots the expression is conjugation by
V, and V is read column by column off the images of the column units of its
support, v_i v_0^+.

For a projective on-site representation combined with translation, the
chain is stacked with a copy that the translation shifts oppositely, and the
mixed anomaly is computed lazily on the translation-slant argument set and
reduced to a degree-2 class on the on-site group, to compare with the class
of the projective multiplier. Reports print each cocycle exactly, as its
phases snapped to rationals or, when one does not snap, as its class
representative. Caps and tolerances are module constants.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import _tensors as tz
from .errors import (
    CocycleViolation,
    NotACocycle,
    NotAHomomorphism,
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
    bockstein_class,
    class_of,
    cohomology,
    slant_z,
    snap_fraction,
)
from .opwin import (
    PAULI_X,
    PAULI_Z,
    TOL_AUTO,
    TOL_PHASE,
    SiteSpec,
)
from .qca import (
    BlockLayer,
    GateTemplate,
    QcaExpr,
    ShiftPrimitive,
    balance_shifts,
    cancel_scalar_runs,
    column_units,
    compose,
    identity_expr,
    invert,
    radius,
    register_distances,
    site_probe,
)
from .qca import (
    _on_union,
    _probe_sites,
    _run_batch,
    _site_span,
    _slot_dims,
    _validated,
)

# A local operator (slots, matrix): the matrix acts on the listed tensor
# slots in ascending order, as in the slot engine of `qca`.
SlotOperator = tuple[tuple[int, ...], np.ndarray]


def default_den_cap(group_order: int) -> int:
    """Largest denominator a reported phase snaps to."""
    return group_order * group_order * 12


@dataclass(frozen=True, eq=False)
class ActionSpec:
    """A finite group acting by one QcaExpr per element (element 0 maps to
    the first entry, and so on)."""

    group: FiniteGroup
    sites: SiteSpec
    exprs: tuple[QcaExpr, ...]

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
        if m0 < 2:
            raise ValidationError(f"representation dimension must be >= 2, got {m0}")
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


def _phase_rows(cochain: PhaseCochain):
    """The report row of every argument tuple, in lexicographic order."""
    G = cochain.group
    for t in itertools.product(range(G.order), repeat=cochain.degree):
        v = cochain.at(*t)
        yield {"args": [G.name(g) for g in t], "phase": f"{v.numerator}/{v.denominator}"}


def _verdict_line(verdict: str, kind: str = "") -> str:
    """The summary's last line; `kind` qualifies an anomalous verdict."""
    if verdict != "Anomalous":
        return f"verdict: {verdict}"
    return (
        f"verdict: Anomalous{kind}; no symmetric gapped ground state is "
        "possible for any invariant finite-range Hamiltonian"
    )


@dataclass(frozen=True, eq=False)
class ClassifiedCocycle:
    """A phase cocycle's class, from the rounded Bockstein of its float turns,
    and the exact cochain a report prints: the measured phases snapped to
    rationals (`snap_errors` holds their errors), or the class representative
    from the generators when some phase does not snap (`snap_errors` None)."""

    cochain: PhaseCochain
    coords: ClassCoords
    snap_errors: tuple[float, ...] | None


@dataclass(eq=False)
class AnomalyReport:
    """The class of a finite-group action's degree-3 cocycle. `omega` is the
    printed cochain and `snap_errors` its phases' snap errors in row order,
    as in ClassifiedCocycle (None when `omega` is the class representative)."""

    group: FiniteGroup
    omega: PhaseCochain
    cohomology: CohomologyGroup
    coords: ClassCoords
    verdict: str
    diagnostics: dict
    snap_errors: tuple[float, ...] | None

    def as_json_dict(self) -> dict:
        G = self.group
        omega_rows = list(_phase_rows(self.omega))
        for row, err in zip(omega_rows, self.snap_errors or ()):
            row["snap_error"] = float(err)
        return {
            "gnvw": {G.name(g): {} for g in G.elements()},
            "stacked": False,
            "omega": omega_rows,
            "invariant_factors": list(self.cohomology.invariant_factors),
            "class": list(self.coords.residues),
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
        }

    def summary_text(self) -> str:
        return "\n".join([
            f"group order: {self.group.order}",
            "stacked: False",
            f"H^3 = {self.cohomology.pretty()}",
            f"class: {list(self.coords.residues)}",
            _verdict_line(self.verdict),
        ])


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
            "slant": list(_phase_rows(self.slant)),
            "projective": list(_phase_rows(self.projective)),
            "invariant_factors": list(self.cohomology.invariant_factors),
            "slant_class": list(self.slant_class.residues),
            "projective_class": list(self.projective_class.residues),
            "classes_equal": self.classes_equal,
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
        }

    def summary_text(self) -> str:
        return "\n".join([
            f"on-site group order: {self.group0.order}",
            f"H^2 = {self.cohomology.pretty()}",
            f"slant class: {list(self.slant_class.residues)}",
            f"projective class: {list(self.projective_class.residues)}",
            f"classes equal: {self.classes_equal}",
            _verdict_line(self.verdict, " (mixed anomaly)"),
        ])


# -- action verification and restriction ---------------------------------------

def _generating_set(G: FiniteGroup) -> list[int]:
    """Elements in order, each taken when the subgroup the earlier ones
    generate does not contain it."""
    gens, span = [], {0}
    for g in G.elements():
        if g not in span:
            gens.append(g)
            todo = list(span)
            while todo:  # close span under right multiplication by gens
                x = todo.pop()
                for y in (G.mul(x, s) for s in gens):
                    if y not in span:
                        span.add(y)
                        todo.append(y)
    return gens


def verify_action(spec: ActionSpec) -> float:
    """Check map(identity) = id and map(s) map(h) = map(sh) for s in a
    generating set S (_generating_set) and every h, on the probe batch of
    every probe site, the column units of each register of the site
    (qca.site_probe), which generate its algebra; return the largest
    residual. The probe sites are one period of the layers and, with a
    truncated layer, the zone around its bounds (qca._probe_sites): they
    decide the whole chain. Each element's image of a site's batch is
    computed once; map(s) map(h) is map(s) run on the image under h. A
    failure names the site and register where its residual is largest.

    The pairs (s, h) decide every pair: each g is a positive word in S, and
    for g = s g' with g' one letter shorter, map(g) map(h) = map(s) map(g')
    map(h) = map(s) map(g'h) = map(gh) by induction on the word length.
    Each step adds at most two checked residuals, of (s, g') and (s, g'h),
    the maps being isometries; so an unchecked pair's residual is at most
    2L - 1 times the checked maximum, L being g's word length."""
    G = spec.group
    sites = spec.sites
    # per check, None for the identity element and (s, h) for a pair: the
    # largest residual and the first site and register that reach it
    pairs = itertools.product(_generating_set(G), G.elements())
    worst = dict.fromkeys([None, *pairs], (0.0, 0, 0))
    for j in _probe_sites(spec.exprs):
        probe = site_probe(sites, j)
        image = [_run_batch(e, *probe) for e in spec.exprs]
        for key in worst:
            a, b = (image[0], probe) if key is None else (
                _run_batch(spec.expr(key[0]), *image[key[1]]), image[G.mul(*key)])
            dist = register_distances(sites, a, b)
            reg = int(np.argmax(dist))
            if dist[reg] > worst[key][0]:
                worst[key] = (float(dist[reg]), j, reg)
    for key, (d, j, reg) in worst.items():
        if d > TOL_AUTO:
            what = "identity element acts nontrivially" if key is None else (
                f"pair ({G.name(key[0])}, {G.name(key[1])}) violates the homomorphism property")
            raise NotAHomomorphism(f"{what} at site {j}, register {reg} (residual {d:.3g})")
    return max(d for d, _, _ in worst.values())


def restrict_right(expr: QcaExpr) -> QcaExpr:
    """Keep exactly the gates whose site window fits in [0, inf)."""
    steps = []
    for step in expr.steps:
        if isinstance(step, ShiftPrimitive):
            raise ShiftsPresent("restriction needs a layer-only expression")
        new_min = 0 if step.min_site is None else max(0, step.min_site)
        steps.append(replace(step, min_site=new_min))
    return _validated(expr.sites, tuple(steps))


# -- implementing-unitary extraction -------------------------------------------

# The largest support dimension of an extracted V.
MAX_V_DIM = 64


@dataclass(eq=False)
class VTable:
    """The obstruction unitaries V(a, b) of the restricted action `beta`
    (element -> expression), each extracted on first use and kept as
    (slots, matrix) in `entries`, with its residual in `residuals`, and the
    associator omega(a, b, c) of those unitaries, whose scalar residual each
    evaluation records in `scalar_residuals`. `mul` is the group law and
    `name` labels elements in error messages. The table also keeps,
    computed when first needed, each element's inverse and, per element x
    and site j, I_x(j): the probe batch of site j (`site_probe`, the column
    units of each of its registers) run through the inverse of beta_x."""

    beta: dict
    mul: Callable
    name: Callable
    entries: dict[tuple, SlotOperator] = field(default_factory=dict)
    residuals: dict[tuple, float] = field(default_factory=dict)
    scalar_residuals: dict[tuple, float] = field(default_factory=dict)
    inverses: dict = field(default_factory=dict)
    images: dict = field(default_factory=dict)

    def gate(self, a, b) -> SlotOperator:
        """V(a, b); a failed extraction is raised with the prefix "V(a, b): "."""
        if (a, b) not in self.entries:
            try:
                self.entries[a, b], self.residuals[a, b] = _extract(self, a, b)
            except (NotInner, WindowCapExceeded) as exc:
                raise type(exc)(f"V({self.name(a)}, {self.name(b)}): {exc}") from exc
        return self.entries[a, b]

    def inverse(self, x) -> QcaExpr:
        if x not in self.inverses:
            self.inverses[x] = invert(self.beta[x])
        return self.inverses[x]

    def image(self, x, site: int):
        """I_x(site): the site's probe batch run through beta_x^-1."""
        if (x, site) not in self.images:
            probe = site_probe(self.beta[x].sites, site)
            self.images[x, site] = _run_batch(self.inverse(x), *probe)
        return self.images[x, site]

    def expression(self, a, b) -> QcaExpr:
        """beta_a beta_b beta_ab^-1 without its scalar layer runs
        (`cancel_scalar_runs`): for an action conjugated by W the W^-1 W
        junctions go, and for on-site projective matrices so does
        rho(a) rho(b) rho(ab)^-1."""
        inverse_ab = self.inverse(self.mul(a, b))
        return cancel_scalar_runs(compose(self.beta[a], compose(self.beta[b], inverse_ab)))

    def active_slots(self, a, b, r: int) -> list[int]:
        """The slots that beta_a beta_b beta_ab^-1 moves, probed site by site
        from the cut. A right restriction of a homomorphic action moves only
        slots in its light cone, sites 0 .. r - 1, so the sweep stops at site
        r unless a slot at site r - 1 or beyond moved; then it goes on until
        the r + 1 sites after the last moved site are fixed. The composite
        fixes A exactly when beta_b beta_ab^-1 (A) = beta_a^-1 (A), since
        conjugating both sides by beta_a preserves their distance; so each
        site costs one run of beta_b on its probe batch, and a slot is moved
        when its register's distance (`register_distances`) exceeds TOL_AUTO.
        Raises WindowCapExceeded once the moved slots exceed MAX_V_DIM."""
        sites = self.beta[a].sites
        R = sites.nregisters
        ab = self.mul(a, b)
        active: list[int] = []
        D, last, site = 1, -1, 0
        while site <= last + r + 1 and (site < r or last >= r - 1):
            image = _run_batch(self.beta[b], *self.image(ab, site))
            dist = register_distances(sites, image, self.image(a, site))
            for reg in np.flatnonzero(dist > TOL_AUTO).tolist():
                active.append(site * R + reg)
                last = site
                D *= sites.registers[reg]
                if D > MAX_V_DIM:
                    raise WindowCapExceeded(
                        f"candidate support dimension {D} exceeds the extraction cap {MAX_V_DIM}"
                    )
            site += 1
        return active

    def omega(self, a, b, c) -> float:
        """The associator V(a,b) V(ab,c) V(a,bc)^+ beta_a(V(b,c))^+ as float
        turns (angle over 2 pi); its scalar residual goes to
        `scalar_residuals`."""
        V, beta_a = self.gate, self.beta[a]
        ab, bc = self.mul(a, b), self.mul(b, c)
        try:
            bc_slots, vbc = V(b, c)
            parts = [(slots, m[None]) for slots, m in (V(a, b), V(ab, c), V(a, bc))]
            parts.append(_run_batch(beta_a, bc_slots, vbc[None]))
            _, (vab, vabc, va_bc, beta_vbc) = _on_union(beta_a.sites, parts)
            P = (vab[0] @ vabc[0]) @ (va_bc[0].conj().T @ beta_vbc[0].conj().T)
            lam, self.scalar_residuals[a, b, c] = _scalar_phase(P, TOL_PHASE)
        except NotScalar as exc:
            name = self.name
            raise NotScalar(f"omega({name(a)}, {name(b)}, {name(c)}): {exc}") from exc
        return float(np.angle(lam)) / (2 * math.pi)


def _extract(table: VTable, a, b) -> tuple[SlotOperator, float]:
    """The local unitary V(a, b) on the slots it acts on, with
    V A V^+ = beta_a beta_b beta_ab^-1 (A), and the residual of that identity.
    The images of the column units |i><0| are v_i v_0^+, v_i being column i
    of V: a column of the first image gives v_0 up to a phase, and each image
    times v_0 gives the other columns."""
    expr = table.expression(a, b)
    # an expression whose layers all cancelled is the identity: V = 1, unprobed
    active = tuple(table.active_slots(a, b, max(radius(expr), 1))) if expr.steps else ()
    if not active:
        return ((), np.ones((1, 1), dtype=complex)), 0.0

    D = math.prod(_slot_dims(expr.sites, active))
    units = column_units(D)
    out_slots, out = _run_batch(expr, active, units)
    if out_slots != active:
        raise NotInner("images leave the candidate support window")
    # the largest diagonal entry of v_0 v_0^+ is at least 1/D
    c = int(np.argmax(out[0].diagonal().real))
    v0 = out[0][:, c] / math.sqrt(out[0][c, c].real)
    V = (out @ v0).T
    u, _, wh = np.linalg.svd(V)
    V = u @ wh
    flat = V.reshape(-1)
    thr = 0.5 / math.sqrt(D)
    idx = int(next(i for i in range(flat.size) if abs(flat[i]) > thr))
    V = V * (flat[idx].conjugate() / abs(flat[idx]))

    resid = float(np.max(np.abs(V @ units @ V.conj().T - out)))
    if not resid <= TOL_AUTO:
        raise NotInner(f"extracted unitary fails to reproduce the action ({resid:.3g})")
    return (active, V), resid


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


def _classify(H: CohomologyGroup, turns, what: str) -> ClassifiedCocycle:
    """Classify float turns, one per tuple: snap them to the cochain, whose
    exact class must equal the rounded one."""
    coords = bockstein_class(turns, H, what)
    den = default_den_cap(H.group.order)
    try:
        snaps = [snap_fraction(x, den) for x in turns]
    except SnapFailure:
        return ClassifiedCocycle(H.representative(coords), coords, None)
    cochain = PhaseCochain(H.group, H.degree, tuple(f for f, _ in snaps))
    try:
        exact = class_of(cochain, H)
    except NotACocycle:
        exact = None
    if exact != coords:
        raise CocycleViolation(
            f"snapped {what} is not a cocycle of class {list(coords.residues)}, "
            "the class of its rounded Bockstein"
        )
    return ClassifiedCocycle(cochain, coords, tuple(err for _, err in snaps))


def omega_from_vtable(group: FiniteGroup, vtable: VTable) -> ClassifiedCocycle:
    """Evaluate the associator of the V table on every tuple and classify it.
    Each tuple's scalar residual stays in `vtable.scalar_residuals`, and the
    snap errors, when the phases snap, are in the classified cocycle."""
    turns = [vtable.omega(*t) for t in itertools.product(range(group.order), repeat=3)]
    return _classify(cohomology(group, 3), turns, "omega")


def omega_cocycle(spec: ActionSpec) -> tuple[ClassifiedCocycle, VTable]:
    """Restrict the (index-1) action to the right half-chain and evaluate
    the degree-3 phase cocycle, extracting each V(g, h) when the associator
    first needs it. Returns the classified cocycle and the V table."""
    G = spec.group
    beta = {g: restrict_right(balance_shifts(spec.expr(g))) for g in G.elements()}
    vtable = VTable(beta, G.mul, G.name)
    return omega_from_vtable(G, vtable), vtable


def _verdict_and_diagnostics(
    table: VTable, printed: dict[str, ClassifiedCocycle]
) -> tuple[str, dict]:
    """The verdict and the diagnostics both pipelines report, once the first
    cocycle of `printed` (row key -> cocycle) has been classified from the
    associators of `table`: the largest scalar and V residuals in the table,
    the first cocycle's largest snap error when its phases snapped, and the
    keys of the printed rows that hold a class representative instead."""
    main = next(iter(printed.values()))
    diagnostics = {
        "max_scalar_residual": max(table.scalar_residuals.values(), default=0.0),
        "max_v_residual": max(table.residuals.values(), default=0.0),
    }
    if main.snap_errors is not None:
        diagnostics["max_snap_error"] = max(main.snap_errors)
    unsnapped = [key for key, c in printed.items() if c.snap_errors is None]
    if unsnapped:
        diagnostics["representative_rows"] = unsnapped
    return "NonAnomalous" if main.coords.is_trivial else "Anomalous", diagnostics


def anomaly_class(spec: ActionSpec) -> AnomalyReport:
    """Full pipeline: verify, restrict, extract, classify. A homomorphic
    action of a finite group has shift index 1 on every element, so its
    report is never stacked and lists an empty set of prime exponents for
    every element."""
    residual = verify_action(spec)
    om, vtable = omega_cocycle(spec)
    verdict, diagnostics = _verdict_and_diagnostics(vtable, {"omega": om})
    diagnostics["homomorphism_residual"] = residual
    diagnostics["v_windows"] = {
        f"{spec.group.name(g)},{spec.group.name(h)}": _site_span(spec.sites, slots)
        for (g, h), (slots, _) in sorted(vtable.entries.items())
    }
    return AnomalyReport(
        group=spec.group,
        omega=om.cochain,
        cohomology=cohomology(spec.group, 3),
        coords=om.coords,
        verdict=verdict,
        diagnostics=diagnostics,
        snap_errors=om.snap_errors,
    )


# -- projective representations and the mixed anomaly ---------------------------

def projective_cocycle(rep: ProjectiveRep) -> ClassifiedCocycle:
    """The multiplier phases, rep(gh) = rho(g,h) rep(g) rep(h), classified."""
    G = rep.group
    turns = []
    for g, h in itertools.product(range(G.order), repeat=2):
        M = rep.matrices[G.mul(g, h)] @ (rep.matrices[g] @ rep.matrices[h]).conj().T
        try:
            lam, _ = _scalar_phase(M, TOL_AUTO)
        except NotScalar as exc:
            raise NotProjective(
                f"matrices at ({G.name(g)}, {G.name(h)}) are not projective: {exc}"
            ) from exc
        turns.append(float(np.angle(lam)) / (2 * math.pi))
    return _classify(cohomology(G, 2), turns, "multiplier")


def _lsm_translation(m: int, n: int) -> QcaExpr:
    """Translation by n on the doubled chain of two m-dimensional registers
    (the copy shifted by -n), realized as a swap circuit."""
    sites2 = SiteSpec((m, m))
    if n == 0:
        return identity_expr(sites2)
    shift = QcaExpr(sites2, (ShiftPrimitive(0, n), ShiftPrimitive(1, -n)))
    return balance_shifts(shift)


def _lsm_with_onsite(rep: ProjectiveRep, g: int, translation: QcaExpr) -> QcaExpr:
    """The on-site layer of rep(g) on the first register, then `translation`."""
    if g == 0:
        return translation
    tmpl = GateTemplate(0, 1, rep.matrices[g], registers=((0, 0),))
    return compose(translation, QcaExpr(translation.sites, (BlockLayer(1, (tmpl,)),)))


def lsm_pipeline(rep: ProjectiveRep) -> MixedAnomalyReport:
    """Mixed anomaly of (projective on-site) x (translation): the slant of
    the degree-3 cocycle against the translation generator, compared with the
    class of the projective multiplier. The multiplier comes first, so
    matrices that are not projective raise NotProjective naming the pair
    before any V is extracted."""
    G0 = rep.group
    rho = projective_cocycle(rep)
    # the slant reads elements (g, 0) and (g, 1) only, products included
    translations = [_lsm_translation(rep.dimension, n) for n in (0, 1)]
    beta: dict[tuple[int, int], QcaExpr] = {
        (g, n): restrict_right(_lsm_with_onsite(rep, g, t))
        for g in G0.elements()
        for n, t in enumerate(translations)
    }

    def mulz(a, b):
        return (G0.mul(a[0], b[0]), a[1] + b[1])

    def namez(a):
        return f"({G0.name(a[0])}, {a[1]})"

    table = VTable(beta, mulz, namez)
    H2 = cohomology(G0, 2)
    slant = _classify(H2, slant_z(table.omega, G0), "slant")
    verdict, diagnostics = _verdict_and_diagnostics(table, {"slant": slant, "projective": rho})
    diagnostics["v_count"] = len(table.entries)
    return MixedAnomalyReport(
        group0=G0,
        slant=slant.cochain,
        slant_class=slant.coords,
        projective=rho.cochain,
        projective_class=rho.coords,
        classes_equal=slant.coords.residues == rho.coords.residues,
        cohomology=H2,
        verdict=verdict,
        diagnostics=diagnostics,
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
    return ActionSpec(G, sites, (identity_expr(sites), gamma))


def onsite_flip_action() -> ActionSpec:
    """Order-two on-site control: the generator is the uniform spin flip."""
    sites = SiteSpec((2,))
    x_layer = BlockLayer(1, (GateTemplate(0, 1, PAULI_X),))
    flip = QcaExpr(sites, (x_layer,))
    G = FiniteGroup.cyclic(2, names=("1", "-1"))
    return ActionSpec(G, sites, (identity_expr(sites), flip))


def pauli_projective_rep() -> ProjectiveRep:
    """The two-dimensional projective representation of Z/2 x Z/2 by X^a Z^b."""
    G = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    mats = []
    for a in range(2):
        for b in range(2):
            mats.append(np.linalg.matrix_power(PAULI_X, a) @ np.linalg.matrix_power(PAULI_Z, b))
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
