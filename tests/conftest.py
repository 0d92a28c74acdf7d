import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from chainomaly import qca
from chainomaly.qca import BlockLayer, GateTemplate, QcaExpr, identity_expr

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# -- operators in slot form: (slots, matrix), the matrix acting on the listed
# (site * nregisters + register) slots in ascending order ----------------------

def single_gate_expr(sites, slots, mat) -> QcaExpr:
    """Conjugation by one local unitary on `slots`, as a maximally truncated
    layer."""
    if not slots:
        return identity_expr(sites)
    R = sites.nregisters
    lo, hi = min(slots) // R, max(slots) // R
    regs = tuple((s // R - lo, s % R) for s in slots)
    tmpl = GateTemplate(anchor=lo, span=hi - lo + 1, unitary=mat, registers=regs)
    layer = BlockLayer(period=hi - lo + 1, templates=(tmpl,), min_site=lo, max_site=hi)
    return QcaExpr(sites, (layer,))


def image(expr, op, dim_cap=None):
    """The image of one operator under the automorphism, by the slot engine."""
    slots, mats = qca._run_batch(expr, op[0], np.asarray(op[1], dtype=complex)[None], dim_cap)
    return slots, mats[0]


def on_union(sites, *ops, dim_cap=None):
    """The operators embedded on the union of their slots."""
    parts = [(s, np.asarray(m, dtype=complex)[None]) for s, m in ops]
    union, mats = qca._on_union(sites, parts, dim_cap)
    return union, [m[0] for m in mats]


def slot_product(sites, *ops, dim_cap=None):
    """The product of the operators, left to right, on the union of slots."""
    union, mats = on_union(sites, *ops, dim_cap=dim_cap)
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return union, out


def slot_distance(sites, a, b, dim_cap=None) -> float:
    """Frobenius norm of a - b on the union of their slots. It bounds the
    operator-norm distance from above."""
    _, (x, y) = on_union(sites, a, b, dim_cap=dim_cap)
    return float(np.linalg.norm(x - y))
