"""Batch front door: parse a YAML config, dispatch a pipeline, emit reports.

The whole config format is read here, every field through one set of
strict readers whose errors name the field's path.

Exit codes: 0 success, 1 configuration problem, 2 pipeline or I/O failure,
3 internal invariant violation. Reports are byte-stable for identical
inputs: phases are printed as exact fractions, JSON floats as Python's
shortest round-trip repr, and CSV floats with 12 significant digits. One
exception: in a spectra row whose levels are exactly degenerate, the last
digits of the energies, and so which tied copies are kept, may differ
between runs. This is seen on rows solved by Lanczos (the field term h0
alone at N = 14), and inside one long process also on a dense one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import _tensors as tz
from . import anomaly as anm
from . import qca, spectra
from .errors import ChainomalyError, IoError, ParseError, ValidationError
from .grpcoh import FiniteGroup, cohomology
from .opwin import TOL_AUTO, SiteSpec

# libyaml's parser when pyyaml was built with it: the same documents load,
# several times faster.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

MODES = ("anomaly", "cohomology", "gnvw", "spectra")
_TOP_KEYS = ("mode", "group", "degree", "action", "spectra", "output")
_OUTPUT_KEYS = ("json", "csv", "summary")
# the keys of each form of action: a gnvw step list, the lsm preset, any
# other preset, and a custom map
_ACTION_KEYS = {
    "gnvw": ("site", "steps"),
    "lsm": ("preset", "rep"),
    "preset": ("preset",),
    "custom": ("site", "map"),
}
# the keys besides `kind` that each kind of group and step may hold
_GROUP_KEYS = {"cyclic": ("n",), "product": ("factors",), "table": ("table",)}
_STEP_KEYS = {
    "shift": ("register", "displacement"),
    "layer": ("period", "templates", "min_site", "max_site"),
}


@dataclass
class RunConfig:
    mode: str
    group: FiniteGroup | None = None
    action: anm.ActionSpec | None = None
    lsm_rep: anm.ProjectiveRep | None = None
    gnvw_expr: qca.QcaExpr | None = None
    degree: int = 3
    spectra_grid: list[spectra.HamiltonianSpec] = field(default_factory=list)
    spectra_k: int = 6
    out_json: str | None = None
    out_csv: str | None = None
    out_summary: str | None = None


# -- config readers ----------------------------------------------------------------
# A reader takes (value, path) and returns the parsed value; every error it
# raises begins with the path of the offending field.

_REQUIRED = object()


def _key_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _at(path: str, make, *args):
    """make(*args), with `path` prefixed to any ValidationError it raises."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _field(d: dict, key: str, path: str, read, default=_REQUIRED):
    """d[key] read at path.key; an absent or null field is `default`, and an
    error when there is none."""
    if d.get(key) is None:
        if default is _REQUIRED:
            raise ValidationError(f"{_key_path(path, key)}: missing required field")
        return default
    return read(d[key], _key_path(path, key))


def _mapping(d, path: str, keys: tuple[str, ...]) -> dict:
    """A mapping whose keys must all be in `keys`, so a misspelled setting
    cannot fall back to its default unnoticed; null is the empty mapping."""
    if d is None:
        return {}
    if not isinstance(d, dict):
        raise ValidationError(f"{path or 'config'}: expected a mapping, got {d!r}")
    for key in d:
        if key not in keys:
            raise ValidationError(
                f"{_key_path(path, key)}: unknown key (expected one of {', '.join(keys)})"
            )
    return d


def _kind(d, path: str, kinds: dict) -> tuple[str, dict]:
    """A mapping whose `kind` names the other keys it may hold."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(
            f"{path}: expected a mapping of kind {' or '.join(kinds)}, got {d!r}"
        )
    return kind, _mapping(d, path, ("kind", *kinds[kind]))


def _list_of(read, length: int | None = None, nonempty: bool = False):
    """A reader of a list whose items `read` takes, each at path[i]."""

    def read_list(v, path: str) -> list:
        if not isinstance(v, list) or (nonempty and not v) or length not in (None, len(v)):
            shape = f"list of {length}" if length else "nonempty list" if nonempty else "list"
            raise ValidationError(f"{path}: expected a {shape}, got {v!r}")
        return [read(x, f"{path}[{i}]") for i, x in enumerate(v)]

    return read_list


def _as_int(v, path: str, lo=-math.inf, hi=math.inf) -> int:
    """A YAML integer in [lo, hi]: never a float, a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{path}: expected an integer, got {v!r}")
    if not lo <= v <= hi:
        bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValidationError(f"{path}: expected an integer {bound}, got {v}")
    return v


def _as_float(v, path: str) -> float:
    """A finite YAML int or float; the bound also rejects an int too large
    to convert."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ValidationError(f"{path}: expected a finite number, got {v!r}")
    return float(v)


def _as_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ValidationError(f"{path}: expected a string, got {v!r}")
    return v


_pair = _list_of(_as_float, length=2)


def _matrix(v, path: str) -> np.ndarray:
    """A matrix literal: a row-major list of [re, im] pairs, square and
    unitary within TOL_AUTO."""
    vals = [complex(*pair) for pair in _list_of(_pair)(v, path)]
    n = math.isqrt(len(vals))
    if n * n != len(vals):
        raise ValidationError(f"{path}: matrix literal length {len(vals)} is not a square")
    m = np.array(vals, dtype=complex).reshape(n, n)
    if not tz.is_unitary(m, TOL_AUTO):
        raise ValidationError(f"{path}: matrix literal is not unitary within 1e-9")
    return m


def _cyclic(v, path: str) -> FiniteGroup:
    return _at(path, FiniteGroup.cyclic, _as_int(v, path))


def _group(v, path: str) -> FiniteGroup:
    kind, d = _kind(v, path, _GROUP_KEYS)
    if kind == "cyclic":
        return _field(d, "n", path, _cyclic)
    if kind == "product":
        factors = _field(d, "factors", path, _list_of(_cyclic, nonempty=True))
        return functools.reduce(FiniteGroup.direct_product, factors)
    table = _field(d, "table", path, _list_of(_list_of(_as_int)))
    return _at(f"{path}.table", FiniteGroup, tuple(map(tuple, table)))


def _sites(v, path: str) -> SiteSpec:
    d = _mapping(v, path, ("registers",))
    regs = _field(d, "registers", path, _list_of(_as_int, nonempty=True))
    return _at(path, SiteSpec, tuple(regs))


def _template(v, path: str) -> qca.GateTemplate:
    d = _mapping(v, path, ("anchor", "span", "unitary", "registers"))
    return _at(
        path,
        qca.GateTemplate,
        _field(d, "anchor", path, _as_int),
        _field(d, "span", path, _as_int),
        _field(d, "unitary", path, _matrix),
        _field(d, "registers", path, _list_of(_list_of(_as_int, length=2)), None),
    )


def _step(v, path: str) -> qca.Step:
    kind, d = _kind(v, path, _STEP_KEYS)
    if kind == "shift":
        return _at(
            path,
            qca.ShiftPrimitive,
            _field(d, "register", path, _as_int),
            _field(d, "displacement", path, _as_int),
        )
    period = _field(d, "period", path, _as_int)
    lo, hi = (_field(d, key, path, _as_int, None) for key in ("min_site", "max_site"))
    templates = _field(d, "templates", path, _list_of(_template, nonempty=True))
    return _at(path, qca.BlockLayer, period, tuple(templates), lo, hi)


def _steps(sites: SiteSpec):
    """A reader of a step list on `sites`; a list that does not fit the
    SiteSpec is an error at the list's path."""
    return lambda v, path: _at(path, qca.QcaExpr, sites, tuple(_list_of(_step)(v, path)))


def _rep(v, path: str) -> anm.ProjectiveRep:
    if isinstance(v, str):
        if v not in anm.PRESET_REPS:
            raise ValidationError(f"{path}: unknown representation preset {v!r}")
        return anm.PRESET_REPS[v]()
    d = _mapping(v, path, ("group", "matrices"))
    g = _field(d, "group", path, _group)
    mats = _field(d, "matrices", path, _list_of(_matrix, length=g.order))
    return _at(path, anm.ProjectiveRep, g, tuple(mats))


def _spec(v, path: str) -> spectra.HamiltonianSpec:
    d = _mapping(v, path, ("N", "J", "a", "terms"))
    return _at(
        path,
        spectra.HamiltonianSpec,
        _field(d, "N", path, _as_int),
        _field(d, "J", path, _as_float, 0.0),
        _field(d, "a", path, _as_float, 0.0),
        tuple(_field(d, "terms", path, _list_of(_as_str), ("h0", "h1"))),
    )


def _action(raw: dict, action: dict) -> anm.ActionSpec:
    """A custom action: one step list per group element, each element once."""
    group = _field(raw, "group", "", _group)
    sites = _field(action, "site", "action", _sites)

    def entry(v, path: str) -> tuple[int, qca.QcaExpr]:
        d = _mapping(v, path, ("element", "steps"))
        return _field(d, "element", path, _as_int), _field(d, "steps", path, _steps(sites))

    entries = _field(action, "map", "action", _list_of(entry))
    elements = [g for g, _ in entries]
    if sorted(elements) != list(group.elements()):
        raise ValidationError(
            f"action.map: expected each element 0..{group.order - 1} once, got {elements}"
        )
    exprs = dict(entries)
    return anm.ActionSpec(group, sites, tuple(exprs[g] for g in group.elements()))


def parse_config(text: str) -> RunConfig:
    """Validate a YAML config; every failure names the offending path."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"config is not valid YAML: {exc}") from exc
    raw = _mapping(raw, "", _TOP_KEYS)
    mode = raw.get("mode")
    if mode not in MODES:
        raise ValidationError(f"mode: expected one of {MODES}, got {mode!r}")
    # only spectra mode has a table to write as CSV
    keys = _OUTPUT_KEYS if mode == "spectra" else ("json", "summary")
    out = _mapping(raw.get("output"), "output", keys)
    files = {f"out_{key}": _field(out, key, "output", _as_str, None) for key in _OUTPUT_KEYS}
    cfg = RunConfig(mode=mode, **files)

    if mode == "spectra":
        block = _mapping(raw.get("spectra"), "spectra", ("k", "grid"))
        # spectrum_row reads the second level; lowest_eigs returns at most 8
        cfg.spectra_k = _field(block, "k", "spectra", functools.partial(_as_int, lo=2, hi=8), 6)
        grid = _field(block, "grid", "spectra", _list_of(_spec, nonempty=True), None)
        cfg.spectra_grid = spectra.default_grid() if grid is None else grid
        return cfg

    if mode == "cohomology":
        cfg.group = _field(raw, "group", "", _group)
        cfg.degree = _field(raw, "degree", "", functools.partial(_as_int, lo=1), 3)
        return cfg

    # the keys an action may hold depend on its form, read off its preset
    action = raw.get("action")
    preset = action.get("preset") if isinstance(action, dict) else None
    form = "custom" if preset is None else "lsm" if preset == "lsm" else "preset"
    form = "gnvw" if mode == "gnvw" else form
    action = _field(raw, "action", "", functools.partial(_mapping, keys=_ACTION_KEYS[form]))
    if form == "gnvw":
        sites = _field(action, "site", "action", _sites)
        cfg.gnvw_expr = _field(action, "steps", "action", _steps(sites))
        return cfg

    # anomaly mode
    preset = _field(action, "preset", "action", _as_str, None)
    if form == "lsm":
        cfg.lsm_rep = _field(action, "rep", "action", _rep, None) or anm.PRESET_REPS["pauli"]()
        return cfg
    if preset in anm.PRESET_ACTIONS:
        cfg.action = anm.PRESET_ACTIONS[preset]()
    elif preset is not None:
        raise ValidationError(f"action.preset: unknown preset {preset!r}")
    else:
        cfg.action = _action(raw, action)
    return cfg


# -- dispatch -------------------------------------------------------------------

@dataclass
class RunResult:
    report: dict
    summary: str
    csv_text: str | None = None


def _finite(x: float) -> float | None:
    """x, or None (JSON null) when it is not finite: a NaN or an infinity
    has no JSON token."""
    return x if math.isfinite(x) else None


def run(cfg: RunConfig) -> RunResult:
    if cfg.mode == "cohomology":
        H = cohomology(cfg.group, cfg.degree)
        report = {
            "mode": "cohomology",
            "group_order": cfg.group.order,
            "degree": cfg.degree,
            "invariant_factors": list(H.invariant_factors),
            "pretty": H.pretty(),
        }
        return RunResult(report=report, summary=f"H^{cfg.degree} = {H.pretty()}")
    if cfg.mode == "gnvw":
        sym = qca.gnvw_symbolic(cfg.gnvw_expr)
        num = qca.gnvw_numeric(cfg.gnvw_expr)
        report = {
            "mode": "gnvw",
            "symbolic": {str(p): e for p, e in qca.prime_exponents(sym)},
            "numeric": {str(p): e for p, e in qca.prime_exponents(num)},
            "agree": sym == num,
        }
        return RunResult(report=report, summary=f"index = {qca.index_text(sym)} (numeric agrees)")
    if cfg.mode == "spectra":
        rows = spectra.gap_scan(cfg.spectra_grid, k=cfg.spectra_k)
        trends = spectra.witness_trends(cfg.spectra_grid, rows)
        report = {
            "mode": "spectra",
            "rows": [
                {
                    "N": r.n_sites,
                    "J": r.j_coupling,
                    "a": r.a_coupling,
                    "energies": [_finite(e) for e in r.energies],
                    "gap": _finite(r.gap),
                    "gap2": _finite(r.gap2),
                    "charge": [_finite(r.charge.real), _finite(r.charge.imag)],
                    **({"error": r.error} if r.error else {}),
                }
                for r in rows
            ],
            "trends": {str(k): v for k, v in trends.items()},
        }
        summary_lines = [spectra.CSV_HEADER]
        summary_lines += [
            f"N={r.n_sites} J={r.j_coupling:g} a={r.a_coupling:g} "
            f"gap={r.gap:.6g} gap2={r.gap2:.6g}"
            + (f" error={r.error}" if r.error else "")
            for r in rows
        ]
        summary_lines += [f"trend {k}: {v}" for k, v in sorted(report["trends"].items())]
        return RunResult(
            report=report,
            summary="\n".join(summary_lines),
            csv_text=spectra.rows_to_csv(rows),
        )
    # anomaly mode; an lsm report also names its preset
    lsm = cfg.lsm_rep is not None
    out = anm.lsm_pipeline(cfg.lsm_rep) if lsm else anm.anomaly_class(cfg.action)
    head = {"mode": "anomaly", "preset": "lsm"} if lsm else {"mode": "anomaly"}
    return RunResult(report={**head, **out.as_json_dict()}, summary=out.summary_text())


def _output_paths(cfg: RunConfig, out_dir: str | None) -> dict[str, Path]:
    """Where each requested file goes; raises if its directory is missing."""
    base = Path(out_dir) if out_dir else Path(".")
    paths = {}
    for key in _OUTPUT_KEYS:
        name = getattr(cfg, f"out_{key}")
        if name:
            path = Path(name) if Path(name).is_absolute() else base / name
            if not path.parent.exists():
                raise IoError(f"output directory does not exist: {path.parent}")
            paths[key] = path
    return paths


def emit_report(result: RunResult, cfg: RunConfig, out_dir: str | None) -> list[str]:
    """Write requested files; returns the paths written."""
    texts = {
        "json": json.dumps(result.report, sort_keys=True, indent=2, allow_nan=False) + "\n",
        "csv": result.csv_text,
        "summary": result.summary + "\n",
    }
    written = []
    for key, path in _output_paths(cfg, out_dir).items():
        path.write_text(texts[key], encoding="utf-8")
        written.append(str(path))
    return written


# -- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainomaly",
        description="anomaly indices and spectral witnesses for spin-chain symmetries",
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a config file")
    runp.add_argument("config", help="path to a YAML config")
    runp.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return 1
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise IoError(f"cannot read config {args.config}: {exc}") from exc
        cfg = parse_config(text)
        _output_paths(cfg, args.out)  # fail before a long run, not after
        result = run(cfg)
        written = emit_report(result, cfg, args.out)
        print(result.summary)
        for w in written:
            print(f"wrote {w}")
        return 0
    except ChainomalyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # anything unexpected is exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
