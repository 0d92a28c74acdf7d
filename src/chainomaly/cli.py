"""Batch front door: parse a YAML config, dispatch a pipeline, emit reports.

Exit codes: 0 success, 1 configuration problem, 2 pipeline failure,
3 internal invariant violation. Reports are byte-stable for identical
inputs: phases are printed as exact fractions, JSON floats as Python's
shortest round-trip repr, and CSV floats with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import anomaly as anm
from . import opwin, qca, spectra
from .errors import ChainomalyError, IoError, ParseError, ValidationError
from .grpcoh import FiniteGroup, cohomology
from .opwin import SiteSpec

# libyaml's parser when pyyaml was built with it: the same documents load,
# several times faster.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

MODES = ("anomaly", "cohomology", "gnvw", "spectra", "selftest")
_TOP_KEYS = ("mode", "group", "degree", "action", "spectra", "output")
_OUTPUT_KEYS = ("json", "csv", "summary")


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


def _need(d, key: str, path: str):
    if not isinstance(d, dict):
        raise ValidationError(f"{path}: expected a mapping, got {d!r}")
    if key not in d:
        raise ValidationError(f"{path}.{key}: missing required field")
    return d[key]


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{path}: expected an integer, got {v!r}")
    return v


def _as_float(v, path: str) -> float:
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: expected a number, got {v!r}") from exc


def _mapping(d, path: str) -> dict:
    """An optional mapping block: absent is empty, anything else is an error."""
    if d is None:
        return {}
    if not isinstance(d, dict):
        raise ValidationError(f"{path}: expected a mapping, got {d!r}")
    return d


def _known_keys(d: dict, keys: tuple[str, ...], path: str) -> None:
    """Reject a key the config schema does not have, so a misspelled
    setting cannot fall back to its default unnoticed."""
    prefix = f"{path}." if path else ""
    for key in d:
        if key not in keys:
            raise ValidationError(
                f"{prefix}{key}: unknown key (expected one of {', '.join(keys)})"
            )


def _build_group(d, path: str) -> FiniteGroup:
    kind = _need(d, "kind", path)
    if kind == "cyclic":
        return FiniteGroup.cyclic(_as_int(_need(d, "n", path), f"{path}.n"))
    if kind == "product":
        factors = _need(d, "factors", path)
        if not isinstance(factors, list) or not factors:
            raise ValidationError(f"{path}.factors: expected a nonempty list")
        g = FiniteGroup.cyclic(_as_int(factors[0], f"{path}.factors[0]"))
        for i, f in enumerate(factors[1:], start=1):
            g = FiniteGroup.direct_product(
                g, FiniteGroup.cyclic(_as_int(f, f"{path}.factors[{i}]"))
            )
        return g
    if kind == "table":
        table = _need(d, "table", path)
        try:
            return FiniteGroup(tuple(tuple(row) for row in table))
        except (ValidationError, TypeError) as exc:
            raise ValidationError(f"{path}.table: {exc}") from exc
    raise ValidationError(f"{path}.kind: unknown group kind {kind!r}")


def _build_sitespec(d, path: str) -> SiteSpec:
    regs = _need(d, "registers", path)
    if not isinstance(regs, list) or not regs:
        raise ValidationError(f"{path}.registers: expected a nonempty list")
    return SiteSpec(tuple(_as_int(r, f"{path}.registers") for r in regs))


def _build_rep(d, group: FiniteGroup | None, path: str) -> anm.ProjectiveRep:
    if isinstance(d, str):
        if d not in anm.PRESET_REPS:
            raise ValidationError(f"{path}: unknown representation preset {d!r}")
        return anm.PRESET_REPS[d]()
    if not isinstance(d, dict):
        raise ValidationError(f"{path}: expected a mapping or preset name")
    g = _build_group(_need(d, "group", path), f"{path}.group") if "group" in d else group
    if g is None:
        raise ValidationError(f"{path}.group: missing")
    mats = _need(d, "matrices", path)
    if not isinstance(mats, list) or len(mats) != g.order:
        raise ValidationError(
            f"{path}.matrices: expected {g.order} matrix literals"
        )
    parsed = []
    for i, m in enumerate(mats):
        try:
            parsed.append(opwin.matrix_from_pairs(m))
        except ValidationError as exc:
            raise ValidationError(f"{path}.matrices[{i}]: {exc}") from exc
    return anm.ProjectiveRep(g, tuple(parsed))


def parse_config(text: str) -> RunConfig:
    """Validate a YAML config; every failure names the offending path."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config: expected a mapping at top level")
    _known_keys(raw, _TOP_KEYS, "")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ValidationError(f"mode: expected one of {MODES}, got {mode!r}")
    cfg = RunConfig(mode=mode)

    out = _mapping(raw.get("output"), "output")
    _known_keys(out, _OUTPUT_KEYS, "output")
    for key in _OUTPUT_KEYS:
        if out.get(key) is not None and not isinstance(out[key], str):
            raise ValidationError(f"output.{key}: expected a file name, got {out[key]!r}")
    cfg.out_json = out.get("json")
    cfg.out_csv = out.get("csv")
    cfg.out_summary = out.get("summary")

    if mode == "selftest":
        return cfg

    if mode == "spectra":
        block = _mapping(raw.get("spectra"), "spectra")
        _known_keys(block, ("k", "grid"), "spectra")
        cfg.spectra_k = _as_int(block.get("k", 6), "spectra.k")
        grid = block.get("grid")
        if grid is None:
            cfg.spectra_grid = spectra.default_grid()
        else:
            if not isinstance(grid, list) or not grid:
                raise ValidationError("spectra.grid: expected a nonempty list")
            for i, row in enumerate(grid):
                path = f"spectra.grid[{i}]"
                n = _as_int(_need(row, "N", path), f"{path}.N")
                _known_keys(row, ("N", "J", "a", "terms"), path)
                terms = row.get("terms", ["h0", "h1"])
                if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
                    raise ValidationError(f"{path}.terms: expected a list of term names")
                try:
                    cfg.spectra_grid.append(
                        spectra.HamiltonianSpec(
                            n_sites=n,
                            j_coupling=_as_float(row.get("J", 0.0), f"{path}.J"),
                            a_coupling=_as_float(row.get("a", 0.0), f"{path}.a"),
                            terms=tuple(terms),
                        )
                    )
                except ValidationError as exc:
                    raise ValidationError(f"{path}: {exc}") from exc
        return cfg

    if mode == "cohomology":
        cfg.group = _build_group(_need(raw, "group", "config"), "group")
        cfg.degree = _as_int(raw.get("degree", 3), "degree")
        return cfg

    action = raw.get("action")
    if isinstance(action, dict):
        _known_keys(action, ("preset", "rep", "site", "map", "steps"), "action")
    if mode == "gnvw":
        if not isinstance(action, dict) or "site" not in action or "steps" not in action:
            raise ValidationError("action: gnvw mode needs action.site and action.steps")
        sites = _build_sitespec(action["site"], "action.site")
        cfg.gnvw_expr = qca.expr_from_data(sites, action["steps"], "action.steps")
        return cfg

    # anomaly mode
    if not isinstance(action, dict):
        raise ValidationError("action: expected a mapping")
    preset = action.get("preset")
    if preset in anm.PRESET_ACTIONS:
        cfg.action = anm.PRESET_ACTIONS[preset]()
        cfg.group = cfg.action.group
    elif preset == "lsm":
        cfg.lsm_rep = _build_rep(action.get("rep", "pauli"), None, "action.rep")
        cfg.group = cfg.lsm_rep.group
    elif preset is not None:
        raise ValidationError(f"action.preset: unknown preset {preset!r}")
    else:
        cfg.group = _build_group(_need(raw, "group", "config"), "group")
        sites = _build_sitespec(_need(action, "site", "action"), "action.site")
        entries = _need(action, "map", "action")
        if not isinstance(entries, list):
            raise ValidationError("action.map: expected a list")
        exprs: dict[int, qca.QcaExpr] = {}
        for i, entry in enumerate(entries):
            path = f"action.map[{i}]"
            g = _as_int(_need(entry, "element", path), f"{path}.element")
            exprs[g] = qca.expr_from_data(sites, _need(entry, "steps", path), f"{path}.steps")
        missing = [g for g in cfg.group.elements() if g not in exprs]
        if missing:
            raise ValidationError(f"action.map: missing elements {missing}")
        cfg.action = anm.ActionSpec(
            cfg.group, sites, tuple(exprs[g] for g in cfg.group.elements())
        )
    return cfg


# -- dispatch -------------------------------------------------------------------

@dataclass
class RunResult:
    report: dict
    summary: str
    csv_text: str | None = None


def run(cfg: RunConfig) -> RunResult:
    if cfg.mode == "selftest":
        ok, lines = selftest()
        return RunResult(
            report={"mode": "selftest", "passed": ok, "checks": lines},
            summary="\n".join(lines),
        )
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
            "symbolic": {str(p): e for p, e in sym.exponents},
            "numeric": {str(p): e for p, e in num.exponents},
            "agree": sym == num,
        }
        return RunResult(report=report, summary=f"index = {sym} (numeric agrees)")
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
                    "energies": [float(e) for e in r.energies],
                    "gap": r.gap,
                    "gap2": r.gap2,
                    "charge": [r.charge.real, r.charge.imag],
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
    # anomaly mode
    if cfg.lsm_rep is not None:
        rep_report = anm.lsm_pipeline(cfg.lsm_rep)
        return RunResult(
            report={"mode": "anomaly", "preset": "lsm", **rep_report.as_json_dict()},
            summary=rep_report.summary_text(),
        )
    report = anm.anomaly_class(cfg.action)
    return RunResult(
        report={"mode": "anomaly", **report.as_json_dict()},
        summary=report.summary_text(),
    )


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
        "json": json.dumps(result.report, sort_keys=True, indent=2) + "\n",
        "csv": result.csv_text,
        "summary": result.summary + "\n",
    }
    written = []
    for key, path in _output_paths(cfg, out_dir).items():
        if texts[key] is not None:
            path.write_text(texts[key], encoding="utf-8")
            written.append(str(path))
    return written


# -- built-in selftest ------------------------------------------------------------

def selftest() -> tuple[bool, list[str]]:
    """Small battery of the main invariants; independent of pytest."""
    from fractions import Fraction

    checks: list[tuple[str, bool]] = []

    def check(name: str, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # report, do not crash
            checks.append((f"{name} ({type(exc).__name__}: {exc})", False))
            return
        checks.append((name, ok))

    def lg_anomalous():
        rep = anm.anomaly_class(anm.levin_gu_action())
        return (
            rep.verdict == "Anomalous"
            and rep.omega.at(1, 1, 1) == Fraction(1, 2)
            and rep.cohomology.invariant_factors == (2,)
        )

    def onsite_trivial():
        rep = anm.anomaly_class(anm.onsite_flip_action())
        return rep.verdict == "NonAnomalous" and rep.omega.is_zero()

    def cohomology_kernel():
        G2 = FiniteGroup.cyclic(2)
        return (
            cohomology(G2, 3).invariant_factors == (2,)
            and cohomology(G2, 2).is_trivial
        )

    def gnvw_agree():
        sites = SiteSpec((2,))
        shift = qca.QcaExpr(sites, (qca.ShiftPrimitive(0, 1),))
        return qca.gnvw_numeric(shift).as_dict() == {2: 1}

    def spectra_control():
        spec = spectra.HamiltonianSpec(6, terms=("h0",))
        vals, _ = spectra.lowest_eigs(spectra.build_hamiltonian(spec), k=2)
        return abs(vals[0] + 6) < 1e-9 and abs(vals[1] + 4) < 1e-9

    def snap_roundtrip():
        from .grpcoh import snap_fraction

        frac, err = snap_fraction(1 / 3 + 2e-9, 12)
        return frac == Fraction(1, 3) and err < 1e-8

    check("levin-gu pipeline anomalous with phase 1/2", lg_anomalous)
    check("on-site control non-anomalous", onsite_trivial)
    check("cohomology kernel H^3(Z/2) = Z/2, H^2(Z/2) trivial", cohomology_kernel)
    check("shift index numeric agrees with symbolic", gnvw_agree)
    check("paramagnet spectrum exact", spectra_control)
    check("phase snapping", snap_roundtrip)

    lines = [f"{'PASS' if ok else 'FAIL'}: {name}" for name, ok in checks]
    return all(ok for _, ok in checks), lines


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
    sub.add_parser("selftest", help="run the built-in invariant battery")
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "selftest":
            ok, lines = selftest()
            print("\n".join(lines))
            return 0 if ok else 3
        text = Path(args.config).read_text(encoding="utf-8")
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
