"""Command-line front end.

Three commands:

``check``         run the structure checkers on a model and compare the
                  PN/PqN classification against the expected one.
``involutivity``  print the pairwise Poisson-bracket verdict matrix of the
                  trace invariants and compare it with the model's metadata.
``deform``        deform a torsionless base by a 2-form and write the deformed
                  tensor, the induced 3-form, and the check report.

Exit codes: 0 when every expected verdict matches, 1 on a mismatch (including
a non-closed deformation form), 2 on configuration errors.  JSON reports are
byte-identical for identical configurations; wall-clock timing goes to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import __version__
from .errors import (
    ChartMismatchError,
    ConfigError,
    DegreeError,
    HypothesisViolationError,
    PqnError,
    UnsupportedExpressionError,
)
from .exterior import Bivector, Form, Tensor11
from .models import (
    CALOGERO_ZERO_TEST,
    MODEL_NAMES,
    ModelBundle,
    calogero,
    canonical_deformation_form,
    canonical_nijenhuis,
    canonical_pn,
    canonical_poisson,
    closed_toda,
    das_okubo_omega_hat,
    open_toda,
    pair_potential_model,
    two_particle_model,
)
from .scalar import Chart, ZeroTestConfig, parse_prefix
from .structures import (
    AxiomCheck,
    CheckReport,
    GeometricStructure,
    check_pn,
    check_pqn,
    deform,
    involutivity_matrix,
    trace_invariants,
)

OMEGA_NAMES = ("zero", "omega-c", "omega-hat", "toda", "open-toda")
BASE_NAMES = ("canonical", "identity", "open-toda")

_CONFIG_KEYS = {
    "model",
    "n",
    "kmax",
    "f",
    "potentials",
    "v",
    "omega",
    "omega_form",
    "expect",
    "format",
    "out",
    "samples",
    "box_halfwidth",
    "separation",
    "tol",
    "seed",
}

_KMAX_GUARD = 8


@dataclass
class RunConfig:
    """Effective run configuration: config-file values overridden by flags."""

    command: str
    model: str | None = None
    n: int | None = None
    kmax: int | None = None
    f: list[Fraction] | None = None
    potentials: dict[str, str] | None = None
    v: str | None = None
    omega: str | None = None
    omega_form: dict | None = None
    expect: str | None = None
    format: str = "text"
    out: str | None = None
    samples: int | None = None
    box_halfwidth: float | None = None
    separation: float | None = None
    tol: float | None = None
    seed: int | None = None

    def echo(self) -> dict:
        data = {
            "command": self.command,
            "model": self.model,
            "n": self.n,
            "kmax": self.kmax,
            "f": [str(x) for x in self.f] if self.f is not None else None,
            "potentials": self.potentials,
            "v": self.v,
            "omega": self.omega,
            "omega_form": self.omega_form,
            "expect": self.expect,
            "format": self.format,
        }
        return {k: v for k, v in data.items() if v is not None}


def _parse_fractions(raw: str | list) -> list[Fraction]:
    """Couplings from a comma-separated string (flag or config) or a config-file list."""
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
    elif isinstance(raw, list):
        parts = [str(x) for x in raw]
    else:
        raise ConfigError(f"cannot parse couplings {raw!r}")
    try:
        return [Fraction(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse coupling list {raw!r}: {exc}") from exc


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("the config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _merge_config(command: str, args: argparse.Namespace) -> RunConfig:
    file_data = _load_config_file(args.config) if args.config else {}
    cfg = RunConfig(command=command)

    def pick(flag_value, key, convert=None):
        if flag_value is not None:
            return flag_value
        if key in file_data and file_data[key] is not None:
            value = file_data[key]
            try:
                if isinstance(value, bool) or (convert is int and isinstance(value, float) and not value.is_integer()):
                    raise ValueError("expected a whole number" if convert is int else "no key takes a boolean")
                return convert(value) if convert else value
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r} has an unusable value {value!r}: {exc}") from exc
        return None

    cfg.model = pick(args.model, "model")
    cfg.n = pick(args.n, "n", int)
    cfg.kmax = pick(getattr(args, "kmax", None), "kmax", int)
    raw_f = pick(args.f, "f")
    cfg.f = None if raw_f is None else _parse_fractions(raw_f)
    potentials = file_data.get("potentials")
    if potentials is not None:
        if not isinstance(potentials, dict):
            raise ConfigError("potentials must map 'i,j' pair keys to prefix expressions")
        cfg.potentials = {str(k): str(v) for k, v in potentials.items()}
    cfg.v = pick(getattr(args, "v", None), "v", str)
    cfg.omega = pick(getattr(args, "omega", None), "omega")
    omega_form = file_data.get("omega_form")
    if omega_form is not None:
        if not isinstance(omega_form, dict):
            raise ConfigError("omega_form must be a serialized form object")
        cfg.omega_form = omega_form
    cfg.expect = pick(getattr(args, "expect", None), "expect", str)
    cfg.format = pick(args.format, "format") or "text"
    if cfg.format not in ("text", "json"):
        raise ConfigError(f"unknown output format {cfg.format!r}")
    cfg.out = pick(args.out, "out", os.fspath)
    cfg.samples = pick(args.samples, "samples", int)
    cfg.box_halfwidth = pick(None, "box_halfwidth", float)
    cfg.separation = pick(None, "separation", float)
    cfg.tol = pick(args.tol, "tol", float)
    cfg.seed = pick(args.seed, "seed", int)
    if cfg.expect is not None:
        cfg.expect = cfg.expect.upper()
        if cfg.expect not in ("PN", "PQN"):
            raise ConfigError("--expect takes pn or pqn")
        if cfg.expect == "PQN":
            cfg.expect = "PqN"
    return cfg


@contextmanager
def _config_errors():
    """Report a value or expression the model or zero-test constructors reject as a config error."""
    try:
        yield
    except (ValueError, UnsupportedExpressionError) as exc:
        raise ConfigError(str(exc)) from exc


@_config_errors()
def _zero_test_config(cfg: RunConfig) -> ZeroTestConfig:
    base = CALOGERO_ZERO_TEST if cfg.model == "calogero" else ZeroTestConfig()
    overrides = {}
    if cfg.samples is not None:
        overrides["sample_count"] = cfg.samples
    if cfg.box_halfwidth is not None:
        overrides["box_halfwidth"] = cfg.box_halfwidth
    if cfg.separation is not None:
        overrides["separation"] = cfg.separation
    if cfg.tol is not None:
        overrides["tolerance"] = cfg.tol
    if cfg.seed is not None:
        overrides["seed"] = cfg.seed
    return base.replace(**overrides)


def _require_n(cfg: RunConfig, default: int | None = None) -> int:
    if cfg.n is not None:
        return cfg.n
    if default is not None:
        return default
    raise ConfigError("--n is required for this model")


@_config_errors()
def build_bundle(cfg: RunConfig) -> ModelBundle:
    if cfg.model is None:
        raise ConfigError(f"--model is required; known models: {', '.join(MODEL_NAMES)}")
    model = cfg.model
    if model == "canonical":
        return canonical_pn(_require_n(cfg))
    if model == "open-toda":
        n = _require_n(cfg)
        return open_toda(n, cfg.f if cfg.f is not None else [1] * (n - 1))
    if model == "closed-toda":
        n = _require_n(cfg)
        return closed_toda(n, cfg.f if cfg.f is not None else [1] * n)
    if model == "calogero":
        return calogero(_require_n(cfg))
    if model == "pair-potential":
        n = _require_n(cfg)
        if not cfg.potentials:
            raise ConfigError("pair-potential needs a potentials mapping in the config file")
        pots = {}
        for key, expr in cfg.potentials.items():
            try:
                i, j = (int(part) for part in key.split(","))
            except ValueError as exc:
                raise ConfigError(f"potential key {key!r} must look like 'i,j'") from exc
            pots[(i, j)] = expr
        return pair_potential_model(n, pots)
    if model == "two-particle":
        if cfg.n not in (None, 2):
            raise ConfigError("the two-particle model fixes n = 2")
        if cfg.v is None:
            raise ConfigError("two-particle needs --v (a prefix expression in q1, q2)")
        return two_particle_model(cfg.v)
    raise ConfigError(f"unknown model {model!r}; known models: {', '.join(MODEL_NAMES)}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_form(form: Form) -> dict:
    return {
        "degree": form.degree,
        "terms": [
            {"indices": [i + 1 for i in key], "coeff": coeff.to_prefix()}
            for key, coeff in sorted(form.terms())
        ],
    }


def parse_form(chart: Chart, data: dict) -> Form:
    try:
        degree = int(data["degree"])
        terms = list(data["terms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed form object: {exc}") from exc

    def parse_term(term):
        try:
            return tuple(int(i) - 1 for i in term["indices"]), parse_prefix(str(term["coeff"]), chart)
        except (KeyError, TypeError, ValueError, PqnError) as exc:
            raise ConfigError(f"malformed form term {term!r}: {exc}") from exc

    try:
        return Form(chart, degree, map(parse_term, terms))
    except (ChartMismatchError, DegreeError) as exc:
        raise ConfigError(f"malformed form object: {exc}") from exc


def serialize_tensor(tensor: Tensor11) -> dict:
    return {"matrix": [[entry.to_prefix() for entry in row] for row in tensor.entries]}


def _report_json(cfg: RunConfig, zero_cfg: ZeroTestConfig, report: CheckReport, extra: dict | None = None) -> dict:
    payload = {
        "tool_version": __version__,
        "config": {**cfg.echo(), "zero_test": zero_cfg.as_dict()},
        "entries": [entry.as_dict(report.chart) for entry in report.entries],
        "overall": "pass" if report.overall else "fail",
    }
    if extra:
        payload.update(extra)
    return payload


def _emit(cfg: RunConfig, payload: dict, text_lines: list[str]) -> None:
    if cfg.format == "json":
        content = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        content = "\n".join(text_lines) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            raise ConfigError(f"cannot write the report to {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(content)


def _entry_lines(report: CheckReport) -> list[str]:
    lines = []
    for entry in report.entries:
        status = "PASS" if entry.passed else "FAIL"
        line = f"{status:4s} {entry.axiom:32s} mode={entry.mode:8s} residual={entry.residual:.3e}"
        if entry.witness is not None and not entry.passed:
            line += f" witness={entry.witness.labelled(report.chart)}"
        if entry.detail:
            line += f" ({entry.detail})"
        lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(cfg: RunConfig) -> int:
    bundle = build_bundle(cfg)
    zero_cfg = _zero_test_config(cfg)
    phi = bundle.phi()
    classification = "PN" if phi.is_zero else "PqN"
    if classification == "PN":
        report = check_pn(bundle.poisson, bundle.tensor, zero_cfg)
    else:
        report = check_pqn(GeometricStructure(bundle.chart, bundle.poisson, bundle.tensor, phi), zero_cfg)
    expected = cfg.expect or bundle.expected.structure_class
    class_entry = AxiomCheck(
        "structure-class",
        classification == expected,
        "symbolic",
        0.0,
        None,
        0,
        detail=f"computed {classification}, expected {expected}",
    )
    report = CheckReport(report.name, report.chart, report.config, report.entries + (class_entry,))
    payload = _report_json(cfg, zero_cfg, report, {"classification": classification})
    lines = [f"model {bundle.name} (n={bundle.chart.n}): classified {classification}"]
    lines += _entry_lines(report)
    lines.append(f"OVERALL: {'PASS' if report.overall else 'FAIL'}")
    _emit(cfg, payload, lines)
    return 0 if report.overall else 1


def cmd_involutivity(cfg: RunConfig) -> int:
    bundle = build_bundle(cfg)
    k_max = cfg.kmax if cfg.kmax is not None else bundle.chart.n
    if k_max < 1:
        raise ConfigError("kmax must be at least 1")
    if k_max > _KMAX_GUARD:
        raise ConfigError(f"kmax={k_max} exceeds the symbolic-size guard ({_KMAX_GUARD})")
    zero_cfg = _zero_test_config(cfg)
    invariants = trace_invariants(bundle.tensor, k_max)
    matrix = involutivity_matrix(bundle.poisson, invariants, zero_cfg)

    entries = []
    claim = bundle.expected.involutive_up_to
    for j in range(1, k_max + 1):
        for k in range(j, k_max + 1):
            cell = matrix.cell(j, k)
            claimed_zero = claim is not None and j <= claim and k <= claim
            passed = cell.zero if claimed_zero else True
            detail = "zero" if cell.zero else "nonzero"
            if not claimed_zero:
                detail += ", no claim"
            entries.append(
                AxiomCheck(
                    f"bracket-H{j}-H{k}",
                    passed,
                    cell.mode,
                    cell.residual,
                    cell.witness,
                    zero_cfg.sample_count if cell.mode == "sampled" else 0,
                    detail=detail,
                )
            )
    if bundle.expected.non_involutive:
        found = not matrix.all_zero
        entries.append(
            AxiomCheck(
                "non-involutivity-witnessed",
                found,
                "sampled",
                max((matrix.cell(j, k).residual for j, k in matrix.nonzero_pairs()), default=0.0),
                next((matrix.cell(j, k).witness for j, k in matrix.nonzero_pairs()), None),
                zero_cfg.sample_count,
                detail=f"nonzero pairs: {matrix.nonzero_pairs()}",
            )
        )
    report = CheckReport("involutivity", bundle.chart, zero_cfg, tuple(entries))
    payload = _report_json(cfg, zero_cfg, report, {"matrix": matrix.as_dict()})

    lines = [f"model {bundle.name} (n={bundle.chart.n}): involutivity up to k={k_max}"]
    header = "      " + " ".join(f"H{k:<10d}" for k in range(1, k_max + 1))
    lines.append(header)
    for j in range(1, k_max + 1):
        cells = []
        for k in range(1, k_max + 1):
            cell = matrix.cell(j, k)
            mark = "0" if cell.zero else "X"
            cells.append(f"{mark}:{cell.residual:.1e}")
        lines.append(f"H{j:<4d} " + " ".join(f"{c:<11s}" for c in cells))
    lines += _entry_lines(report)
    lines.append(f"OVERALL: {'PASS' if report.overall else 'FAIL'}")
    _emit(cfg, payload, lines)
    return 0 if report.overall else 1


@_config_errors()
def _base_pair(cfg: RunConfig) -> tuple[str, Chart, Bivector, Tensor11]:
    name = cfg.model or "canonical"
    if name == "identity":
        chart = Chart(_require_n(cfg))
        return name, chart, canonical_poisson(chart), Tensor11.identity(chart)
    if name == "canonical":
        chart = Chart(_require_n(cfg))
        return name, chart, canonical_poisson(chart), canonical_nijenhuis(chart)
    if name == "open-toda":
        n = _require_n(cfg)
        bundle = open_toda(n, cfg.f if cfg.f is not None else [1] * (n - 1))
        return name, bundle.chart, bundle.poisson, bundle.tensor
    raise ConfigError(f"unknown deformation base {name!r}; known bases: {', '.join(BASE_NAMES)}")


@_config_errors()
def _omega_source(cfg: RunConfig, chart: Chart) -> Form:
    if cfg.omega_form is not None:
        omega = parse_form(chart, cfg.omega_form)
        if omega.degree != 2:
            raise ConfigError(f"omega_form must be a 2-form, got degree {omega.degree}")
        return omega
    name = cfg.omega
    if name is None:
        raise ConfigError(f"deform needs --omega or an omega_form config entry; names: {', '.join(OMEGA_NAMES)}")
    n = chart.n
    if name == "zero":
        return Form.zero(chart, 2)
    if name == "omega-c":
        return canonical_deformation_form(chart)
    if name == "omega-hat":
        return das_okubo_omega_hat(n, cfg.f if cfg.f is not None else [1] * (n - 1))
    if name in ("toda", "closed-toda"):
        return closed_toda(n, cfg.f if cfg.f is not None else [1] * n).omega
    if name == "open-toda":
        return open_toda(n, cfg.f if cfg.f is not None else [1] * (n - 1)).omega
    raise ConfigError(f"unknown omega source {name!r}; names: {', '.join(OMEGA_NAMES)}")


def cmd_deform(cfg: RunConfig) -> int:
    base_name, chart, pi, base_tensor = _base_pair(cfg)
    omega = _omega_source(cfg, chart)
    zero_cfg = _zero_test_config(cfg)
    try:
        result = deform(pi, base_tensor, omega, zero_cfg)
    except HypothesisViolationError as exc:
        witness = exc.witness.labelled(chart) if exc.witness is not None else None
        payload = {
            "tool_version": __version__,
            "config": {**cfg.echo(), "zero_test": zero_cfg.as_dict()},
            "error": "the deforming 2-form is not closed",
            "witness": witness,
            "residual": exc.residual,
            "overall": "fail",
        }
        _emit(cfg, payload, [f"FAIL omega-closed: witness={witness} residual={exc.residual:.3e}", "OVERALL: FAIL"])
        return 1
    payload = _report_json(
        cfg,
        zero_cfg,
        result.report,
        {
            "classification": result.classification,
            "base": base_name,
            "n_hat": serialize_tensor(result.tensor),
            "phi": serialize_form(result.phi),
        },
    )
    lines = [f"deform base={base_name} (n={chart.n}): classified {result.classification}"]
    lines += _entry_lines(result.report)
    lines.append(f"phi terms: {len(result.phi.coeffs)}")
    lines.append(f"OVERALL: {'PASS' if result.report.overall else 'FAIL'}")
    _emit(cfg, payload, lines)
    return 0 if result.report.overall else 1


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="model or deformation base name")
    parser.add_argument("--n", type=int, help="particle count")
    parser.add_argument("--f", help="comma-separated coupling constants, e.g. 1,1,1")
    parser.add_argument("--seed", type=int, help="zero-test RNG seed")
    parser.add_argument("--samples", type=int, help="zero-test sample count")
    parser.add_argument("--tol", type=float, help="zero-test tolerance")
    parser.add_argument("--format", choices=["text", "json"], help="output format (default text)")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--config", help="JSON config file; flags override its keys")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqncheck",
        description="Check Poisson-Nijenhuis and Poisson quasi-Nijenhuis structures.",
    )
    parser.add_argument("--version", action="version", version=f"pqncheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run structure checks on a model")
    _add_common(p_check)
    p_check.add_argument("--expect", help="expected class: pn or pqn (defaults to the model's own)")
    p_check.add_argument("--v", help="two-particle potential, prefix expression in q1/q2")

    p_inv = sub.add_parser("involutivity", help="trace-invariant bracket matrix")
    _add_common(p_inv)
    p_inv.add_argument("--kmax", type=int, help=f"largest trace order (guard: {_KMAX_GUARD})")
    p_inv.add_argument("--v", help="two-particle potential, prefix expression in q1/q2")

    p_def = sub.add_parser("deform", help="deform a torsionless base by a closed 2-form")
    _add_common(p_def)
    p_def.add_argument("--omega", help=f"built-in 2-form name: {', '.join(OMEGA_NAMES)}")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    start = time.monotonic()
    try:
        cfg = _merge_config(args.command, args)
        if args.command == "check":
            code = cmd_check(cfg)
        elif args.command == "involutivity":
            code = cmd_involutivity(cfg)
        else:
            code = cmd_deform(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PqnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - start
    print(f"[pqncheck] {args.command} finished in {elapsed:.2f}s", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
