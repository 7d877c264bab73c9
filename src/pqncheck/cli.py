"""Command-line front end.

Three commands:

``check``         run the structure checkers on a model and compare the
                  PN/PqN classification against the expected one.
``involutivity``  print the pairwise Poisson-bracket verdict matrix of the
                  trace invariants and compare it with the model's metadata.
``deform``        deform a torsionless base by a 2-form and write the deformed
                  tensor, the induced 3-form, and the check report.

Exit codes: 0 when every expected verdict matches, 1 on a mismatch (including
a non-closed deformation form), 2 on configuration errors (an unmet separation
guard and a field the exact zero test leaves undecided among them).  JSON
reports are byte-identical for identical configurations; wall-clock timing
goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Sequence

from . import __version__
from .errors import (
    ChartMismatchError,
    ConfigError,
    DegenerateDomainError,
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

OMEGA_NAMES = ("zero", "omega-c", "omega-hat", "toda", "closed-toda", "open-toda")
BASE_NAMES = ("canonical", "identity", "open-toda")

_KMAX_GUARD = 8

#: Each RunConfig key that overrides a zero-test setting, and the ZeroTestConfig field it sets.
_ZERO_TEST_KEYS = {
    "samples": "sample_count",
    "box_halfwidth": "box_halfwidth",
    "separation": "separation",
    "tol": "tolerance",
    "seed": "seed",
}


class RunConfig:
    """Effective run configuration: config-file values overridden by flags."""

    #: The settings, in the order a report echoes them.
    KEYS = (
        "command", "model", "n", "kmax", "f", "potentials", "v", "omega", "omega_form", "expect",
        "format", "out", "samples", "box_halfwidth", "separation", "tol", "seed",
    )
    __slots__ = KEYS

    def __init__(
        self,
        command: str,
        model: str | None = None,
        n: int | None = None,
        kmax: int | None = None,
        f: list[Fraction] | None = None,
        potentials: dict[str, str] | None = None,
        v: str | None = None,
        omega: str | None = None,
        omega_form: dict | None = None,
        expect: str | None = None,
        format: str = "text",
        out: str | None = None,
        samples: int | None = None,
        box_halfwidth: float | None = None,
        separation: float | None = None,
        tol: float | None = None,
        seed: int | None = None,
    ):
        settings = locals()
        for key in self.KEYS:
            setattr(self, key, settings[key])

    def echo(self) -> dict:
        """The settings a report echoes: all but ``out`` and the zero-test keys, which it lists apart."""
        hidden = {"out", *_ZERO_TEST_KEYS}
        data = {key: getattr(self, key) for key in self.KEYS if key not in hidden}
        if self.f is not None:
            data["f"] = [str(x) for x in self.f]
        return {k: v for k, v in data.items() if v is not None}


# Every run setting except the command may come from a config file.
_CONFIG_KEYS = set(RunConfig.KEYS) - {"command"}


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


def _whole_number(value) -> int:
    """``int(value)``, refusing the booleans and fractional floats that ``int`` would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected a whole number")
    return int(value)


def _merge_config(command: str, args: argparse.Namespace) -> RunConfig:
    file_data = _load_config_file(args.config) if args.config else {}
    cfg = RunConfig(command=command)

    def pick(flag_value, key, convert=None):
        if flag_value is not None:
            return flag_value
        if key in file_data and file_data[key] is not None:
            value = file_data[key]
            try:
                if isinstance(value, bool) and convert is not _whole_number:
                    raise ValueError("no key takes a boolean")
                return convert(value) if convert else value
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r} has an unusable value {value!r}: {exc}") from exc
        return None

    cfg.model = pick(args.model, "model")
    cfg.n = pick(args.n, "n", _whole_number)
    cfg.kmax = pick(getattr(args, "kmax", None), "kmax", _whole_number)
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
    cfg.samples = pick(args.samples, "samples", _whole_number)
    cfg.box_halfwidth = pick(None, "box_halfwidth", float)
    cfg.separation = pick(None, "separation", float)
    cfg.tol = pick(args.tol, "tol", float)
    cfg.seed = pick(args.seed, "seed", _whole_number)
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
    overrides = {field: getattr(cfg, key) for key, field in _ZERO_TEST_KEYS.items() if getattr(cfg, key) is not None}
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
        return open_toda(_require_n(cfg), cfg.f)
    if model == "closed-toda":
        return closed_toda(_require_n(cfg), cfg.f)
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
        degree = _whole_number(data["degree"])
        terms = list(data["terms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed form object: {exc}") from exc

    def parse_term(term):
        try:
            indices = term["indices"]
            if not isinstance(indices, list):
                raise TypeError("indices must be a list")
            return tuple(_whole_number(i) - 1 for i in indices), parse_prefix(str(term["coeff"]), chart)
        except (KeyError, TypeError, ValueError, PqnError) as exc:
            raise ConfigError(f"malformed form term {term!r}: {exc}") from exc

    try:
        return Form(chart, degree, map(parse_term, terms))
    except (ChartMismatchError, DegreeError) as exc:
        raise ConfigError(f"malformed form object: {exc}") from exc


def serialize_tensor(tensor: Tensor11) -> dict:
    return {"matrix": [[entry.to_prefix() for entry in row] for row in tensor.entries]}


def _emit(cfg: RunConfig, zero_cfg: ZeroTestConfig, passed: bool, body: dict, lines: list[str]) -> int:
    """Write a report under the run's header with its overall verdict; return the exit code."""
    payload = {
        "tool_version": __version__,
        "config": {**cfg.echo(), "zero_test": zero_cfg.as_dict()},
        **body,
        "overall": "pass" if passed else "fail",
    }
    if cfg.format == "json":
        content = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        content = "\n".join(lines + [f"OVERALL: {'PASS' if passed else 'FAIL'}"]) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            raise ConfigError(f"cannot write the report to {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(content)
    return 0 if passed else 1


def _emit_report(
    cfg: RunConfig,
    zero_cfg: ZeroTestConfig,
    report: CheckReport,
    body: dict,
    lines: list[str],
    phi: Form | None = None,
) -> int:
    """The tail of every command: the report's entries, then ``phi`` if given, then the verdict."""
    body = {**body, "entries": [entry.as_dict(report.chart) for entry in report.entries]}
    lines = lines + _entry_lines(report)
    if phi is not None:
        body["phi"] = serialize_form(phi)
        lines.append(f"phi terms: {len(phi.coeffs)}")
    return _emit(cfg, zero_cfg, report.overall, body, lines)


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
    lines = [f"model {bundle.name} (n={bundle.chart.n}): classified {classification}"]
    return _emit_report(cfg, zero_cfg, report, {"classification": classification}, lines)


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
            passed = cell.passed if claimed_zero else True
            detail = "zero" if cell.passed else "nonzero"
            if not claimed_zero:
                detail += ", no claim"
            entries.append(cell.replace(axiom=f"bracket-H{j}-H{k}", passed=passed, detail=detail))
    if bundle.expected.non_involutive:
        # One cell, the worst (a nonzero one before any zero one, then the
        # largest residual), supplies residual, witness, mode and samples.
        (j, k), worst = max(
            ((pair, cell) for pair, cell in sorted(matrix.cells.items()) if pair[0] <= pair[1]),
            key=lambda item: (not item[1].passed, item[1].residual),
        )
        detail = f"worst cell ({j}, {k}); nonzero pairs: {matrix.nonzero_pairs()}"
        entries.append(worst.replace(axiom="non-involutivity-witnessed", passed=not worst.passed, detail=detail))
    report = CheckReport("involutivity", bundle.chart, zero_cfg, tuple(entries))
    lines = [f"model {bundle.name} (n={bundle.chart.n}): involutivity up to k={k_max}"]
    header = "      " + " ".join(f"H{k:<10d}" for k in range(1, k_max + 1))
    lines.append(header)
    for j in range(1, k_max + 1):
        cells = []
        for k in range(1, k_max + 1):
            cell = matrix.cell(j, k)
            mark = "0" if cell.passed else "X"
            cells.append(f"{mark}:{cell.residual:.1e}")
        lines.append(f"H{j:<4d} " + " ".join(f"{c:<11s}" for c in cells))
    return _emit_report(cfg, zero_cfg, report, {"matrix": matrix.as_dict()}, lines)


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
        bundle = open_toda(_require_n(cfg), cfg.f)
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
        return das_okubo_omega_hat(n, cfg.f)
    if name in ("toda", "closed-toda"):
        return closed_toda(n, cfg.f).omega
    if name == "open-toda":
        return open_toda(n, cfg.f).omega
    raise ConfigError(f"unknown omega source {name!r}; names: {', '.join(OMEGA_NAMES)}")


def cmd_deform(cfg: RunConfig) -> int:
    base_name, chart, pi, base_tensor = _base_pair(cfg)
    omega = _omega_source(cfg, chart)
    zero_cfg = _zero_test_config(cfg)
    try:
        result = deform(pi, base_tensor, omega, zero_cfg)
    except HypothesisViolationError as exc:
        witness = exc.witness.labelled(chart) if exc.witness is not None else None
        body = {
            "error": "the deforming 2-form is not closed",
            "witness": witness,
            "residual": exc.residual,
        }
        lines = [f"FAIL omega-closed: witness={witness} residual={exc.residual:.3e}"]
        return _emit(cfg, zero_cfg, False, body, lines)
    body = {
        "classification": result.classification,
        "base": base_name,
        "n_hat": serialize_tensor(result.tensor),
    }
    lines = [f"deform base={base_name} (n={chart.n}): classified {result.classification}"]
    return _emit_report(cfg, zero_cfg, result.report, body, lines, result.phi)


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
    except (ConfigError, DegenerateDomainError) as exc:
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
