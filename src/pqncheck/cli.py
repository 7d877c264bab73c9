"""Command-line front end.

Three commands:

``check``         run the structure checkers on a model and compare the
                  PN/PqN classification against the expected one.
``involutivity``  print the pairwise Poisson-bracket verdict matrix of the
                  trace invariants and compare it with the model's metadata.
``deform``        deform a torsionless base by a 2-form and write the deformed
                  tensor, the induced 3-form, and the check report.

Exit codes: 0 when every expected verdict matches, 1 on a mismatch (including
a non-closed deformation form), 2 on configuration errors (malformed flags and
a field the exact zero test leaves undecided among them).  JSON
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
from typing import Iterator, Sequence

from . import __version__, models
from .errors import (
    ChartMismatchError,
    ConfigError,
    DegreeError,
    HypothesisViolationError,
    PqnError,
    UnsupportedExpressionError,
)
from .exterior import Bivector, Form, Tensor11
from .scalar import Chart, ZeroTestConfig, _cut, _quoted, parse_prefix
from .structures import (
    AxiomCheck,
    CheckReport,
    check_pn,
    check_pqn,
    deform,
    involutivity_matrix,
    trace_invariants,
)

_KMAX_GUARD = 8

#: Each run setting that sets a ZeroTestConfig field, and that field; a report echoes them under ``zero_test``.
_ZERO_TEST_KEYS = {"samples": "sample_count", "seed": "seed"}


def _whole_number(value) -> int:
    """``int(value)``, refusing the booleans and fractional floats that ``int`` would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected a whole number")
    try:
        return int(value)
    except ValueError:  # int's own message quotes up to 200 characters of the value again
        raise ValueError("expected a whole number") from None


def _given(value):
    """A value as written; no setting takes a boolean."""
    if isinstance(value, bool):
        raise ValueError("no setting takes a boolean")
    return value


def _string(value) -> str:
    return str(_given(value))


def _path(value) -> str:
    return os.fspath(_given(value))


def _fractions(value: str | list) -> list[Fraction]:
    """Couplings from a comma-separated string or a config-file list."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    elif not isinstance(value, list):
        raise ValueError("expected a comma-separated string or a list")
    try:
        return [Fraction(str(part)) for part in value]
    except (ValueError, ZeroDivisionError):  # Fraction's own message quotes the whole part again
        raise ValueError("expected rational numbers with nonzero denominators") from None


def _format(value) -> str:
    if value not in ("text", "json"):
        raise ValueError("expected text or json")
    return value


def _expect(value) -> str:
    expected = {"PN": "PN", "PQN": "PqN"}.get(_string(value).upper())
    if expected is None:
        raise ValueError("expected pn or pqn")
    return expected


def _potentials(value) -> dict[str, str]:
    if not isinstance(value, dict):
        raise ValueError("expected a mapping of 'i,j' pair keys to prefix expressions")
    return {str(k): str(v) for k, v in value.items()}


def _omega_form(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError("expected a serialized form object")
    return value


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:  # its own text repeats the path whole
        raise ConfigError(f"cannot read config file {_cut(path)}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested past the recursion limit
        raise ConfigError(f"config file {_cut(path)} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("the config file must hold a JSON object")
    unknown = set(data) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _merge_config(args: argparse.Namespace) -> None:
    """Read every setting of ``args`` in place from its flag, else its config-file value; unset is None."""
    file_data = _load_config_file(args.config) if args.config else {}
    for key, (read, _, _) in _SETTINGS.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_data.get(key)
        if value is not None:
            try:
                value = read(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"setting {key!r} has an unusable value {_quoted(value)}: {exc}") from exc
        setattr(args, key, value)


def _echo(args: argparse.Namespace) -> dict:
    """The settings a report echoes: the command and each set one but ``out`` and the zero-test keys."""
    hidden = {"out", *_ZERO_TEST_KEYS}
    data = {key: getattr(args, key) for key in ("command", *_SETTINGS) if key not in hidden}
    if args.f is not None:
        data["f"] = [str(x) for x in args.f]
    return {k: v for k, v in data.items() if v is not None}


@contextmanager
def _config_errors():
    """Report a value or expression the model or zero-test constructors reject as a config error."""
    try:
        yield
    except (ValueError, UnsupportedExpressionError) as exc:
        raise ConfigError(str(exc)) from exc


@_config_errors()
def _zero_test_config(args: argparse.Namespace) -> ZeroTestConfig:
    overrides = {field: getattr(args, key) for key, field in _ZERO_TEST_KEYS.items() if getattr(args, key) is not None}
    return ZeroTestConfig(**overrides)


def _require_n(args: argparse.Namespace) -> int:
    """The particle count, refused by ``Chart`` before any model or base is sized by it."""
    if args.n is None:
        raise ConfigError("--n is required for this model")
    return Chart(args.n).n


def _builder(table: dict, name, kind: str, known: str):
    """The builder ``table`` holds under ``name``, any config-file value; else ConfigError naming the ``known`` ones."""
    builder = table.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ConfigError(f"unknown {kind} {_quoted(name)}; {known}: {', '.join(table)}")
    return builder


def _pair_potential(args: argparse.Namespace) -> models.ModelBundle:
    n = _require_n(args)
    if not args.potentials:
        raise ConfigError("pair-potential needs a potentials mapping in the config file")
    pots, keys = {}, {}
    for key, expr in args.potentials.items():
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError as exc:
            raise ConfigError(f"potential key {_quoted(key)} must look like 'i,j'") from exc
        if (i, j) in keys:
            raise ConfigError(f"potential keys {_quoted(keys[i, j])} and {_quoted(key)} both name the pair ({i}, {j})")
        pots[(i, j)], keys[(i, j)] = expr, key
    return models.pair_potential_model(n, pots)


def _two_particle(args: argparse.Namespace) -> models.ModelBundle:
    if args.n not in (None, 2):
        raise ConfigError("the two-particle model fixes n = 2")
    if args.v is None:
        raise ConfigError("two-particle needs --v (a prefix expression in q1, q2)")
    return models.two_particle_model(args.v)


#: Each model ``--model`` names, and the builder of its bundle from the settings.
MODELS = {
    "canonical": lambda args: models.canonical_pn(_require_n(args)),
    "open-toda": lambda args: models.open_toda(_require_n(args), args.f),
    "closed-toda": lambda args: models.closed_toda(_require_n(args), args.f),
    "calogero": lambda args: models.calogero(_require_n(args)),
    "pair-potential": _pair_potential,
    "two-particle": _two_particle,
}


@_config_errors()
def build_bundle(args: argparse.Namespace) -> models.ModelBundle:
    if args.model is None:
        raise ConfigError(f"--model is required; known models: {', '.join(MODELS)}")
    return _builder(MODELS, args.model, "model", "known models")(args)


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
            raise ConfigError(f"malformed form term {_quoted(term)}: {exc}") from exc

    try:
        return Form(chart, degree, map(parse_term, terms))
    except (ChartMismatchError, DegreeError) as exc:
        raise ConfigError(f"malformed form object: {exc}") from exc


def serialize_tensor(tensor: Tensor11) -> dict:
    return {"matrix": [[entry.to_prefix() for entry in row] for row in tensor.entries]}


def _emit(args: argparse.Namespace, zero_cfg: ZeroTestConfig, passed: bool, body: dict) -> int:
    """Write a report under the run's header with its overall verdict; return the exit code."""
    payload = {
        "tool_version": __version__,
        "config": {**_echo(args), "zero_test": zero_cfg.as_dict()},
        **body,
        "overall": "pass" if passed else "fail",
    }
    content = json.dumps(payload, sort_keys=True, indent=2) + "\n" if args.format == "json" else _text(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:  # its own text repeats the path whole
            raise ConfigError(f"cannot write the report to {_cut(args.out)}: {exc.strerror}") from exc
    else:
        sys.stdout.write(content)
    return 0 if passed else 1


def _emit_report(args: argparse.Namespace, zero_cfg: ZeroTestConfig, report: CheckReport, body: dict) -> int:
    """The tail of every command but a failed deformation: ``body`` with the report's entries, then the verdict."""
    entries = [entry.as_dict(report.chart) for entry in report.entries]
    return _emit(args, zero_cfg, report.overall, {**body, "entries": entries})


def _setting_text(value) -> str:
    """A setting as a text header shows it: couplings comma-separated, a mapping as compact JSON."""
    if isinstance(value, list):
        return ",".join(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":")) if isinstance(value, dict) else str(value)


def _chart_order(witness: dict | None) -> dict | None:
    """A witness point keyed in its chart's coordinate order, q1..qn then p1..pn."""
    return None if witness is None else {name: witness[name] for name in Chart(len(witness) // 2).coordinate_names()}


def _text(payload: dict) -> str:
    """The text report of the JSON ``payload``, read from it alone, whatever the order of its keys."""
    return "".join(f"{line}\n" for line in _text_lines(payload))


def _text_lines(payload: dict) -> Iterator[str]:
    """A header naming the command, settings and outcome; then each part the payload holds; then the verdict."""
    config = payload["config"]
    settings = [f"{key}={_setting_text(config[key])}" for key in _SETTINGS if key in config]
    settings += [f"{field}={config['zero_test'][field]}" for field in _ZERO_TEST_KEYS.values()]
    if "matrix" in payload:
        outcome = f"involutivity up to k={payload['matrix']['size']}"
    else:
        base = f", base={payload['base']}" if "base" in payload else ""
        outcome = payload.get("error") or f"classified {payload['classification']}{base}"
    yield f"{' '.join([config['command'], *settings])}: {outcome}"
    if "matrix" in payload:
        size, cells = payload["matrix"]["size"], payload["matrix"]["cells"]
        yield "      " + " ".join(f"H{k:<10d}" for k in range(1, size + 1))
        for j in range(1, size + 1):
            row = (cells[f"{j},{k}"] for k in range(1, size + 1))
            marks = (f"{'0' if cell['zero'] else 'X'}:{cell['residual']:.1e}" for cell in row)
            yield f"H{j:<4d} " + " ".join(f"{mark:<11s}" for mark in marks)
    for entry in payload.get("entries", ()):
        verdict, witness, detail = entry["verdict"], entry["witness"], entry.get("detail")
        line = f"{verdict.upper():4s} {entry['axiom']:32s} mode={entry['mode']:8s} residual={entry['residual']:.3e}"
        if witness is not None and verdict == "fail":
            line += f" witness={_chart_order(witness)}"
        yield line + (f" ({detail})" if detail else "")
    if "phi" in payload:
        yield f"phi terms: {len(payload['phi']['terms'])}"
    if "error" in payload:
        yield f"FAIL omega-closed: witness={_chart_order(payload['witness'])} residual={payload['residual']:.3e}"
    yield f"OVERALL: {payload['overall'].upper()}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    bundle = build_bundle(args)
    zero_cfg = _zero_test_config(args)
    classification = bundle.expected.structure_class
    if classification == "PN":
        report = check_pn(bundle.poisson, bundle.tensor, zero_cfg)
    else:
        report = check_pqn(bundle.structure(), zero_cfg)
    expected = args.expect or classification
    detail = f"computed {classification}, expected {expected}"
    class_entry = AxiomCheck("structure-class", classification == expected, "symbolic", 0.0, None, 0, detail)
    report = CheckReport(report.name, report.chart, report.config, report.entries + (class_entry,))
    return _emit_report(args, zero_cfg, report, {"classification": classification})


def cmd_involutivity(args: argparse.Namespace) -> int:
    bundle = build_bundle(args)
    k_max = args.kmax if args.kmax is not None else bundle.chart.n
    if k_max < 1:
        raise ConfigError("kmax must be at least 1")
    if k_max > _KMAX_GUARD:
        raise ConfigError(f"kmax={k_max} exceeds the symbolic-size guard ({_KMAX_GUARD})")
    zero_cfg = _zero_test_config(args)
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
    return _emit_report(args, zero_cfg, report, {"matrix": matrix.as_dict()})


def _chart_base(args: argparse.Namespace, tensor) -> tuple[Chart, Bivector, Tensor11]:
    chart = Chart(_require_n(args))
    return chart, models.canonical_poisson(chart), tensor(chart)


def _open_toda_base(args: argparse.Namespace) -> tuple[Chart, Bivector, Tensor11]:
    bundle = models.open_toda(_require_n(args), args.f)
    return bundle.chart, bundle.poisson, bundle.tensor


#: Each deformation base ``deform --model`` names, the first the default, and the builder of its
#: chart, Poisson bivector and torsionless tensor.
BASES = {
    "canonical": lambda args: _chart_base(args, models.canonical_nijenhuis),
    "identity": lambda args: _chart_base(args, Tensor11.identity),
    "open-toda": _open_toda_base,
}


def _toda_omega(args: argparse.Namespace, chart: Chart) -> Form:
    return models.closed_toda(chart.n, args.f).omega


#: Each built-in 2-form ``--omega`` names, and its builder on the base's chart.
OMEGAS = {
    "zero": lambda args, chart: Form.zero(chart, 2),
    "omega-c": lambda args, chart: models.canonical_deformation_form(chart),
    "omega-hat": lambda args, chart: models.das_okubo_omega_hat(chart.n, args.f),
    "toda": _toda_omega,
    "closed-toda": _toda_omega,
    "open-toda": lambda args, chart: models.open_toda(chart.n, args.f).omega,
}


@_config_errors()
def _base_pair(args: argparse.Namespace) -> tuple[str, Chart, Bivector, Tensor11]:
    name = args.model or next(iter(BASES))
    return (name, *_builder(BASES, name, "deformation base", "known bases")(args))


@_config_errors()
def _omega_source(args: argparse.Namespace, chart: Chart) -> Form:
    if args.omega_form is not None:
        omega = parse_form(chart, args.omega_form)
        if omega.degree != 2:
            raise ConfigError(f"omega_form must be a 2-form, got degree {omega.degree}")
        return omega
    if args.omega is None:
        raise ConfigError(f"deform needs --omega or an omega_form config entry; names: {', '.join(OMEGAS)}")
    return _builder(OMEGAS, args.omega, "omega source", "names")(args, chart)


def cmd_deform(args: argparse.Namespace) -> int:
    base_name, chart, pi, base_tensor = _base_pair(args)
    omega = _omega_source(args, chart)
    zero_cfg = _zero_test_config(args)
    try:
        result = deform(pi, base_tensor, omega, zero_cfg)
    except HypothesisViolationError as exc:
        witness = exc.witness.labelled(chart) if exc.witness is not None else None
        body = {"error": "the deforming 2-form is not closed", "witness": witness, "residual": exc.residual}
        return _emit(args, zero_cfg, False, body)
    body = {"classification": result.classification, "base": base_name, "n_hat": serialize_tensor(result.tensor)}
    body["phi"] = serialize_form(result.phi)
    return _emit_report(args, zero_cfg, result.report, body)


# ---------------------------------------------------------------------------
# settings, argument parsing and entry point
# ---------------------------------------------------------------------------


#: The commands, each with its function and help text.
_COMMANDS = {
    "check": (cmd_check, "run structure checks on a model"),
    "involutivity": (cmd_involutivity, "trace-invariant bracket matrix"),
    "deform": (cmd_deform, "deform a torsionless base by a closed 2-form"),
}
_EVERY = tuple(_COMMANDS)

#: Every run setting, in the order a report echoes them: how its flag text or config-file value is
#: read, the commands with its flag (none for a config-file-only setting), and the flag's help.  A flag
#: wins over the file; an unset setting is None.
_SETTINGS = {
    "model": (_given, _EVERY, "model or deformation base name"),
    "n": (_whole_number, _EVERY, "particle count"),
    "kmax": (_whole_number, ("involutivity",), f"largest trace order (guard: {_KMAX_GUARD})"),
    "f": (_fractions, _EVERY, "comma-separated coupling constants, e.g. 1,1,1"),
    "potentials": (_potentials, (), None),
    "v": (_string, ("check", "involutivity"), "two-particle potential, prefix expression in q1/q2"),
    "omega": (_given, ("deform",), f"built-in 2-form name: {', '.join(OMEGAS)}"),
    "omega_form": (_omega_form, (), None),
    "expect": (_expect, ("check",), "expected class: pn or pqn (defaults to the model's own)"),
    "format": (_format, _EVERY, "output format: text (default) or json"),
    "out": (_path, _EVERY, "write the report to this path instead of stdout"),
    "samples": (_whole_number, _EVERY, "most witness points tried per failing field"),
    "seed": (_whole_number, _EVERY, "seed of the exact zero test's points and of the witness points"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, so they print on one line."""

    def error(self, message):
        raise ConfigError(_cut(message, 160))  # argparse quotes a flag or command whole


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pqncheck",
        description="Check Poisson-Nijenhuis and Poisson quasi-Nijenhuis structures.",
    )
    parser.add_argument("--version", action="version", version=f"pqncheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=text)
        p_command.add_argument("--config", help="JSON config file; flags override its keys")
        for key, (_, commands, help_text) in _SETTINGS.items():
            if command in commands:
                p_command.add_argument(f"--{key}", help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    start = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        _merge_config(args)
        code = _COMMANDS[args.command][0](args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
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
