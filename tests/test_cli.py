from __future__ import annotations

import json
import subprocess
import sys

import pytest

from pqncheck import cli, scalar
from pqncheck.cli import BASES, MODELS, OMEGAS, main, parse_form, serialize_form, serialize_tensor
from pqncheck.models import closed_toda
from pqncheck.scalar import Chart

from conftest import cli_report, strict_json
from reference import dp, dq


def run_cli(*argv) -> int:
    return main(list(argv))


def config_args(argv, tmp_path) -> list[str]:
    """The CLI arguments with each dict or list written to a JSON config file in its place."""
    args = []
    for arg in argv:
        if isinstance(arg, (dict, list)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    return args


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return strict_json(fh.read())


class TestFormSerialization:
    def test_roundtrip(self):
        bundle = closed_toda(3)
        data = serialize_form(bundle.omega)
        assert data["degree"] == 2
        parsed = parse_form(bundle.chart, data)
        assert parsed == bundle.omega

    def test_indices_are_one_based(self):
        chart = Chart(2)
        from pqncheck.exterior import wedge

        data = serialize_form(wedge(dq(chart, 1), dp(chart, 2)))
        assert data["terms"][0]["indices"] == [1, 4]

    def test_tensor_serialization(self):
        bundle = closed_toda(2)
        data = serialize_tensor(bundle.tensor)
        assert len(data["matrix"]) == 4
        assert data["matrix"][0][0] == "p1"


class TestCheckCommand:
    def test_closed_toda_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("check", "--model", "closed-toda", "--n", "3", "--format", "json", "--out", str(out))
        assert code == 0
        report = read_json(out)
        assert report["overall"] == "pass"
        assert report["classification"] == "PqN"
        assert report["tool_version"]
        axioms = {e["axiom"] for e in report["entries"]}
        assert "torsion-identity" in axioms and "structure-class" in axioms

    def test_open_toda_classified_pn(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("check", "--model", "open-toda", "--n", "3", "--format", "json", "--out", str(out))
        assert code == 0
        assert read_json(out)["classification"] == "PN"

    def test_zero_wrap_coupling_gives_the_open_chain(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("check", "--model", "closed-toda", "--n", "3", "--f", "1,1,0", "--format", "json", "--out", str(out))
        assert code == 0
        report = read_json(out)
        assert (report["config"]["f"], report["classification"]) == (["1", "1", "0"], "PN")

    def test_unknown_model_exits_two(self, capsys):
        assert run_cli("check", "--model", "unknown", "--n", "3") == 2
        err = capsys.readouterr().err
        assert "known models" in err

    def test_missing_n_exits_two(self):
        assert run_cli("check", "--model", "closed-toda") == 2

    def test_two_particle_via_flag(self):
        assert run_cli("check", "--model", "two-particle", "--v", "(* q1 q2)") == 0

    def test_potential_zero_as_a_function_is_classified_pn(self, tmp_path):
        # Its 3-form is zero as a function though not in canonical form; the exact test decides it.
        out = tmp_path / "report.json"
        v = "(+ (* (+ (^ q1 2) (* -1 (^ q2 2))) (^ (+ q1 (* -1 q2)) -1)) (* -1 q1) (* -1 q2))"
        argv = ("check", "--model", "two-particle", "--v", v, "--expect", "pn", "--format", "json", "--out", str(out))
        assert run_cli(*argv) == 0
        report = read_json(out)
        assert report["classification"] == "PN"
        assert report["entries"][-1]["detail"] == "computed PN, expected PN"
        assert "torsion-vanishes" in {e["axiom"] for e in report["entries"]}

    def test_text_format_lists_entries(self, capsys):
        assert run_cli("check", "--model", "canonical", "--n", "2") == 0
        out = capsys.readouterr().out
        assert "OVERALL: PASS" in out
        assert "torsion-vanishes" in out

    def test_json_report_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            run_cli("check", "--model", "open-toda", "--n", "2", "--format", "json", "--out", str(path), "--seed", "11")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("check", "--model", "calogero", "--n", "2", "--format", "json", "--out", str(a), "--seed", "1")
        run_cli("check", "--model", "calogero", "--n", "2", "--format", "json", "--out", str(b), "--seed", "2")
        assert read_json(a)["config"]["zero_test"]["seed"] != read_json(b)["config"]["zero_test"]["seed"]


class TestConfigFile:
    def test_file_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "closed-toda", "n": 2, "expect": "pqn"}))
        assert run_cli("check", "--config", str(cfg)) == 0
        # flag overrides the file's model
        assert run_cli("check", "--config", str(cfg), "--expect", "pn") == 1

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "canonical", "n": 2, "wibble": 1}))
        assert run_cli("check", "--config", str(cfg)) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            b"not json",
            b'{"model": "closed-toda", "n": 3, "v": "\xff"}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"model": "canonical", "n": ' + b"1" * 5000 + b"}",  # past the interpreter's integer digit limit
        ],
        ids=["not-json", "not-utf-8", "array-nested-100000-deep", "integer-of-5000-digits"],
    )
    def test_malformed_file_rejected(self, content, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run_cli("check", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {cfg} is not valid JSON: ")
        assert len(err.splitlines()) == 1

    def test_couplings_from_a_config_string(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "closed-toda", "n": 3, "f": "1,2,3", "format": "json"}))
        out = tmp_path / "report.json"
        assert run_cli("check", "--config", str(cfg), "--out", str(out)) == 0
        report = read_json(out)
        assert (report["config"]["f"], report["classification"]) == (["1", "2", "3"], "PqN")

    def test_pair_potential_model_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "pair-potential",
                    "n": 2,
                    "potentials": {"1,2": "(exp x)"},
                }
            )
        )
        assert run_cli("check", "--config", str(cfg)) == 0

    def test_two_potential_keys_for_one_pair_are_a_config_error(self, tmp_path, capsys):
        # "1,2" and "1, 2" both read as the pair (1, 2); neither potential may silently replace the other.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model": "pair-potential", "n": 3, "potentials": {"1,2": "(^ x -2)", "1, 2": "x"}})
        )
        assert run_cli("check", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err == "config error: potential keys '1,2' and '1, 2' both name the pair (1, 2)\n"


# Each setting with a flag: a run without it, its flag value, the same value as a config file holds it,
# and another file value the flag must win over.
FLAG_SETTINGS = [
    (("check", "--n", "3"), "model", "closed-toda", "closed-toda", "open-toda"),
    (("check", "--model", "closed-toda"), "n", "3", 3, 2),
    (("check", "--model", "closed-toda", "--n", "3"), "f", "1,1,0", [1, 1, 0], "1,2,3"),
    (("involutivity", "--model", "calogero", "--n", "3"), "kmax", "2", 2, 3),
    (("check", "--model", "two-particle"), "v", "(* q1 q2)", "(* q1 q2)", "(+ q1 q2)"),
    (("deform", "--model", "canonical", "--n", "3"), "omega", "toda", "toda", "zero"),
    (("check", "--model", "closed-toda", "--n", "3"), "expect", "pn", "pn", "pqn"),
    (("check", "--model", "canonical", "--n", "2"), "format", "json", "json", "text"),
    (("check", "--model", "closed-toda", "--n", "3"), "samples", "9", 9, 20),
    (("check", "--model", "closed-toda", "--n", "3"), "seed", "11", 11, 12),
]


class TestSettingTables:
    def report(self, argv, tmp_path, capsys) -> tuple[int, str]:
        code = run_cli(*config_args(argv, tmp_path))
        return code, capsys.readouterr().out

    @pytest.mark.parametrize(
        "base, key, flag_value, file_value, other", FLAG_SETTINGS, ids=[row[1] for row in FLAG_SETTINGS]
    )
    def test_config_file_gives_the_flag_report_and_the_flag_wins(
        self, base, key, flag_value, file_value, other, tmp_path, capsys
    ):
        json_format = () if key == "format" else ("--format", "json")
        flag = (f"--{key}", flag_value)
        by_flag = self.report((*base, *flag, *json_format), tmp_path, capsys)
        assert by_flag[0] in (0, 1) and by_flag[1]
        assert self.report((*base, *json_format, "--config", {key: file_value}), tmp_path, capsys) == by_flag
        assert self.report((*base, *flag, *json_format, "--config", {key: other}), tmp_path, capsys) == by_flag
        assert self.report((*base, *json_format, "--config", {key: other}), tmp_path, capsys) != by_flag

    @pytest.mark.parametrize(
        "base, key, value",
        [
            (("check", "--model", "closed-toda"), "n", "x"),
            (("check", "--model", "closed-toda", "--n", "3"), "f", "1/0,1,1"),
            (("check", "--model", "closed-toda", "--n", "3"), "expect", "bogus"),
            (("check", "--model", "closed-toda", "--n", "3"), "format", "xml"),
            (("check", "--model", "closed-toda", "--n", "3"), "samples", "x"),
        ],
        ids=["n", "f", "expect", "format", "samples"],
    )
    def test_flag_and_config_file_values_are_read_alike(self, base, key, value, tmp_path, capsys):
        errors = []
        for argv in ((*base, f"--{key}", value), (*base, "--config", {key: value})):
            assert run_cli(*config_args(argv, tmp_path)) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert len(errors[0].splitlines()) == 1
        assert errors[0].startswith(f"config error: setting {key!r} has an unusable value {value!r}: ")

    @pytest.mark.parametrize("name", list(MODELS))
    def test_every_model_runs(self, name, capsys):
        code = run_cli("check", "--model", name, "--n", "2")
        needs = {
            "pair-potential": "pair-potential needs a potentials mapping in the config file",
            "two-particle": "two-particle needs --v (a prefix expression in q1, q2)",
        }
        if name in needs:
            assert (code, capsys.readouterr().err) == (2, f"config error: {needs[name]}\n")
        else:
            assert code in (0, 1)

    @pytest.mark.parametrize("name", list(BASES))
    def test_every_base_runs(self, name):
        assert run_cli("deform", "--model", name, "--omega", "zero", "--n", "2") in (0, 1)

    @pytest.mark.parametrize("name", list(OMEGAS))
    def test_every_omega_runs(self, name):
        assert run_cli("deform", "--model", "canonical", "--omega", name, "--n", "2") in (0, 1)


def _keys(data) -> set:
    """Every key of a JSON value, at any depth."""
    if isinstance(data, dict):
        return set(data).union(*map(_keys, data.values()))
    if isinstance(data, list):
        return set().union(*map(_keys, data))
    return set()


class TestZeroTestSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--model", "closed-toda", "--n", "3"),
            ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--samples", "9"),
            ("deform", "--model", "canonical", "--omega", "toda", "--n", "3", "--seed", "5"),
        ],
    )
    def test_report_echoes_samples_and_seed_only(self, argv, capsys):
        assert run_cli(*argv, "--format", "json") == 0
        report = strict_json(capsys.readouterr().out)
        assert set(report["config"]["zero_test"]) == {"sample_count", "seed"}
        assert not _keys(report) & {"tolerance", "box_halfwidth", "separation"}

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("check", "--model", "closed-toda", "--n", "3", "--tol", "1e-9"), "--tol"),
            (("check", "--model", "closed-toda", "--n", "3", "--config", {"separation": 5e-2}), "separation"),
        ],
    )
    def test_float_sampler_settings_are_config_errors(self, argv, named, tmp_path, capsys):
        assert run_cli(*config_args(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ") and named in err


class TestInvolutivityCommand:
    def test_calogero_three_passes(self, tmp_path):
        out = tmp_path / "inv.json"
        code = run_cli(
            "involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--format", "json", "--out", str(out)
        )
        assert code == 0
        report = read_json(out)
        assert report["overall"] == "pass"
        assert report["matrix"]["all_zero"] is True

    def test_calogero_four_matches_non_involutive_expectation(self, tmp_path):
        out = tmp_path / "inv.json"
        code = run_cli(
            "involutivity", "--model", "calogero", "--n", "4", "--kmax", "4", "--format", "json", "--out", str(out)
        )
        assert code == 0
        report = read_json(out)
        assert report["matrix"]["all_zero"] is False
        witnessed = [e for e in report["entries"] if e["axiom"] == "non-involutivity-witnessed"]
        assert witnessed and witnessed[0]["verdict"] == "pass"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--model", "calogero", "--n", "4", "--kmax", "4"),
            ("--model", "two-particle", "--v", "(* q1 q2)", "--kmax", "2"),
        ],
    )
    def test_witnessed_entry_comes_from_the_worst_cell(self, argv, capsys):
        # Calogero n=4 has two nonzero cells; residual and witness must both be the worse one's.
        assert run_cli("involutivity", *argv, "--format", "json") == 0
        report = strict_json(capsys.readouterr().out)
        (entry,) = [e for e in report["entries"] if e["axiom"] == "non-involutivity-witnessed"]
        cells = report["matrix"]["cells"]
        nonzero = [key for key, cell in cells.items() if not cell["zero"]]
        worst = max(nonzero, key=lambda key: cells[key]["residual"])
        j, k = worst.split(",")
        assert entry["detail"].startswith(f"worst cell ({j}, {k}); ")
        cell = cells[worst]
        assert (entry["residual"], entry["witness"], entry["mode"]) == (cell["residual"], cell["witness"], cell["mode"])

    def test_closed_toda_two(self):
        assert run_cli("involutivity", "--model", "closed-toda", "--n", "2", "--kmax", "2") == 0

    def test_tiny_drift_two_particle_meets_its_claim(self, capsys):
        # The model decides its drift, 1e-20, exactly: it claims non-involutivity, which the bracket proves.
        v = "(+ (exp (+ q1 (* -1 q2))) (* 1/100000000000000000000 q1))"
        assert run_cli("involutivity", "--model", "two-particle", "--v", v, "--kmax", "2", "--format", "json") == 0
        cell = strict_json(capsys.readouterr().out)["matrix"]["cells"]["1,2"]
        assert (cell["zero"], cell["mode"]) == (False, "exact")

    def test_exp_in_a_base_is_decided_exactly(self, capsys):
        # The drift and the bracket both hold 1e-20 (exp(q1) + 1)^-1 terms, which sampling called zero.
        v = "(+ (exp (+ q1 (* -1 q2))) (* 1/100000000000000000000 (^ (+ (exp q1) 1) -1)))"
        assert run_cli("involutivity", "--model", "two-particle", "--v", v, "--kmax", "2", "--format", "json") == 0
        report = strict_json(capsys.readouterr().out)
        cell = report["matrix"]["cells"]["1,2"]
        assert (cell["zero"], cell["mode"]) == (False, "exact")
        (entry,) = [e for e in report["entries"] if e["axiom"] == "non-involutivity-witnessed"]
        assert (entry["verdict"], entry["mode"]) == ("pass", "exact")

    def test_kmax_guard(self, capsys):
        assert run_cli("involutivity", "--model", "canonical", "--n", "2", "--kmax", "9") == 2
        assert "guard" in capsys.readouterr().err

    def test_failure_when_claim_broken(self):
        # closed chain with unequal couplings makes no claim, so it passes;
        # the generic two-particle potential claims non-involutivity and the
        # nonzero pair is found
        assert run_cli("involutivity", "--model", "two-particle", "--v", "(* q1 q2)", "--kmax", "2") == 0


class TestDeformCommand:
    def test_toda_deformation_artifacts(self, tmp_path):
        out = tmp_path / "deform.json"
        code = run_cli(
            "deform", "--model", "canonical", "--omega", "toda", "--n", "3", "--format", "json", "--out", str(out)
        )
        assert code == 0
        report = read_json(out)
        assert report["classification"] == "PqN"
        assert report["overall"] == "pass"
        phi = report["phi"]
        assert phi["degree"] == 3 and len(phi["terms"]) == 3
        matrix = report["n_hat"]["matrix"]
        assert matrix[0][0] == "p1"
        # phi coefficients carry the wrap-around exponential
        assert all("exp" in term["coeff"] for term in phi["terms"])

    def test_zero_omega_echoes_base(self, tmp_path):
        out = tmp_path / "deform.json"
        code = run_cli(
            "deform", "--model", "canonical", "--omega", "zero", "--n", "2", "--format", "json", "--out", str(out)
        )
        assert code == 0
        report = read_json(out)
        assert report["classification"] == "PN"
        assert report["phi"]["terms"] == []

    def test_identity_with_omega_hat_recovers_open_chain(self, tmp_path):
        out = tmp_path / "deform.json"
        code = run_cli(
            "deform", "--model", "identity", "--omega", "omega-hat", "--n", "3", "--format", "json", "--out", str(out)
        )
        assert code == 0
        report = read_json(out)
        bundle_matrix = serialize_tensor(__import__("pqncheck.models", fromlist=["open_toda"]).open_toda(3).tensor)
        assert report["n_hat"] == bundle_matrix
        assert report["classification"] == "PN"

    def test_non_closed_form_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "canonical",
                    "n": 2,
                    "omega_form": {"degree": 2, "terms": [{"indices": [1, 2], "coeff": "p1"}]},
                }
            )
        )
        assert run_cli("deform", "--config", str(cfg)) == 1
        assert "omega-closed" in capsys.readouterr().out

    def test_non_closed_form_text_report_renders_its_json(self, tmp_path, capsys):
        # The header echoes the form and a mapping as compact JSON, whatever order the JSON report keys them in.
        omega_form = {"degree": 2, "terms": [{"indices": [1, 2], "coeff": "p1"}]}
        config = {"omega_form": omega_form, "potentials": {"1,2": "x"}}
        argv = config_args(("deform", "--n", "2", "--config", config), tmp_path)
        assert run_cli(*argv, "--format", "json") == 1
        payload = strict_json(capsys.readouterr().out)
        payload["config"]["format"] = "text"
        assert run_cli(*argv, "--format", "text") == 1
        text = capsys.readouterr().out
        assert text == cli._text(payload)
        assert text.splitlines() == [
            'deform n=2 potentials={"1,2":"x"} omega_form={"degree":2,"terms":[{"coeff":"p1","indices":[1,2]}]} '
            "format=text sample_count=50 seed=7: the deforming 2-form is not closed",
            "FAIL omega-closed: witness={'q1': 11.0, 'q2': 5.0, 'p1': 13.0, 'p2': 2.0} residual=1.000e+00",
            "OVERALL: FAIL",
        ]

    def test_custom_closed_form_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "identity",
                    "n": 2,
                    "omega_form": {
                        "degree": 2,
                        "terms": [
                            {"indices": [3, 1], "coeff": "1"},
                            {"indices": [4, 2], "coeff": "1"},
                            {"indices": [3, 1], "coeff": "(* -1 p1)"},
                            {"indices": [4, 2], "coeff": "(* -1 p2)"},
                        ],
                    },
                }
            )
        )
        assert run_cli("deform", "--config", str(cfg)) == 0

    @pytest.mark.parametrize(
        "base, omega, classification",
        [
            ("open-toda", "zero", "PN"),
            # omega_c is closed, but d_N omega_c = -d(i_N omega_c) is not zero for the chain tensor
            ("open-toda", "omega-c", "PqN"),
            ("canonical", "open-toda", "PN"),
            ("canonical", "closed-toda", "PqN"),
        ],
    )
    def test_named_forms(self, base, omega, classification, tmp_path):
        out = tmp_path / "deform.json"
        code = run_cli("deform", "--model", base, "--omega", omega, "--n", "3", "--format", "json", "--out", str(out))
        assert code == 0
        report = read_json(out)
        assert (report["overall"], report["classification"]) == ("pass", classification)

    def test_closed_toda_is_the_toda_form(self, capsys):
        reports = []
        for omega in ("toda", "closed-toda"):
            assert run_cli("deform", "--model", "canonical", "--omega", omega, "--n", "3", "--format", "json") == 0
            report = strict_json(capsys.readouterr().out)
            assert report["config"].pop("omega") == omega
            reports.append(report)
        assert reports[0] == reports[1]

    def test_unknown_omega_exits_two(self, capsys):
        assert run_cli("deform", "--model", "canonical", "--omega", "bogus", "--n", "2") == 2
        # the message names every accepted form, the closed-toda alias of toda included
        assert "zero, omega-c, omega-hat, toda, closed-toda, open-toda" in capsys.readouterr().err

    def test_missing_omega_exits_two(self):
        assert run_cli("deform", "--model", "canonical", "--n", "2") == 2


def _omega_form(degree, terms) -> dict:
    return {"omega_form": {"degree": degree, "terms": [{"indices": i, "coeff": c} for i, c in terms]}}


HUGE_N = str(10**20)

# The inverse of exp(q1)/(exp(q1)+1) + 1/(exp(q1)+1) - 1, a sum that is zero but not in canonical form.
ZERO_AS_A_FUNCTION_BASE = "(^ (+ (* (exp q1) (^ (+ (exp q1) 1) -1)) (^ (+ (exp q1) 1) -1) -1) -1)"


# An input a config error must quote by a bounded prefix, not whole.
LONG = "z" * 12000


def _nested(depth: int, atom: str) -> str:
    """``atom`` inside ``depth`` one-term sums."""
    return "(+ " * depth + atom + ")" * depth


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--model", "closed-toda", "--n", "3", "--samples", "0"),
            ("check", "--model", "closed-toda", "--n", "3", "--tol", "-1"),
            ("check", "--model", "closed-toda", "--n", "0"),
            ("involutivity", "--model", "calogero", "--n", "0"),
            ("deform", "--model", "canonical", "--omega", "toda", "--n", "0"),
            ("check", "--model", "closed-toda", "--config", {"n": "abc"}),
            ("check", "--model", "closed-toda", "--n", "3", "--config", {"f": [1, "a", 1]}),
            ("check", "--model", "closed-toda", "--n", "3", "--config", {"box_halfwidth": "wide"}),
            ("check", "--model", "canonical", "--n", "1", "--config", {"expect": 5}),
            ("check", "--model", "canonical", "--n", "1", "--config", {"out": 5}),
            ("check", "--model", "canonical", "--n", "1", "--out", "/nonexistent/dir/r.json"),
            ("involutivity", "--model", "calogero", "--config", {"n": 3.7}),
            ("involutivity", "--model", "calogero", "--n", "3", "--config", {"kmax": True}),
            ("involutivity", "--model", "calogero", "--n", "3", "--config", {"samples": 2.5}),
            ("involutivity", "--model", "calogero", "--n", "3", "--config", {"tol": True}),
            ("involutivity", "--model", "calogero", "--n", "3", "--config", {"seed": 1.5}),
            ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--tol", "nan"),
            ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--tol", "inf"),
            ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--config", {"box_halfwidth": 1e308}),
            ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--config", {"box_halfwidth": "inf"}),
            ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--config", {"box_halfwidth": "nan"}),
            ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--config", {"separation": "nan"}),
            ("check", "--model", "closed-toda", "--n", "x"),
            ("check", "--model", "two-particle", "--v", "(+ (^ (+ q1 1) -70000) (^ (+ q2 1) -70000))"),
            # A 29-character exp argument that expands to 495 terms is quoted as written.
            ("check", "--model", "two-particle", "--v", "(exp (^ (+ q1 q2 p1 p2 1) 8))"),
            ("check", "--model", "closed-toda", "--n", "3", "--f", "1/0,1,1"),
            ("check", "--model", "closed-toda", "--n", "3", "--config", {"f": ["1/0", 1, 1]}),
            ("check", "--model", "closed-toda", "--n", "3", "--bogus"),
            (),
            # A particle count whose 2n coordinates no index can reach, refused before anything is sized by it.
            ("check", "--model", "closed-toda", "--n", HUGE_N),
            ("check", "--model", "open-toda", "--n", HUGE_N),
            ("check", "--model", "canonical", "--n", HUGE_N),
            ("involutivity", "--model", "calogero", "--n", HUGE_N),
            ("involutivity", "--model", "pair-potential", "--config", {"n": 10**20, "potentials": {"1,2": "x"}}),
            ("deform", "--model", "canonical", "--omega", "toda", "--n", HUGE_N),
            ("deform", "--model", "open-toda", "--omega", "toda", "--n", HUGE_N),
            # Inputs of 12,000 characters, each quoted by a bounded prefix.
            ("check", "--model", "two-particle", "--v", f"(+ q1 {LONG})"),
            ("check", "--model", "two-particle", "--v", "(+ q1" + " q2" * 4000),
            ("check", "--model", "two-particle", "--v", "q1" + " q2" * 4000),
            ("check", "--model", "pair-potential", "--n", "2", "--config", {"potentials": {"1,2": f"(+ x {LONG})"}}),
            ("check", "--model", LONG, "--n", "2"),
            ("check", "--model", "closed-toda", "--n", "7" * 12000),
            ("check", "--model", "closed-toda", "--n", LONG),
            ("check", "--model", "closed-toda", "--n", "3", f"--{LONG}"),
            (LONG,),
            # Paths no file can have; the OSError's own text would repeat each whole.
            ("check", "--config", "z" * 5000),
            ("check", "--model", "canonical", "--n", "1", "--out", "z" * 5000),
            # A value of a type its setting does not take, in a config file.
            ("check", "--n", "3", "--config", {"model": True}),
            ("check", "--model", "closed-toda", "--n", "3", "--config", {"f": 5}),
            ("check", "--model", "pair-potential", "--n", "2", "--config", {"potentials": ["1,2", "x"]}),
            ("deform", "--n", "2", "--config", {"omega_form": 5}),
            # A malformed potential key, a config file holding a list, and a config file that cannot be read.
            ("check", "--model", "pair-potential", "--n", "2", "--config", {"potentials": {"1-2": "x"}}),
            ("check", "--model", "closed-toda", "--n", "3", "--config", [{"model": "closed-toda"}]),
            ("check", "--model", "closed-toda", "--n", "3", "--config", "/nonexistent/dir/cfg.json"),
            # A particle count the model fixes otherwise, no model, and no trace order.
            ("check", "--model", "two-particle", "--n", "3", "--v", "(* q1 q2)"),
            ("check", "--n", "3"),
            ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "0"),
        ],
    )
    def test_rejected_value_is_a_one_line_config_error(self, argv, tmp_path, capsys):
        assert run_cli(*config_args(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ")
        assert "Traceback" not in err
        assert len(err.encode("utf-8")) < 300

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--model", "two-particle", "--v", "(^ q1 q2)"),
            ("check", "--model", "two-particle", "--v", "(exp (* q1 p1))"),
            ("check", "--model", "two-particle", "--v", "(^ q1"),
            ("check", "--model", "two-particle", "--v", "q3"),
            ("check", "--model", "two-particle", "--v", "(^ (+ q1 (* -1 q1)) -1)"),
            ("check", "--model", "two-particle", "--v", ZERO_AS_A_FUNCTION_BASE),
            ("check", "--model", "pair-potential", "--n", "2", "--config", {"potentials": {"1,2": "(exp (* x x))"}}),
            ("deform", "--n", "2", "--config", _omega_form(2, [([1, 9], "1")])),
            ("deform", "--n", "2", "--config", _omega_form(2, [([0, 1], "1")])),
            ("deform", "--n", "2", "--config", _omega_form(2, [([1], "1")])),
            ("deform", "--n", "2", "--config", _omega_form(3, [([1, 2, 3], "1")])),
            ("deform", "--n", "2", "--config", {"omega_form": {"degree": 2, "terms": 5}}),
            ("deform", "--n", "2", "--config", _omega_form(2, [("12", "1")])),
            ("deform", "--n", "2", "--config", _omega_form(2, [([1.7, 3], "1")])),
            ("deform", "--n", "2", "--config", _omega_form(2, [([True, 3], "1")])),
            ("deform", "--n", "2", "--config", _omega_form(2.9, [([1, 3], "1")])),
            ("check", "--model", "two-particle", "--v", "1/0"),
            ("check", "--model", "two-particle", "--v", "(exp 1/0)"),
            ("check", "--model", "pair-potential", "--n", "2", "--config", {"potentials": {"1,2": "(* 1/0 x)"}}),
            ("deform", "--n", "2", "--config", _omega_form(2, [([1, 3], "1/0")])),
            # Nested past the recursion limit.
            ("check", "--model", "two-particle", "--v", _nested(3000, "q1")),
            ("check", "--model", "pair-potential", "--n", "2", "--config", {"potentials": {"1,2": _nested(3000, "x")}}),
            ("deform", "--n", "2", "--config", _omega_form(2, [([1, 3], _nested(3000, "q1"))])),
        ],
    )
    def test_malformed_expression_is_a_one_line_config_error(self, argv, tmp_path, capsys):
        assert run_cli(*config_args(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    def test_deeply_nested_form_term_is_quoted_by_a_bounded_prefix(self, tmp_path, capsys):
        argv = ("deform", "--n", "2", "--config", _omega_form(2, [([1, 3], _nested(3000, "q1"))]))
        assert run_cli(*config_args(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed form term ")
        assert len(err.splitlines()) == 1
        assert len(err.encode("utf-8")) < 300

    def test_potential_nested_as_deep_as_v_is_accepted(self, tmp_path):
        # Putting q1 - q2 in for x takes one frame per level, as parsing does.
        potentials = {"potentials": {"1,2": _nested(700, "x")}}
        argv = ("check", "--model", "pair-potential", "--n", "2", "--config", potentials)
        assert run_cli(*config_args(argv, tmp_path)) == 0

    @pytest.mark.parametrize(
        "v, cause",
        [
            # The drift -70000 ((q1 + 1)^-70001 + (q2 + 1)^-70001) is the field the model decides first.
            ("(+ (^ (+ q1 1) -70000) (^ (+ q2 1) -70000))", "degree bound 140004 is past 2**16"),
            (ZERO_AS_A_FUNCTION_BASE, f"a sum base was zero at {scalar._EXACT_REDRAWS} draws in a row"),
        ],
        ids=["degree-bound", "zero-sum-base"],
    )
    def test_undecided_field_names_its_cause(self, v, cause, capsys):
        assert run_cli("check", "--model", "two-particle", "--v", v) == 2
        err = capsys.readouterr().err
        assert err == f"config error: translation-invariance: undecided by the exact zero test: {cause}\n"

    @pytest.mark.parametrize(
        "argv, written",
        [
            (("check", "--model", "two-particle", "--v", "(exp (* q1 p2))"), "(* q1 p2)"),
            (("deform", "--n", "1", "--config", _omega_form(2, [([1, 2], "(exp (* q1 p1))")])), "(* q1 p1)"),
            (
                ("check", "--model", "pair-potential", "--n", "2", "--config", {"potentials": {"1,2": "(exp (exp x))"}}),
                "(exp x)",
            ),
        ],
        ids=["v", "omega-form", "potential"],
    )
    def test_non_affine_exp_names_coordinates_as_written(self, argv, written, tmp_path, capsys):
        assert run_cli(*config_args(argv, tmp_path)) == 2
        assert capsys.readouterr().err.endswith(f"exp argument must be affine in the coordinates, got {written}\n")


EXP_400 = "(exp (* 400 q1))"
EXP_100000 = "(exp (* 100000 q1))"


class TestNoFloatSampler:
    @pytest.fixture
    def refuse_sampler(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a verdict or decision reached the float sampler")

        for module in [m for name, m in sys.modules.items() if name.startswith("pqncheck")]:
            for function in (scalar.is_zero, scalar.sample_points):
                if getattr(module, function.__name__, None) is function:
                    monkeypatch.setattr(module, function.__name__, refuse)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("involutivity", "--model", "calogero", "--n", "4", "--kmax", "4"), 0),
            (("deform", "--model", "canonical", "--omega", "toda", "--n", "3"), 0),
            (("deform", "--model", "canonical", "--n", "2", "--config", _omega_form(2, [([1, 2], "p1")])), 1),
            # exp(400 q1) overflows a float at q1 = 2; each run decides it exactly and passes.
            (("check", "--model", "two-particle", "--v", EXP_400), 0),
            (("deform", "--model", "canonical", "--n", "2", "--config", _omega_form(2, [([1, 2], EXP_400)])), 0),
            # Its drift is one monomial of degree 100000, decided without a point or a degree bound.
            (("check", "--model", "two-particle", "--v", EXP_100000), 0),
        ],
        ids=[
            "calogero-4",
            "toda-deform",
            "non-closed-deform",
            "two-particle-exp-400",
            "deform-exp-400",
            "two-particle-exp-100000",
        ],
    )
    def test_runs_end_without_the_sampler(self, refuse_sampler, argv, code, tmp_path):
        assert run_cli(*config_args(argv, tmp_path)) == code


class TestStrictJson:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_rejected(self, constant):
        with pytest.raises(ValueError):
            strict_json(f'{{"residual": {constant}}}')


class TestReportPin:
    """What the reports say, beyond the bytes, exit codes and modes that tests/test_report_pins.py pins.

    Each test reads its command line's one run per session, which ``test_pinned_report`` reads too.
    """

    def test_calogero_three_involutivity_residuals(self):
        # Its one non-canonical cell is an exact zero, so every residual is 0.0.
        code, out = cli_report("involutivity --model calogero --n 3 --kmax 3 --format json")
        assert code == 0
        cells = strict_json(out)["matrix"]["cells"]
        assert {cell["residual"] for cell in cells.values()} == {0.0}

    def test_calogero_five_involutivity_cells(self):
        # The first n at which both zero and nonzero cells need the exact test.
        code, out = cli_report("involutivity --model calogero --n 5 --kmax 5 --format json")
        assert code == 0
        cells = strict_json(out)["matrix"]["cells"].values()
        kinds = [(cell["mode"], cell["zero"]) for cell in cells]
        assert [kinds.count(kind) for kind in [("symbolic", True), ("exact", True), ("exact", False)]] == [13, 2, 10]
        for cell in cells:
            if not cell["zero"]:
                assert cell["residual"] > 0 and all(float(v).is_integer() for v in cell["witness"].values())

    def test_failing_two_particle_axioms(self):
        # A momentum-dependent potential fails five entries, each with an exact witness whose
        # point depends on the order of the fields.
        code, out = cli_report("check --model two-particle --v '(* p1 q2)' --format json")
        assert code == 1
        failed = [e["axiom"] for e in strict_json(out)["entries"] if e["verdict"] == "fail"]
        assert failed == [
            "compatibility-bracket",
            "phi-closed",
            "i_N-phi-closed",
            "torsion-identity",
            "dN-squared-is-phi-bracket",
        ]

    @pytest.mark.parametrize("model, n", [("closed-toda", 6), ("closed-toda", 7), ("closed-toda", 8), ("open-toda", 8)])
    def test_toda_traces_commute_at_scale(self, model, n):
        # Every cell is a symbolic zero, through products and partials of exp monomials.
        code, out = cli_report(f"involutivity --model {model} --n {n} --kmax {n} --format json")
        assert code == 0
        cells = strict_json(out)["matrix"]["cells"].values()
        assert len(cells) == n * n and {(cell["mode"], cell["zero"]) for cell in cells} == {("symbolic", True)}

    def test_calogero_four_involutivity_structure(self):
        # Calogero has no exp, so the residuals of the nonzero cells are exact values rounded once:
        # 31/54 at (2, 4) and 7.944386727592045 at (3, 4).  The report's row in
        # tests/test_report_pins.py pins them with the rest of its bytes.
        code, out = cli_report("involutivity --model calogero --n 4 --kmax 4 --format json")
        assert code == 0
        report = strict_json(out)
        entries = [(e["axiom"], e["verdict"], e["mode"], e["samples"], e.get("detail")) for e in report["entries"]]
        assert entries == [
            ("bracket-H1-H1", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H1-H2", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H1-H3", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H1-H4", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H2-H2", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H2-H3", "pass", "exact", 0, "zero, no claim"),
            ("bracket-H2-H4", "pass", "exact", 1, "nonzero, no claim"),
            ("bracket-H3-H3", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H3-H4", "pass", "exact", 1, "nonzero, no claim"),
            ("bracket-H4-H4", "pass", "symbolic", 0, "zero, no claim"),
            ("non-involutivity-witnessed", "pass", "exact", 1, "worst cell (3, 4); nonzero pairs: [(2, 4), (3, 4)]"),
        ]
        # Both nonzero cells are proved nonzero at the first whole-number point drawn.
        point = {"q1": 11.0, "q2": 5.0, "q3": 13.0, "q4": 2.0, "p1": 3.0, "p2": 4.0, "p3": 12.0, "p4": 2.0}
        assert [e["witness"] for e in report["entries"] if e["samples"]] == [point] * 3
        exact, nonzero = {(2, 3), (2, 4), (3, 4)}, {(2, 4), (3, 4)}
        cells = {key: (cell["zero"], cell["mode"]) for key, cell in report["matrix"]["cells"].items()}
        expected = {}
        for j in range(1, 5):
            for k in range(1, 5):
                pair = (min(j, k), max(j, k))
                expected[f"{j},{k}"] = (pair not in nonzero, "exact" if pair in exact else "symbolic")
        assert cells == expected


class TestConsoleEntryPoint:
    def test_installed_script(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "pqncheck.cli", "check", "--model", "canonical", "--n", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "OVERALL: PASS" in result.stdout
        assert "finished in" in result.stderr

    def test_bad_flag_exits_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "pqncheck.cli", "check", "--nonsense"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
