from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from pqncheck.cli import main, parse_form, serialize_form, serialize_tensor
from pqncheck.models import closed_toda
from pqncheck.scalar import Chart


def run_cli(*argv) -> int:
    return main(list(argv))


def config_args(argv, tmp_path) -> list[str]:
    """The CLI arguments with each dict written to a JSON config file in its place."""
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    return args


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str) -> dict:
    """Parse a report, rejecting the NaN and Infinity that json.dumps writes by default."""
    return json.loads(text, parse_constant=_reject_constant)


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
        from pqncheck.exterior import dq, dp, wedge

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

    def test_expect_mismatch_exits_one(self):
        assert run_cli("check", "--model", "closed-toda", "--n", "3", "--expect", "pn") == 1

    def test_unknown_model_exits_two(self, capsys):
        assert run_cli("check", "--model", "unknown", "--n", "3") == 2
        err = capsys.readouterr().err
        assert "known models" in err

    def test_missing_n_exits_two(self):
        assert run_cli("check", "--model", "closed-toda") == 2

    def test_two_particle_via_flag(self):
        assert run_cli("check", "--model", "two-particle", "--v", "(* q1 q2)") == 0

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

    def test_malformed_file_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert run_cli("check", "--config", str(cfg)) == 2

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


# The inverse of exp(q1)/(exp(q1)+1) + 1/(exp(q1)+1) - 1, a sum that is zero but not in canonical form.
ZERO_AS_A_FUNCTION_BASE = "(^ (+ (* (exp q1) (^ (+ (exp q1) 1) -1)) (^ (+ (exp q1) 1) -1) -1) -1)"


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
            ("involutivity", "--config", {"model": "calogero", "n": 4, "kmax": 4, "separation": 10}),
            ("check", "--model", "two-particle", "--v", "(+ (^ (+ q1 1) -70000) (^ (+ q2 1) -70000))"),
        ],
    )
    def test_rejected_value_is_a_one_line_config_error(self, argv, tmp_path, capsys):
        assert run_cli(*config_args(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ")
        assert "Traceback" not in err

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
        ],
    )
    def test_malformed_expression_is_a_one_line_config_error(self, argv, tmp_path, capsys):
        assert run_cli(*config_args(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ")
        assert "Traceback" not in err


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


class TestStrictJson:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_rejected(self, constant):
        with pytest.raises(ValueError):
            strict_json(f'{{"residual": {constant}}}')

    def test_calogero_involutivity_report(self, capsys):
        # The one cell that does not cancel in canonical form is decided by exact evaluation.
        argv = ("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--format", "json")
        assert run_cli(*argv) == 0
        report = strict_json(capsys.readouterr().out)
        modes = {cell["mode"] for cell in report["matrix"]["cells"].values()}
        assert "exact" in modes and "sampled" not in modes


class TestReportPin:
    def test_closed_toda_report_bytes(self, capsys):
        # Every entry of this report is decided symbolically, so it holds no
        # sampled floats and its bytes do not depend on the platform's libm.
        assert run_cli("check", "--model", "closed-toda", "--n", "3", "--seed", "11", "--format", "json") == 0
        out = capsys.readouterr().out
        assert {e["mode"] for e in strict_json(out)["entries"]} == {"symbolic"}
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "ed8dca5a1386887941bbff8d02faae790b2290d81bee64df113bbd19b0b669f2"

    def test_toda_deformation_report_bytes(self, capsys):
        # Also symbolic throughout; unlike the check above it runs the wedge
        # product and the general branch of the Koszul bracket.
        argv = ("deform", "--model", "canonical", "--omega", "toda", "--n", "3", "--seed", "13", "--format", "json")
        assert run_cli(*argv) == 0
        out = capsys.readouterr().out
        assert {e["mode"] for e in strict_json(out)["entries"]} == {"symbolic"}
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "a7c33e0da59788c6509a33f3f6db5889c62ac2f0197e281099a46343f2fa5a51"

    def test_closed_toda_six_involutivity_report_bytes(self, capsys):
        # All 36 cells are decided symbolically, through products and partials
        # of exp monomials, so the bytes do not depend on the platform's libm.
        assert run_cli("involutivity", "--model", "closed-toda", "--n", "6", "--kmax", "6", "--format", "json") == 0
        out = capsys.readouterr().out
        cells = strict_json(out)["matrix"]["cells"]
        assert len(cells) == 36 and {cell["mode"] for cell in cells.values()} == {"symbolic"}
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "09f8f68ebf7b136d3a2689907615250dc44618eb318461ac28b6774c08dcee48"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ("check", "--model", "closed-toda", "--n", "3", "--seed", "11"),
                "621cbeef3c164e34ea71969327ec3702f3f701f811062e70edeafe8bb4ed4072",
            ),
            (
                ("deform", "--model", "canonical", "--omega", "toda", "--n", "3", "--seed", "13"),
                "ec529020dcae4ebbf42e1cf3dc0030e02801c907c0318f0b7a8406bbd8782334",
            ),
        ],
    )
    def test_text_report_bytes(self, argv, expected, capsys):
        # The text forms of the two symbolic reports above.
        assert run_cli(*argv) == 0
        out = capsys.readouterr().out
        assert "mode=sampled" not in out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected

    def test_calogero_three_involutivity_report_bytes(self, capsys):
        # Its one non-canonical cell is an exact zero, so the report holds no
        # sampled floats and its bytes do not depend on the platform's libm.
        assert run_cli("involutivity", "--model", "calogero", "--n", "3", "--kmax", "3", "--format", "json") == 0
        out = capsys.readouterr().out
        cells = strict_json(out)["matrix"]["cells"]
        assert {cell["mode"] for cell in cells.values()} == {"symbolic", "exact"}
        assert {cell["residual"] for cell in cells.values()} == {0.0}
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "b86b86e187ca92cbffecbd4c8a41b271bb0883335c4324477634c3a24aaa93f2"

    def test_calogero_four_involutivity_structure(self, capsys):
        # Everything but the residuals and witnesses of the nonzero cells, whose floats depend on libm.
        argv = ("involutivity", "--model", "calogero", "--n", "4", "--kmax", "4", "--format", "json")
        assert run_cli(*argv) == 0
        report = strict_json(capsys.readouterr().out)
        entries = [(e["axiom"], e["verdict"], e["mode"], e["samples"], e.get("detail")) for e in report["entries"]]
        assert entries == [
            ("bracket-H1-H1", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H1-H2", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H1-H3", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H1-H4", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H2-H2", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H2-H3", "pass", "exact", 0, "zero, no claim"),
            ("bracket-H2-H4", "pass", "exact", 50, "nonzero, no claim"),
            ("bracket-H3-H3", "pass", "symbolic", 0, "zero, no claim"),
            ("bracket-H3-H4", "pass", "exact", 50, "nonzero, no claim"),
            ("bracket-H4-H4", "pass", "symbolic", 0, "zero, no claim"),
            ("non-involutivity-witnessed", "pass", "exact", 50, "worst cell (3, 4); nonzero pairs: [(2, 4), (3, 4)]"),
        ]
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
