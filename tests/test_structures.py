from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pqncheck.calculus import cartan_d, koszul_bracket
from pqncheck.errors import ConfigError, HypothesisViolationError
from pqncheck.exterior import Bivector, Form, Tensor11
from pqncheck.models import (
    CALOGERO_ZERO_TEST,
    calogero,
    canonical_deformation_form,
    canonical_nijenhuis,
    canonical_pn,
    canonical_poisson,
    canonical_symplectic,
    closed_toda,
    das_okubo_omega_hat,
    momentum_symplectic,
    open_toda,
    two_particle_model,
)
from pqncheck.randgen import random_tensor
from pqncheck.scalar import Chart, ScalarField, ZeroTestConfig, exp, parse_prefix
from pqncheck.structures import (
    AxiomCheck,
    GeometricStructure,
    _zero_axiom,
    check_compatibility,
    check_pn,
    check_poisson,
    check_pqn,
    deform,
    deform_to_pn,
    involutivity_matrix,
    recursion_check,
    trace_invariants,
)

from conftest import lagrange_identity


class TestCheckPoisson:
    def test_canonical_passes_symbolically(self, chart2):
        report = check_poisson(canonical_poisson(chart2))
        assert report.overall
        assert all(e.mode == "symbolic" for e in report.entries)

    def test_zero_bivector_passes(self, chart2):
        report = check_poisson(Bivector(chart2, [[0] * 4 for _ in range(4)]))
        assert report.overall

    def test_broken_bivector_fails_with_witness(self, chart2):
        q1, p1 = chart2.q(1), chart2.p(1)
        pi = Bivector.from_upper(chart2, {(0, 1): q1, (0, 2): p1})
        report = check_poisson(pi)
        assert not report.overall
        entry = report.entry("jacobi-identity")
        assert not entry.passed
        assert entry.witness is not None
        assert entry.residual > 1e-6

    def test_report_serialization_is_deterministic(self, chart2):
        pi = canonical_poisson(chart2)
        cfg = ZeroTestConfig(seed=5)
        assert check_poisson(pi, cfg).as_dict() == check_poisson(pi, cfg).as_dict()


class TestCompatibility:
    def test_momentum_tensor_compatible(self, canonical2):
        pi, nc = canonical2
        report = check_compatibility(pi, nc)
        assert report.overall

    def test_identity_compatible(self, chart2):
        pi = canonical_poisson(chart2)
        report = check_compatibility(pi, Tensor11.identity(chart2))
        assert report.overall

    def test_unpaired_diagonal_term_fails_musical_condition(self, chart2):
        pi = canonical_poisson(chart2)
        entries = [[0] * 4 for _ in range(4)]
        entries[0][0] = chart2.p(1)
        tensor = Tensor11(chart2, entries)
        report = check_compatibility(pi, tensor)
        assert not report.entry("compatibility-musical").passed

    def test_deformed_chain_tensor_compatible(self):
        bundle = closed_toda(3)
        report = check_compatibility(bundle.poisson, bundle.tensor)
        assert report.overall

    def test_unpaired_diagonal_bracket_entry_assumes_musical_condition(self, chart2):
        report = check_compatibility(canonical_poisson(chart2), _unpaired_diagonal_tensor(chart2))
        assert report.entry("compatibility-bracket").detail == "assumes compatibility-musical, which failed"

    @pytest.mark.parametrize(
        "diagonal",
        [lambda chart: [chart.p(1)] * 4, lambda chart: [chart.p(2), chart.p(1), chart.p(2), chart.p(1)]],
        ids=["p1-times-identity", "crossed-momenta"],
    )
    def test_bracket_condition_fails_while_musical_condition_holds(self, chart2, diagonal):
        # Each q_i and p_i carry the same diagonal entry, so N commutes with
        # pi_sharp; only the coordinate pairs of the bracket condition see it.
        tensor = Tensor11(chart2, {(i, i): value for i, value in enumerate(diagonal(chart2))})
        report = check_compatibility(canonical_poisson(chart2), tensor)
        assert report.entry("compatibility-musical").passed
        bracket = report.entry("compatibility-bracket")
        assert not bracket.passed
        assert bracket.detail is None

    @pytest.mark.parametrize(
        "build, is_pn",
        [(lambda: canonical_pn(2), True), (lambda: closed_toda(3), False)],
        ids=["canonical", "closed-toda"],
    )
    def test_decided_without_random_probe_fields(self, monkeypatch, build, is_pn):
        def forbidden(*args, **kwargs):
            raise AssertionError("compatibility is decided on coordinate pairs alone")

        bundle = build()
        monkeypatch.setattr("pqncheck.structures.random_scalar_field", forbidden)
        assert check_compatibility(bundle.poisson, bundle.tensor).overall
        report = check_pn(bundle.poisson, bundle.tensor)
        assert report.overall == is_pn
        assert report.entry("compatibility-bracket").passed


class TestCheckPn:
    def test_momentum_tensor(self, canonical2):
        pi, nc = canonical2
        report = check_pn(pi, nc)
        assert report.overall
        assert {e.axiom for e in report.entries} >= {
            "jacobi-identity",
            "compatibility-musical",
            "compatibility-bracket",
            "torsion-vanishes",
            "induced-bivector-poisson",
        }

    def test_open_chain(self):
        bundle = open_toda(3)
        assert check_pn(bundle.poisson, bundle.tensor).overall

    def test_closed_chain_fails_torsion(self):
        bundle = closed_toda(3)
        report = check_pn(bundle.poisson, bundle.tensor)
        assert not report.overall
        entry = report.entry("torsion-vanishes")
        assert not entry.passed
        assert entry.witness is not None


def _unpaired_diagonal_tensor(chart):
    entries = [[0] * 4 for _ in range(4)]
    entries[0][0] = chart.p(1)
    return Tensor11(chart, entries)


def _random_tensor_draw(chart, index):
    rng = random.Random(5)
    for _ in range(index):
        random_tensor(chart, rng)
    return random_tensor(chart, rng)


class TestInducedBivectorPin:
    # The product N o pi_sharp is not antisymmetric when compatibility fails,
    # and its Jacobi check must run on every ordered pair of it, not on an
    # antisymmetrized copy.  The verdicts below were recorded before the
    # sparse storage of tensors; only the residual is a float evaluation.
    # Exact evaluation proves the entry nonzero; the residual and witness
    # still come from the sampled points.
    @pytest.mark.parametrize(
        "build, residual, witness",
        [
            (
                _unpaired_diagonal_tensor,
                1.9990668723945735,
                (-0.6397853910706264, -1.7896975844389322, -1.9990668723945735, -1.3949402708822882),
            ),
            (
                lambda chart: _random_tensor_draw(chart, 0),
                20.825473568558234,
                (-1.9076171158190074, 1.8039422914988084, 0.11302958016849907, -1.4135898444036372),
            ),
            (
                lambda chart: _random_tensor_draw(chart, 1),
                15.977615384570301,
                (-0.6397853910706264, -1.7896975844389322, -1.9990668723945735, -1.3949402708822882),
            ),
        ],
        ids=["unpaired-diagonal", "random-draw-1", "random-draw-2"],
    )
    def test_failing_induced_bivector_report(self, chart2, build, residual, witness):
        report = check_pn(canonical_poisson(chart2), build(chart2))
        assert report.entry("induced-bivector-poisson").as_dict(chart2) == {
            "axiom": "induced-bivector-poisson",
            "verdict": "fail",
            "mode": "exact",
            "residual": pytest.approx(residual, rel=1e-12),
            "witness": dict(zip(("q1", "q2", "p1", "p2"), witness)),
            "samples": 50,
        }


class TestExactVerdicts:
    def test_tiny_nonzero_field_fails(self, chart2):
        # Its sampled residual, about 1e-20, is far below any tolerance.
        entry = _zero_axiom("tiny", [parse_prefix("(* 1/100000000000000000000 q1)", chart2)], ZeroTestConfig())
        assert (entry.passed, entry.mode, entry.samples) == (False, "exact", 50)
        assert entry.residual < 1e-19 and entry.witness is not None

    def test_identity_outside_canonical_form_is_an_exact_zero(self):
        identity = lagrange_identity(Chart(3))
        assert _zero_axiom("identity", [identity], ZeroTestConfig()) == AxiomCheck(
            "identity", True, "exact", 0.0, None, 0, None
        )
        entry = _zero_axiom("shifted", [identity + Fraction(1, 10**20)], ZeroTestConfig())
        assert (entry.passed, entry.mode) == (False, "exact")

    def test_exp_groups(self):
        chart = Chart(3)
        identity = lagrange_identity(chart)
        entry = _zero_axiom("exp", [identity * chart.q(1).exp()], ZeroTestConfig())
        assert (entry.passed, entry.mode) == (True, "exact")

    def test_field_with_an_exp_in_a_base_is_exact(self, chart2):
        field = parse_prefix("(^ (+ (exp q1) 1) -1)", chart2)
        entry = _zero_axiom("exp-base", [field], ZeroTestConfig())
        assert (entry.passed, entry.mode, entry.samples) == (False, "exact", 50)
        # Only the field proved nonzero is sampled, not the exact zero beside it.
        exact = parse_prefix("(+ (* (+ (^ q1 2) (* -1 (^ q2 2))) (^ (+ q1 q2) -1)) (* -1 q1) q2)", chart2)
        assert not exact.is_zero_tree
        assert _zero_axiom("exp-base", [exact, field], ZeroTestConfig()) == entry

    def test_perturbed_logistic_identity_fails_as_exact(self, chart2):
        # Its float residual, about 1e-16, passed the sampled test.
        logistic = "(+ (* (exp q1) (^ (+ (exp q1) 1) -1)) (^ (+ (exp q1) 1) -1) -1)"
        assert _zero_axiom("logistic", [parse_prefix(logistic, chart2)], ZeroTestConfig()).mode == "exact"
        perturbed = parse_prefix(f"(+ {logistic} (* 1/100000000000000000000 q1))", chart2)
        entry = _zero_axiom("logistic", [perturbed], ZeroTestConfig())
        assert (entry.passed, entry.mode) == (False, "exact")

    @pytest.mark.parametrize(
        "text",
        [
            "(+ (^ (+ q1 1) -70000) (^ (+ q2 1) -70000))",
            "(^ (+ (* (exp q1) (^ (+ (exp q1) 1) -1)) (^ (+ (exp q1) 1) -1) -1) -1)",
        ],
        ids=["degree-bound", "base-zero-as-a-function"],
    )
    def test_undecided_field_is_a_config_error(self, chart2, text):
        with pytest.raises(ConfigError, match="^field: undecided by the exact zero test"):
            _zero_axiom("field", [parse_prefix(text, chart2)], ZeroTestConfig())

    def test_residual_and_witness_come_from_the_fields_proved_nonzero(self, chart3):
        # The identity is an exact zero whose float residual, about 1e-15, dwarfs the tiny field's.
        tiny = parse_prefix("(* 1/100000000000000000000 q1)", chart3)
        entry = _zero_axiom("x", [tiny, lagrange_identity(chart3)], ZeroTestConfig())
        assert (entry.passed, entry.mode) == (False, "exact")
        assert entry.residual < 1e-19
        assert entry == _zero_axiom("x", [tiny], ZeroTestConfig())

    @pytest.mark.parametrize(
        "config",
        [
            ZeroTestConfig(tolerance=1e-30),
            ZeroTestConfig(tolerance=1.0),
            ZeroTestConfig(sample_count=1),
            ZeroTestConfig(sample_count=100000),
            ZeroTestConfig(box_halfwidth=1e-9),
            ZeroTestConfig(box_halfwidth=1e6),
            ZeroTestConfig(separation=0.0),
            ZeroTestConfig(box_halfwidth=0.5, separation=2.0),  # no point passes this guard
        ],
    )
    def test_exact_zero_ignores_the_sampling_settings(self, config):
        entry = _zero_axiom("identity", [lagrange_identity(Chart(3))], config)
        assert entry == AxiomCheck("identity", True, "exact", 0.0, None, 0, None)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_calogero_cells_are_certificates(self, n):
        bundle = calogero(n)
        matrix = involutivity_matrix(bundle.poisson, trace_invariants(bundle.tensor, n), CALOGERO_ZERO_TEST)
        assert {cell.mode for cell in matrix.cells.values()} == {"symbolic", "exact"}
        assert matrix.cell(2, 3).passed and matrix.cell(2, 3).mode == "exact"


class TestCheckPqn:
    def test_closed_chain(self):
        bundle = closed_toda(3)
        report = check_pqn(bundle.structure())
        assert report.overall

    def test_pn_structure_with_zero_form_degenerates(self, canonical2):
        pi, nc = canonical2
        structure = GeometricStructure.torsionless(pi, nc)
        assert check_pqn(structure).overall

    def test_generic_pair_potential_is_quasi_but_not_involutive(self):
        bundle = two_particle_model("(* q1 q2)")
        report = check_pqn(bundle.structure())
        assert report.overall
        invariants = trace_invariants(bundle.tensor, 2)
        matrix = involutivity_matrix(bundle.poisson, invariants)
        assert not matrix.all_zero

    def test_wrong_phi_fails_torsion_identity(self):
        bundle = closed_toda(3)
        structure = GeometricStructure(bundle.chart, bundle.poisson, bundle.tensor, Form.zero(bundle.chart, 3))
        report = check_pqn(structure)
        assert not report.entry("torsion-identity").passed


class TestDeform:
    def test_identity_deforms_to_momentum_tensor(self, chart2):
        pi = canonical_poisson(chart2)
        result = deform(pi, Tensor11.identity(chart2), canonical_deformation_form(chart2))
        assert result.tensor == canonical_nijenhuis(chart2)
        assert result.phi.is_zero
        assert result.classification == "PN"
        assert result.report.overall

    def test_zero_form_returns_base_unchanged(self, canonical2):
        pi, nc = canonical2
        result = deform(pi, nc, Form.zero(pi.chart, 2))
        assert result.tensor == nc
        assert result.phi.is_zero
        assert result.classification == "PN"

    def test_null_tensor_deformations(self, chart2):
        # the identity arises from the null tensor by minus the symplectic
        # form; the momentum tensor by minus its momentum-weighted variant
        pi = canonical_poisson(chart2)
        zero = Tensor11.zero(chart2)
        res1 = deform(pi, zero, -canonical_symplectic(chart2))
        assert res1.tensor == Tensor11.identity(chart2)
        res2 = deform(pi, zero, -momentum_symplectic(chart2))
        assert res2.tensor == canonical_nijenhuis(chart2)

    def test_closed_chain_deformation(self):
        bundle = closed_toda(3)
        result = deform(bundle.poisson, canonical_nijenhuis(bundle.chart), bundle.omega)
        assert result.classification == "PqN"
        assert result.tensor == bundle.tensor
        assert result.phi == bundle.expected.phi_closed_form
        assert result.report.overall

    def test_open_chain_deformation_is_torsionless(self):
        bundle = open_toda(3, [1, 2])
        result = deform(bundle.poisson, canonical_nijenhuis(bundle.chart), bundle.omega)
        assert result.classification == "PN"
        assert result.phi.is_zero
        assert result.tensor == bundle.tensor

    def test_non_closed_form_raises_with_witness(self, chart2):
        pi = canonical_poisson(chart2)
        omega = Form(chart2, 2, {(0, 1): chart2.p(1)})
        with pytest.raises(HypothesisViolationError) as err:
            deform(pi, canonical_nijenhuis(chart2), omega)
        assert err.value.witness is not None

    def test_solution_of_both_conditions_deforms_identity_to_pn(self, chart2):
        # closed and self-commuting: the deformation of the identity passes
        # the full torsionless check
        pi = canonical_poisson(chart2)
        omega = canonical_deformation_form(chart2)
        assert cartan_d(omega).is_zero
        assert koszul_bracket(pi, omega, omega).is_zero
        result = deform(pi, Tensor11.identity(chart2), omega)
        assert check_pn(pi, result.tensor).overall

    def test_das_okubo_recovery(self):
        # deforming the identity by the combined form equals deforming the
        # momentum tensor by the pair form alone
        n = 3
        f = [1, 2]
        bundle = open_toda(n, f)
        pi = bundle.poisson
        omega_hat = das_okubo_omega_hat(n, f)
        via_identity = deform(pi, Tensor11.identity(bundle.chart), omega_hat)
        via_momentum = deform(pi, canonical_nijenhuis(bundle.chart), bundle.omega)
        assert via_identity.tensor == via_momentum.tensor == bundle.tensor
        assert koszul_bracket(pi, omega_hat, omega_hat).is_zero


class TestDeformToPn:
    def test_closed_chain_returns_to_momentum_tensor(self):
        bundle = closed_toda(3)
        n_hat, report = deform_to_pn(bundle.structure(), -bundle.omega)
        assert n_hat == canonical_nijenhuis(bundle.chart)
        assert report.overall

    def test_wrong_form_fails_cancellation(self):
        bundle = closed_toda(3)
        _, report = deform_to_pn(bundle.structure(), Form.zero(bundle.chart, 2))
        assert not report.entry("phi-cancellation").passed


class TestTraceInvariants:
    def test_identity_traces(self, chart3):
        invariants = trace_invariants(Tensor11.identity(chart3), 4)
        for k, h in enumerate(invariants, start=1):
            assert h == chart3.constant(Fraction(chart3.n, k))

    def test_momentum_tensor_traces(self, chart2):
        invariants = trace_invariants(canonical_nijenhuis(chart2), 3)
        for k, h in enumerate(invariants, start=1):
            expected = (chart2.p(1) ** k + chart2.p(2) ** k) / k
            assert h == expected

    def test_closed_chain_energy(self):
        bundle = closed_toda(3)
        h1, h2 = trace_invariants(bundle.tensor, 2)
        chart = bundle.chart
        assert h1 == chart.p(1) + chart.p(2) + chart.p(3)
        expected = (
            (chart.p(1) ** 2 + chart.p(2) ** 2 + chart.p(3) ** 2) / 2
            + exp(chart.q(1) - chart.q(2))
            + exp(chart.q(2) - chart.q(3))
            + exp(chart.q(3) - chart.q(1))
        )
        assert h2 == expected

    def test_pair_potential_energy(self):
        bundle = calogero(3)
        chart = bundle.chart
        h2 = trace_invariants(bundle.tensor, 2)[1]
        expected = sum((chart.p(i) ** 2 for i in (1, 2, 3)), chart.zero()) / 2
        for i in (1, 2):
            for j in range(i + 1, 4):
                expected = expected + (chart.q(i) - chart.q(j)) ** -2
        assert h2 == expected

    def test_k_max_validation(self, chart2):
        with pytest.raises(ValueError):
            trace_invariants(Tensor11.identity(chart2), 0)


class TestRecursion:
    def test_momentum_tensor_chain(self, canonical3):
        pi, nc = canonical3
        report = recursion_check(pi, nc, 4)
        assert report.overall
        assert all(e.mode == "symbolic" for e in report.entries)

    def test_depth_defaults_to_particle_count(self, canonical3):
        pi, nc = canonical3
        report = recursion_check(pi, nc)
        assert len(report.entries) == 2  # H1->H2 and H2->H3 on three particles

    def test_open_chain(self):
        bundle = open_toda(2)
        report = recursion_check(bundle.poisson, bundle.tensor, 2)
        assert report.overall

    def test_closed_chain_reports_informational_residuals(self):
        bundle = closed_toda(3)
        report = recursion_check(bundle.poisson, bundle.tensor, 3)
        # quasi-Nijenhuis: the chain is not claimed, entries are informational
        assert len(report.entries) == 2
        for entry in report.entries:
            assert entry.residual >= 0.0


class TestInvolutivity:
    def test_closed_chain_all_zero(self):
        bundle = closed_toda(3)
        invariants = trace_invariants(bundle.tensor, 3)
        matrix = involutivity_matrix(bundle.poisson, invariants)
        assert matrix.all_zero
        assert matrix.nonzero_pairs() == []

    def test_matrix_mirrors_witnesses(self):
        bundle = two_particle_model("(* q1 q2)")
        invariants = trace_invariants(bundle.tensor, 2)
        matrix = involutivity_matrix(bundle.poisson, invariants)
        assert matrix.cell(1, 2) is matrix.cell(2, 1)

    def test_diagonal_is_symbolically_zero(self):
        bundle = calogero(3)
        invariants = trace_invariants(bundle.tensor, 3)
        matrix = involutivity_matrix(bundle.poisson, invariants, CALOGERO_ZERO_TEST)
        for j in range(1, 4):
            assert matrix.cell(j, j).mode == "symbolic"
            assert matrix.cell(j, j).passed

    def test_two_particle_dichotomy(self):
        invariant_bundle = two_particle_model("(exp (+ q1 (* -1 q2)))")
        invariants = trace_invariants(invariant_bundle.tensor, 2)
        assert involutivity_matrix(invariant_bundle.poisson, invariants).all_zero
        generic = two_particle_model("(* q1 q2)")
        invariants = trace_invariants(generic.tensor, 2)
        matrix = involutivity_matrix(generic.poisson, invariants)
        assert (1, 2) in matrix.nonzero_pairs()
        assert matrix.cell(1, 2).residual > 1e-6


class TestNoZeroPartials:
    def test_operators_differentiate_only_along_mentioned_coordinates(self, monkeypatch):
        toda4 = closed_toda(4)
        canonical3, toda3 = canonical_pn(3), closed_toda(3)
        calogero3 = calogero(3)
        calls, zeros = 0, 0
        partial = ScalarField.partial

        def counted(field, index):
            nonlocal calls, zeros
            result = partial(field, index)
            calls += 1
            zeros += result.is_zero_tree
            return result

        monkeypatch.setattr(ScalarField, "partial", counted)
        check_pqn(toda4.structure())
        deform(canonical3.poisson, canonical3.tensor, toda3.omega)
        involutivity_matrix(calogero3.poisson, trace_invariants(calogero3.tensor, 3), CALOGERO_ZERO_TEST)
        assert calls > 0
        assert zeros == 0
