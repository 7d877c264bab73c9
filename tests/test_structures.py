from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from pqncheck.calculus import cartan_d, koszul_bracket
from pqncheck.errors import ChartMismatchError, ConfigError, DegreeError, HypothesisViolationError
from pqncheck.exterior import Bivector, Form, Tensor11, VectorField, _musical_matrix
from pqncheck.models import (
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
from pqncheck import exterior, scalar, structures
from pqncheck.randgen import random_scalar_field
from pqncheck.calculus import differential, poisson_bracket
from pqncheck.scalar import Chart, ScalarField, ZeroTestConfig, exp, parse_prefix
from pqncheck.structures import (
    AxiomCheck,
    GeometricStructure,
    _zero_axiom,
    check_pn,
    check_poisson,
    check_pqn,
    deform,
    deform_to_pn,
    involutivity_matrix,
    recursion_check,
    trace_invariants,
)

from conftest import lagrange_identity, seeded
from reference import exact_value, random_form, random_tensor


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


def _dense_jacobiators(chart: Chart, pairs: dict) -> list[ScalarField]:
    """The reference: the cyclic Jacobi sum of the bracket of ``pairs`` on every coordinate triple."""
    rows = [VectorField(chart, {b: value for (a, b), value in pairs.items() if a == i}) for i in range(chart.dim)]
    return [
        sum((rows[a](pairs[b, c]) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)) if (b, c) in pairs), chart.zero())
        for i, j, k in combinations(range(chart.dim), 3)
    ]


def _random_pairs(chart: Chart, rng, keys, count: int) -> dict:
    keys = list(keys)
    rng.shuffle(keys)
    return {key: random_scalar_field(chart, rng, allow_negative_powers=True) for key in keys[:count]}


def _transposed(terms) -> dict:
    """``{(j, i): value}`` for ``((i, j), value)`` terms: the pairs of a bracket from its raising matrix, or back."""
    return {(j, i): value for (i, j), value in terms}


def _nonzero(fields) -> list[ScalarField]:
    return [field for field in fields if not field.is_zero_tree]


class TestJacobiTriples:
    # _bracket_fields lists only the triples a stored, non-constant entry reaches; the fields
    # it drops are zero polynomials, and the rest keep the ascending order of all triples.
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_bivector_triples_match_the_dense_loop(self, n, seed):
        chart = Chart(n)
        rng = random.Random(seed)
        pi = Bivector.from_upper(chart, _random_pairs(chart, rng, combinations(range(chart.dim), 2), 2 * n))
        pairs = {(i, j): pi.entry(i, j) for i, j in permutations(range(chart.dim), 2)}
        _, jacobiators = structures._bracket_fields(_musical_matrix(pi))
        assert _nonzero(jacobiators) == _nonzero(_dense_jacobiators(chart, pairs))
        assert _nonzero(jacobiators)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_triples_of_pairs_with_diagonal_entries_match_the_dense_loop(self, n, seed):
        # Not antisymmetric, with entries (b, b), as the induced entries are when compatibility-musical fails.
        chart = Chart(n)
        rng = random.Random(seed)
        pairs = _random_pairs(chart, rng, product(range(chart.dim), repeat=2), 3 * chart.dim)
        pairs.update(_random_pairs(chart, rng, [(b, b) for b in range(chart.dim)], n))
        _, jacobiators = structures._bracket_fields(Tensor11(chart, _transposed(pairs.items())))
        assert _nonzero(jacobiators) == _nonzero(_dense_jacobiators(chart, pairs))
        assert _nonzero(jacobiators)

    @pytest.mark.parametrize("index", range(3))
    def test_induced_pairs_of_a_random_tensor_match_the_dense_loop(self, chart2, index):
        raising = _random_tensor_draw(chart2, index) @ _musical_matrix(canonical_poisson(chart2))
        pairs = _transposed(raising.terms())
        assert any(b == c for b, c in pairs)
        _, jacobiators = structures._bracket_fields(raising)
        assert _nonzero(jacobiators) == _nonzero(_dense_jacobiators(chart2, pairs))


def _induced_bivector(pi: Bivector, tensor: Tensor11) -> Bivector:
    """pi_2 = N pi, whose raising map is N o pi_sharp: pi_2^{ab} = sum_k pi^{ak} N^b_k."""
    chart = pi.chart
    rows = [
        [sum((pi.entry(a, k) * tensor.entry(b, k) for k in range(chart.dim)), chart.zero()) for b in range(chart.dim)]
        for a in range(chart.dim)
    ]
    return Bivector(chart, rows)  # checks antisymmetry entry by entry


def _compatibility(pi: Bivector, tensor: Tensor11) -> dict[str, AxiomCheck]:
    """The two compatibility entries of ``check_pn``, by axiom name."""
    report = check_pn(pi, tensor)
    return {axiom: report.entry(axiom) for axiom in ("compatibility-musical", "compatibility-bracket")}


def _compatible(pi: Bivector, tensor: Tensor11) -> bool:
    return all(entry.passed for entry in _compatibility(pi, tensor).values())


class TestCompatibility:
    def test_momentum_tensor_compatible(self, canonical2):
        pi, nc = canonical2
        assert _compatible(pi, nc)

    def test_identity_compatible(self, chart2):
        pi = canonical_poisson(chart2)
        assert _compatible(pi, Tensor11.identity(chart2))

    def test_unpaired_diagonal_term_fails_musical_condition(self, chart2):
        pi = canonical_poisson(chart2)
        entries = [[0] * 4 for _ in range(4)]
        entries[0][0] = chart2.p(1)
        tensor = Tensor11(chart2, entries)
        report = _compatibility(pi, tensor)
        assert not report["compatibility-musical"].passed

    def test_deformed_chain_tensor_compatible(self):
        bundle = closed_toda(3)
        assert _compatible(bundle.poisson, bundle.tensor)

    def test_unpaired_diagonal_bracket_entry_assumes_musical_condition(self, chart2):
        report = _compatibility(canonical_poisson(chart2), _unpaired_diagonal_tensor(chart2))
        assert report["compatibility-bracket"].detail == "assumes compatibility-musical, which failed"

    @pytest.mark.parametrize(
        "diagonal",
        [lambda chart: [chart.p(1)] * 4, lambda chart: [chart.p(2), chart.p(1), chart.p(2), chart.p(1)]],
        ids=["p1-times-identity", "crossed-momenta"],
    )
    def test_bracket_condition_fails_while_musical_condition_holds(self, chart2, diagonal):
        # Each q_i and p_i carry the same diagonal entry, so N commutes with
        # pi_sharp; only the coordinate pairs of the bracket condition see it.
        tensor = Tensor11(chart2, {(i, i): value for i, value in enumerate(diagonal(chart2))})
        report = _compatibility(canonical_poisson(chart2), tensor)
        assert report["compatibility-musical"].passed
        bracket = report["compatibility-bracket"]
        assert not bracket.passed
        assert bracket.detail is None

    def test_induced_bivector_of_the_open_chain_is_compatible(self):
        # pi_2 = N pi is not constant: its entries carry the chain's exp couplings.
        bundle = open_toda(3)
        pi2 = _induced_bivector(bundle.poisson, bundle.tensor)
        assert any(value.variables for _, value in pi2.terms())
        assert _compatible(pi2, bundle.tensor)

    def test_induced_bivector_of_the_closed_chain_fails_the_bracket_condition(self):
        bundle = closed_toda(3)
        report = _compatibility(_induced_bivector(bundle.poisson, bundle.tensor), bundle.tensor)
        assert report["compatibility-musical"].passed
        bracket = report["compatibility-bracket"]
        assert (bracket.passed, bracket.mode, bracket.detail) == (False, "exact", None)
        assert bracket.witness is not None
        assert bracket.residual > 0

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
        report = check_pn(bundle.poisson, bundle.tensor)
        assert report.overall == is_pn
        assert report.entry("compatibility-musical").passed and report.entry("compatibility-bracket").passed


def _failing_entries(report) -> set[str]:
    """The axioms whose entries fail in the report's payload."""
    return {entry["axiom"] for entry in report.as_dict()["entries"] if entry["verdict"] == "fail"}


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

    def test_negated_tensor_entry_fails_torsion_vanishes(self):
        bundle = open_toda(3)
        q1 = bundle.chart.q_index(1)
        tensor = Tensor11(bundle.chart, {key: -v if key == (q1, q1) else v for key, v in bundle.tensor.terms()})
        assert _failing_entries(check_pn(bundle.poisson, tensor)) == {
            "compatibility-musical",
            "compatibility-bracket",
            "torsion-vanishes",
            "induced-bivector-poisson",
        }

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
    # sparse storage of tensors.  Exact evaluation proves the entry nonzero,
    # and its integer form certifies the whole-number witness; only the
    # residual is a float evaluation.
    @pytest.mark.parametrize(
        "build, residual",
        [
            (_unpaired_diagonal_tensor, 13.0),
            (lambda chart: _random_tensor_draw(chart, 0), 3993.0),
            (lambda chart: _random_tensor_draw(chart, 1), 53683.666666666664),
        ],
        ids=["unpaired-diagonal", "random-draw-1", "random-draw-2"],
    )
    def test_failing_induced_bivector_report(self, chart2, build, residual):
        report = check_pn(canonical_poisson(chart2), build(chart2))
        assert report.entry("induced-bivector-poisson").as_dict(chart2) == {
            "axiom": "induced-bivector-poisson",
            "verdict": "fail",
            "mode": "exact",
            "residual": pytest.approx(residual, rel=1e-12),
            "witness": {"q1": 11.0, "q2": 5.0, "p1": 13.0, "p2": 2.0},
            "samples": 1,
        }


class TestExactVerdicts:
    def test_tiny_nonzero_field_fails(self, chart2):
        # Its float value, about 1e-19 on the witness grid, is far below any tolerance.
        entry = _zero_axiom("tiny", [parse_prefix("(* 1/100000000000000000000 q1)", chart2)], ZeroTestConfig())
        assert (entry.passed, entry.mode, entry.samples) == (False, "exact", 1)
        assert entry.residual == 1e-20 * entry.witness[0]

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
        assert (entry.passed, entry.mode, entry.samples) == (False, "exact", 1)
        # Only the field proved nonzero is witnessed, not the exact zero beside it.
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
            # L = 100000 puts the sum base exp(q1) + 1 at degree 100000 in y1 = exp(q1 / L).
            "(+ (exp (* 1/100000 q1)) (^ (+ (exp q1) 1) -1))",
        ],
        ids=["degree-bound", "base-zero-as-a-function", "exp-denominator-lcm"],
    )
    def test_undecided_field_is_a_config_error(self, chart2, text):
        with pytest.raises(ConfigError, match="^field: undecided by the exact zero test"):
            _zero_axiom("field", [parse_prefix(text, chart2)], ZeroTestConfig())

    def test_residual_and_witness_come_from_the_fields_proved_nonzero(self, chart3):
        # The identity is an exact zero whose float residual, about 1e-15, dwarfs the tiny field's.
        tiny = parse_prefix("(* 1/100000000000000000000 q1)", chart3)
        entry = _zero_axiom("x", [tiny, lagrange_identity(chart3)], ZeroTestConfig())
        assert (entry.passed, entry.mode) == (False, "exact")
        assert entry.residual < 1e-18
        assert entry == _zero_axiom("x", [tiny], ZeroTestConfig())

    @pytest.mark.parametrize(
        "config",
        [
            ZeroTestConfig(seed=0),
            ZeroTestConfig(seed=2024),
            ZeroTestConfig(sample_count=1),
            ZeroTestConfig(sample_count=100000),
            ZeroTestConfig(seed=-1),
            ZeroTestConfig(seed=2**70),
            ZeroTestConfig(sample_count=1, seed=1),
            ZeroTestConfig(sample_count=100000, seed=99),
        ],
    )
    def test_exact_zero_ignores_the_sampling_settings(self, config):
        entry = _zero_axiom("identity", [lagrange_identity(Chart(3))], config)
        assert entry == AxiomCheck("identity", True, "exact", 0.0, None, 0, None)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_calogero_cells_are_certificates(self, n):
        bundle = calogero(n)
        matrix = involutivity_matrix(bundle.poisson, trace_invariants(bundle.tensor, n))
        assert {cell.mode for cell in matrix.cells.values()} == {"symbolic", "exact"}
        assert matrix.cell(2, 3).passed and matrix.cell(2, 3).mode == "exact"


class TestExactWitness:
    @pytest.mark.parametrize("n", [4, 5])
    def test_calogero_witnesses_are_exact(self, n):
        bundle = calogero(n)
        invariants = trace_invariants(bundle.tensor, n)
        matrix = involutivity_matrix(bundle.poisson, invariants)
        assert matrix.nonzero_pairs()
        for j, k in matrix.nonzero_pairs():
            cell = matrix.cell(j, k)
            bracket = poisson_bracket(bundle.poisson, differential(invariants[j - 1]), differential(invariants[k - 1]))
            assert all(value.is_integer() for value in cell.witness.values)
            value = exact_value(bracket, cell.witness)
            assert value != 0
            assert cell.residual == float(abs(value))
            assert 1 <= cell.samples <= ZeroTestConfig().sample_count

    @pytest.mark.parametrize(
        "text",
        [
            # Zero at every coordinate value the witness grid draws, 1..16.
            "(* " + " ".join(f"(+ q1 -{k})" for k in range(1, 17)) + ")",
            # exp(800) overflows a float, and q1 >= 1 on the grid.
            "(exp (* 800 q1))",
        ],
        ids=["vanishes-on-the-grid", "overflows-on-the-grid"],
    )
    def test_no_witness_on_the_grid_still_fails(self, chart2, text):
        config = ZeroTestConfig(sample_count=20)
        entry = _zero_axiom("field", [parse_prefix(text, chart2)], config)
        assert entry == AxiomCheck("field", False, "exact", 0.0, None, 20, None)

    def test_residual_of_an_exp_free_field_is_its_exact_value(self, chart2):
        # In floats the coefficient is 0.0 and q1^400 overflows from q1 = 6; the exact value is about 3.6e-64.
        field = parse_prefix(f"(* 1/{10**480} (+ (^ q1 400) (* -1 (^ q2 400))))", chart2)
        entry = _zero_axiom("field", [field], ZeroTestConfig())
        assert (entry.passed, entry.samples) == (False, 1)
        assert entry.residual == float(abs(exact_value(field, entry.witness))) > 0

    def test_residual_of_a_field_with_an_exp_is_its_float_value(self, chart2):
        field = parse_prefix("(* 1/3 (exp (* 1/2 q1)) (^ (+ q1 (* -1 q2)) -1))", chart2)
        entry = _zero_axiom("field", [field], ZeroTestConfig())
        assert not entry.passed and entry.witness is not None
        assert entry.residual == abs(field.evaluate(entry.witness)) > 0

    def test_residual_that_rounds_to_zero_is_no_witness(self):
        # exp(q1) / 10^400 is nonzero, but 0.0 in floats at every grid point.
        field = parse_prefix(f"(* 1/{10**400} (exp q1))", Chart(1))
        config = ZeroTestConfig()
        entry = _zero_axiom("field", [field], config)
        assert entry == AxiomCheck("field", False, "exact", 0.0, None, config.sample_count, None)

    def test_worst_field_supplies_residual_witness_and_samples(self, chart2):
        small, large = parse_prefix("q1", chart2), parse_prefix("(* 1000 q2)", chart2)
        entry = _zero_axiom("pair", [small, large], ZeroTestConfig())
        assert entry == _zero_axiom("pair", [large], ZeroTestConfig())
        assert entry.residual == 1000 * entry.witness[1]

    def test_each_nonzero_field_builds_its_integer_form_once(self, monkeypatch):
        # The witness search evaluates the integer form the exact decision built.
        bundle = calogero(4)
        h = trace_invariants(bundle.tensor, 4)
        brackets = [poisson_bracket(bundle.poisson, h[1], h[3]), poisson_bracket(bundle.poisson, h[2], h[3])]
        builds = {id(f.poly): 0 for f in brackets}  # top-level builds; sum bases are built from other polynomials
        build = scalar._integer_form

        def counted(poly, *args):
            if id(poly) in builds:
                builds[id(poly)] += 1
            return build(poly, *args)

        monkeypatch.setattr(scalar, "_integer_form", counted)
        for bracket in brackets:
            assert not _zero_axiom("bracket", [bracket], ZeroTestConfig()).passed
        assert list(builds.values()) == [1, 1]


class TestCheckPqn:
    def test_closed_chain(self):
        bundle = closed_toda(3)
        report = check_pqn(bundle.structure())
        assert report.overall

    def test_report_dict_echoes_what_the_cli_echoes(self):
        # The library's report dict echoes the same two zero-test settings as the CLI's config.zero_test.
        assert check_pqn(closed_toda(3).structure()).as_dict()["config"] == {"sample_count": 50, "seed": 7}

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

    @pytest.mark.parametrize("scale", [1, 2, -1])
    def test_torsion_identity_fixes_the_scale_of_phi(self, scale):
        # phi = 0 leaves out the raised term pi#(i_{X^Y} phi); 2 phi and -phi keep it with the wrong weight.
        # dN-squared-is-phi-bracket fails with it: its fields are combinations of the torsion identity's.
        bundle = closed_toda(3)
        structure = GeometricStructure(bundle.chart, bundle.poisson, bundle.tensor, bundle.phi() * scale)
        wrong = {"torsion-identity", "dN-squared-is-phi-bracket"}
        assert _failing_entries(check_pqn(structure)) == (set() if scale == 1 else wrong)


@pytest.mark.parametrize(
    "factory, check",
    [
        (closed_toda, lambda bundle: check_pqn(bundle.structure())),
        (open_toda, lambda bundle: check_pn(bundle.poisson, bundle.tensor)),
    ],
    ids=["check_pqn-closed-toda", "check_pn-open-toda"],
)
def test_raising_matrix_and_partials_are_built_once(monkeypatch, factory, check):
    # Every build of a musical matrix or of partial tensors from the model's construction on, by
    # value identity; the list holds each value, so no identity is reused.
    builds = []

    def counting(name):
        build = getattr(exterior, name)
        return lambda value: builds.append((value, name)) or build(value)

    for name in ("_transpose_entries", "_partial_tensors"):
        monkeypatch.setattr(exterior, name, counting(name))
    bundle = factory(4)
    check(bundle)
    per_value = Counter((id(value), name) for value, name in builds)
    assert per_value[id(bundle.poisson), "_transpose_entries"] == 1
    assert per_value[id(bundle.tensor), "_partial_tensors"] == 1
    assert set(per_value.values()) == {1}
    assert len(bundle.tensor.partials()) == bundle.chart.dim


@pytest.mark.parametrize(
    "factory, check",
    [
        (closed_toda, lambda bundle: check_pqn(bundle.structure())),
        (open_toda, lambda bundle: check_pn(bundle.poisson, bundle.tensor)),
    ],
    ids=["check_pqn-closed-toda", "check_pn-open-toda"],
)
def test_tensor_composes_with_the_raising_matrix_once(monkeypatch, factory, check):
    bundle = factory(4)
    raising, matmul = _musical_matrix(bundle.poisson), Tensor11.__matmul__
    right_operands = []

    def counting(left, right):
        right_operands.append(right)
        return matmul(left, right)

    monkeypatch.setattr(Tensor11, "__matmul__", counting)
    check(bundle)
    assert sum(right is raising for right in right_operands) == 1


class TestVerdictFieldOrder:
    """A value's fields reach the zero test in sorted key order, whatever order its terms were stored in."""

    @pytest.fixture
    def tied(self, chart2):
        # q1 - 11 is zero at the first point the witness search tries and 7/5 q2 is not: both reach
        # residual 7, at different points, so the field read first supplies the entry.
        return parse_prefix("(+ q1 -11)", chart2), parse_prefix("(* 7/5 q2)", chart2)

    @pytest.mark.parametrize("kind", ["form", "vector", "tensor"])
    def test_entry_reads_coefficients_in_sorted_key_order(self, chart2, tied, kind):
        a, b = tied
        value = {
            "form": lambda: Form(chart2, 2, {(1, 3): a, (0, 2): b}),
            "vector": lambda: VectorField(chart2, {3: a, 0: b}),
            "tensor": lambda: Tensor11(chart2, {(1, 0): a, (0, 2): b}),
        }[kind]()
        config = ZeroTestConfig()
        entry = _zero_axiom("x", [value], config)
        assert entry == _zero_axiom("x", [value.coeffs[key] for key in sorted(value.coeffs)], config)
        assert entry != _zero_axiom("x", [value.coeffs[key] for key in sorted(value.coeffs, reverse=True)], config)
        rebuilt = value.replace(coeffs=dict(reversed(value.coeffs.items())))
        assert rebuilt == value and list(rebuilt.coeffs) != list(value.coeffs)
        assert _zero_axiom("x", [rebuilt], config) == entry


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

    def test_form_of_another_degree_raises_degree_error(self, canonical2):
        pi, nc = canonical2
        with pytest.raises(DegreeError):
            deform(pi, nc, Form(pi.chart, 3, {(0, 1, 2): pi.chart.p(1)}))

    def test_form_from_another_chart_raises(self, canonical2, chart3):
        pi, nc = canonical2
        with pytest.raises(ChartMismatchError):
            deform(pi, nc, canonical_deformation_form(chart3))

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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("base", ["canonical", "open-toda"])
    def test_exact_form_deforms_a_pn_pair_into_a_pqn_structure(self, base, n):
        # The paper's theorem as an oracle: a PN pair deformed by omega = d theta, theta a random 1-form,
        # passes every entry.  As pi is nondegenerate, doubling a nonzero phi breaks the torsion identity.
        chart, toda = Chart(n), open_toda(n)
        pi, tensor = {
            "canonical": (canonical_poisson(chart), canonical_nijenhuis(chart)),
            "open-toda": (toda.poisson, toda.tensor),
        }[base]
        doubled = 0
        for seed in range(8):
            omega = cartan_d(random_form(chart, 1, seeded(seed), max_terms=2))
            result = deform(pi, tensor, omega)
            assert _failing_entries(result.report) == set(), seed
            if result.classification == "PqN":
                report = check_pqn(GeometricStructure(chart, pi, result.tensor, 2 * result.phi))
                assert "torsion-identity" in _failing_entries(report), seed
                doubled += 1
        assert doubled > 0


class TestDeformToPn:
    def test_closed_chain_returns_to_momentum_tensor(self):
        bundle = closed_toda(3)
        n_hat, report = deform_to_pn(bundle.structure(), -bundle.omega)
        assert n_hat == canonical_nijenhuis(bundle.chart)
        assert report.overall

    def test_form_of_another_degree_raises_degree_error(self):
        bundle = closed_toda(3)
        with pytest.raises(DegreeError):
            deform_to_pn(bundle.structure(), Form(bundle.chart, 3, {(0, 1, 2): bundle.chart.p(1)}))

    def test_form_from_another_chart_raises(self):
        bundle = closed_toda(3)
        with pytest.raises(ChartMismatchError):
            deform_to_pn(bundle.structure(), closed_toda(2).omega)

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
        matrix = involutivity_matrix(bundle.poisson, invariants)
        for j in range(1, 4):
            assert matrix.cell(j, j).mode == "symbolic"
            assert matrix.cell(j, j).passed

    def test_diagonal_cells_are_not_expanded(self, monkeypatch):
        bundle = closed_toda(4)
        invariants = trace_invariants(bundle.tensor, 4)
        calls = []

        def counted(*args):
            calls.append(args)
            return poisson_bracket(*args)

        monkeypatch.setattr(structures, "poisson_bracket", counted)
        matrix = involutivity_matrix(bundle.poisson, invariants)
        assert len(calls) == 6  # the pairs j < k of 4 invariants
        for j in range(1, 5):
            assert matrix.cell(j, j) == AxiomCheck(f"involutivity-H{j}-H{j}", True, "symbolic", 0.0, None, 0)

    def test_an_invariant_on_another_chart_is_refused(self):
        # A lone invariant has no pair to bracket, and is still checked against pi's chart.
        with pytest.raises(ChartMismatchError):
            involutivity_matrix(closed_toda(2).poisson, [Chart(1).q(1)])

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
        involutivity_matrix(calogero3.poisson, trace_invariants(calogero3.tensor, 3))
        assert calls > 0
        assert zeros == 0
