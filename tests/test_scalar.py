from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pqncheck.errors import (
    ChartMismatchError,
    ConfigError,
    DegenerateDomainError,
    EvaluationOverflowError,
    UnsupportedExpressionError,
)
from pqncheck import scalar
from pqncheck.scalar import (
    AxiomCheck,
    Chart,
    Const,
    Coord,
    Exp,
    Point,
    Power,
    Product,
    ScalarField,
    Sum,
    ZeroTestConfig,
    exact_zero,
    exp,
    is_zero,
    parse_prefix,
    sample_points,
    to_prefix,
)

from conftest import fd_partial, lagrange_identity, seeded


class TestChart:
    def test_dimensions_and_names(self):
        chart = Chart(3)
        assert chart.dim == 6
        assert chart.coordinate_names() == ["q1", "q2", "q3", "p1", "p2", "p3"]
        assert chart.q_index(1) == 0
        assert chart.p_index(3) == 5

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Chart(0)
        with pytest.raises(ValueError, match="too large"):
            Chart(10**20)  # its 2n coordinates cannot be indexed

    def test_point_validation(self):
        with pytest.raises(ValueError):
            Point((1.0, float("inf")))
        labelled = Point((1.0, 2.0, 3.0, 4.0)).labelled(Chart(2))
        assert labelled == {"q1": 1.0, "q2": 2.0, "p1": 3.0, "p2": 4.0}


class TestEvaluate:
    def test_polynomial(self):
        chart = Chart(2)
        f = chart.p(1) ** 2
        assert f.evaluate([0, 0, 3, 0]) == 9

    def test_exp_of_zero(self):
        chart = Chart(2)
        f = exp(chart.q(1) - chart.q(2))
        assert f.evaluate([1.3, 1.3, 0, 0]) == 1.0

    def test_closed_chain_energy_at_unit_momenta(self):
        # 1/2 sum p_i^2 + nearest-neighbour exponentials + wrap term, at
        # p = (1,..,1) and all q equal: n/2 + n.
        for n in (2, 3, 4):
            chart = Chart(n)
            h2 = sum((chart.p(i) ** 2 for i in range(1, n + 1)), chart.zero()) / 2
            for i in range(1, n):
                h2 = h2 + exp(chart.q(i) - chart.q(i + 1))
            h2 = h2 + exp(chart.q(n) - chart.q(1))
            point = [0.4] * n + [1.0] * n
            assert h2.evaluate(point) == pytest.approx(n / 2 + n, rel=1e-12)

    def test_overflow_names_node(self):
        chart = Chart(1)
        f = exp(1000 * chart.q(1))
        with pytest.raises(EvaluationOverflowError) as err:
            f.evaluate([2.0, 0.0])
        assert "exp" in str(err.value)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("(+ (* q1 p1) (* -1 q2 p2))", 1e200),  # inf - inf in the top-level sum
            ("(+ q1 q2)", 1.7e308),  # intermediate overflow in the top-level sum
            ("(^ (+ q1 (* q2 p1) (* -1 q2 p2)) -1)", 1e200),  # inf - inf inside a sum base
            (str(10**400), 0.0),  # a constant too large for a float
            (f"(+ q1 {10**400})", 0.0),
        ],
    )
    def test_every_float_failure_is_an_overflow_error(self, text, value):
        with pytest.raises(EvaluationOverflowError):
            parse_prefix(text, Chart(2)).evaluate([value] * 4)

    def test_failure_names_the_failing_node(self):
        chart = Chart(2)
        f = chart.p(1) + (chart.q(1) - chart.q(2)) ** -2
        with pytest.raises(EvaluationOverflowError) as err:
            f.evaluate([1.0, 1.0, 0.0, 0.0])
        assert err.value.node == Power((chart.q(1) - chart.q(2)).root, -2)
        assert "(^ (+ q1 (* -1 q2)) -2)" in str(err.value)

    def test_wrong_dimension(self):
        chart = Chart(2)
        with pytest.raises(ChartMismatchError):
            chart.q(1).evaluate([1.0, 2.0])

    def test_term_scale_checks_the_dimension(self):
        with pytest.raises(ChartMismatchError):
            Chart(2).q(1).term_scale([1.0, 2.0])

    def test_deterministic(self):
        chart = Chart(2)
        f = exp(chart.q(1)) * chart.p(2) ** 3 - (chart.q(1) - chart.q(2)) ** -1
        point = [0.3, -0.8, 1.1, 0.5]
        assert f.evaluate(point) == f.evaluate(point)


class TestPartial:
    def test_exp_fixed_point(self):
        chart = Chart(2)
        f = exp(chart.q(1) - chart.q(2))
        assert f.partial(0) == f
        assert f.partial(1) == -f

    def test_power_rule(self):
        chart = Chart(1)
        assert (chart.p(1) ** 2).partial(1) == 2 * chart.p(1)

    def test_inverse_square_derivative(self):
        chart = Chart(2)
        f = (chart.q(1) - chart.q(2)) ** -2
        df = f.partial(1)
        assert df == 2 * (chart.q(1) - chart.q(2)) ** -3
        rng = seeded(5)
        for _ in range(10):
            point = [rng.uniform(-2, 2) for _ in range(4)]
            if abs(point[0] - point[1]) < 0.5:
                point[1] = point[0] - 1.0
            assert df.evaluate(point) == pytest.approx(fd_partial(f, point, 1), rel=1e-6)

    def test_mixed_partials_commute_structurally(self):
        chart = Chart(2)
        rng = seeded(11)
        from pqncheck.randgen import random_scalar_field

        for _ in range(15):
            f = random_scalar_field(chart, rng, allow_negative_powers=True)
            for i in range(chart.dim):
                for j in range(i + 1, chart.dim):
                    assert f.partial(i).partial(j) == f.partial(j).partial(i)

    def test_linearity_and_leibniz_structurally(self):
        chart = Chart(2)
        rng = seeded(12)
        from pqncheck.randgen import random_scalar_field

        for _ in range(15):
            a = random_scalar_field(chart, rng)
            b = random_scalar_field(chart, rng)
            for i in range(chart.dim):
                assert (a + b).partial(i) == a.partial(i) + b.partial(i)
                assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)

    def test_derivative_matches_finite_differences(self):
        chart = Chart(2)
        rng = seeded(13)
        from pqncheck.randgen import random_scalar_field

        for _ in range(10):
            f = random_scalar_field(chart, rng)
            point = [rng.uniform(-1.5, 1.5) for _ in range(chart.dim)]
            for i in range(chart.dim):
                expected = fd_partial(f, point, i)
                actual = f.partial(i).evaluate(point)
                assert actual == pytest.approx(expected, rel=1e-5, abs=1e-7)


# hypothesis strategy for raw (unnormalized) trees over a fixed small chart
_DIM = 4


def _read(tree, chart=Chart(2)):
    """The field a raw tree denotes, read from its prefix text: trees are not an input of the ring."""
    return parse_prefix(to_prefix(tree, chart), chart)


def _affine(draw):
    terms = [Const(Fraction(draw(st.integers(-2, 2))))]
    for _ in range(draw(st.integers(1, 2))):
        coeff = draw(st.integers(-2, 2))
        terms.append(Product((Const(Fraction(coeff)), Coord(draw(st.integers(0, _DIM - 1))))))
    return Sum(tuple(terms))


@st.composite
def raw_trees(draw, depth=3):
    if depth == 0:
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            return Const(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
        return Coord(draw(st.integers(0, _DIM - 1)))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Sum(tuple(draw(raw_trees(depth=depth - 1)) for _ in range(draw(st.integers(1, 3)))))
    if kind == 1:
        return Product(tuple(draw(raw_trees(depth=depth - 1)) for _ in range(draw(st.integers(1, 3)))))
    if kind == 2:
        base = draw(raw_trees(depth=depth - 1))
        return Power(base, draw(st.integers(1, 3)))
    if kind == 3:
        return Exp(_affine(draw))
    return draw(raw_trees(depth=0))


class TestNormalization:
    @given(raw_trees())
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, tree):
        once = _read(tree)
        assert _read(once.root).root == once.root

    @given(raw_trees())
    @settings(max_examples=100, deadline=None)
    def test_normalization_preserves_value(self, tree):
        field = _read(tree)
        point = [0.37, -0.61, 0.93, -1.17]
        raw = _eval_raw(tree, point)
        assert field.evaluate(point) == pytest.approx(raw, rel=1e-9, abs=1e-9)

    @given(raw_trees(), raw_trees(), st.integers(-1, 2))
    @settings(max_examples=100, deadline=None)
    def test_operators_match_normalized_raw_trees(self, a, b, k):
        f, g = _read(a), _read(b)
        cases = [
            (f + g, Sum((a, b))),
            (f - g, Sum((a, Product((Const(Fraction(-1)), b))))),
            (f * g, Product((a, b))),
        ]
        if k >= 0 or not f.is_zero_tree:
            cases.append((f**k, Power(a, k)))
        point = [0.37, -0.61, 0.93, -1.17]
        for result, raw in cases:
            expected = _read(raw)
            assert result.root == expected.root
            assert result.evaluate(point) == expected.evaluate(point)
            assert result.term_scale(point) == expected.term_scale(point)

    @given(raw_trees(), raw_trees(), st.integers(-2, 2), st.integers(0, _DIM - 1))
    @settings(max_examples=100, deadline=None)
    def test_integral_coefficients_are_ints(self, a, b, k, index):
        chart = Chart(2)
        f, g = _read(a, chart), _read(b, chart)
        results = [f, g, f + g, f - g, f * g, f.partial(index), f - f, ScalarField(chart, Fraction(6, 3))]
        if k >= 0 or not f.is_zero_tree:
            results.append(f**k)
        for field in results:
            for coeff in field.poly.values():
                assert type(coeff) in (int, Fraction)
                assert (type(coeff) is int) == (Fraction(coeff).denominator == 1)
            assert field.constant_value is None or type(field.constant_value) is Fraction
        assert type((f - f).constant_value) is Fraction

    def test_structural_identities(self):
        chart = Chart(2)
        q1, q2, p1 = chart.q(1), chart.q(2), chart.p(1)
        assert ((q1 + q2) ** 2 - q1**2 - 2 * q1 * q2 - q2**2).is_zero_tree
        assert (exp(q1) * exp(q2)) == exp(q1 + q2)
        assert exp(chart.zero()) == chart.one()
        assert (exp(q1) ** -2) == exp(-2 * q1)
        assert ((2 * q1 - 2 * q2) ** -2) == ((q1 - q2) ** -2) / 4
        assert (p1 - p1).is_zero_tree

    @given(raw_trees())
    @settings(max_examples=100, deadline=None)
    def test_partials_vanish_off_the_variables(self, tree):
        chart = Chart(2)
        field = _read(tree, chart)
        # f**-1 of a sum adds a negative-power sum base
        for f in [field] if field.is_zero_tree else [field, field**-1]:
            assert list(f.variables) == sorted(set(f.variables))
            for i in range(chart.dim):
                if i not in f.variables:
                    assert f.partial(i).is_zero_tree

    def test_out_of_range_coordinate_inside_a_base_rejected(self):
        chart = Chart(1)
        for text in ("(exp q2)", "(^ (+ q1 p2) -1)"):
            with pytest.raises(UnsupportedExpressionError, match="no coordinate"):
                parse_prefix(text, chart)

    def test_a_tree_is_not_an_input(self):
        # Fields come from ring operations; a tree is only printed and walked.
        with pytest.raises(TypeError):
            ScalarField(Chart(1), Exp(Coord(0)))
        with pytest.raises(TypeError):
            Chart(1).q(1) + Coord(0)

    def test_exp_argument_must_be_affine(self):
        chart = Chart(1)
        with pytest.raises(UnsupportedExpressionError, match=r"got \(\* q1 p1\)$"):
            exp(chart.q(1) * chart.p(1))
        with pytest.raises(UnsupportedExpressionError):
            exp((chart.q(1)) ** 2)

    def test_negative_power_expands_the_monomials_sum_bases(self):
        # 1/(q1 + q2) turned into (q1 + q2)^2 by the outer power -2
        chart = Chart(2)
        left = parse_prefix("(^ (* q1 (^ (+ q1 q2) -1)) -2)", chart)
        assert left == parse_prefix("(* (^ (+ q1 q2) 2) (^ q1 -2))", chart)
        assert left == (chart.q(1) + chart.q(2)) ** 2 / chart.q(1) ** 2

    def test_negative_power_of_zero_rejected(self):
        chart = Chart(1)
        with pytest.raises(UnsupportedExpressionError):
            chart.zero() ** -1

    def test_atoms_resolve_to_fields(self):
        # An atom reads as the field resolve gives it, here x as q1 - p1, as a pair potential's x is read.
        chart = Chart(1)
        x = chart.q(1) - chart.p(1)
        assert scalar._parse("(^ x -2)", chart, {"x": x}.__getitem__) == x**-2


def _eval_raw(tree, values):
    if isinstance(tree, Const):
        return float(tree.value)
    if isinstance(tree, Coord):
        return values[tree.index]
    if isinstance(tree, Sum):
        return sum(_eval_raw(t, values) for t in tree.terms)
    if isinstance(tree, Product):
        out = 1.0
        for f in tree.factors:
            out *= _eval_raw(f, values)
        return out
    if isinstance(tree, Power):
        return _eval_raw(tree.base, values) ** tree.exponent
    if isinstance(tree, Exp):
        return math.exp(_eval_raw(tree.argument, values))
    raise TypeError(tree)


# A node-by-node walk of the canonical tree: the reference for float evaluation.
def _eval_node(node, values):
    if isinstance(node, Const):
        return float(node.value)
    if isinstance(node, Coord):
        return values[node.index]
    if isinstance(node, Sum):
        return math.fsum(_eval_node(t, values) for t in node.terms)
    if isinstance(node, Product):
        out = 1.0
        for f in node.factors:
            out *= _eval_node(f, values)
        return out
    if isinstance(node, Power):
        base = _eval_node(node.base, values)
        try:
            return base**node.exponent
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvaluationOverflowError(
                f"power evaluation failed at node {to_prefix(node)}: {exc}", node=node
            ) from exc
    if isinstance(node, Exp):
        arg = _eval_node(node.argument, values)
        try:
            return math.exp(arg)
        except OverflowError as exc:
            raise EvaluationOverflowError(
                f"exp overflow at node {to_prefix(node)}", node=node
            ) from exc
    raise TypeError(f"not an expression node: {node!r}")


def _reference_evaluate(field, values):
    result = _eval_node(field.root, values)
    if not math.isfinite(result):
        raise EvaluationOverflowError("non-finite value")
    return result


def _reference_term_scale(field, values):
    if isinstance(field.root, Sum):
        return math.fsum(abs(_eval_node(t, values)) for t in field.root.terms)
    return abs(_eval_node(field.root, values))


_FAILED = "failed"


def _outcome(compute, field, values, failures):
    """The bytes of the float result, so the sign of zero counts, or _FAILED."""
    try:
        return struct.pack("<d", compute(field, values))
    except failures:
        return _FAILED


def _assert_matches_tree_walk(field, values) -> bool:
    """Evaluation and the tree walk agree bit for bit, or both fail; True when they fail."""
    outcomes = []
    for computed, reference in ((ScalarField.evaluate, _reference_evaluate), (ScalarField.term_scale, _reference_term_scale)):
        # The reference walk leaks raw fsum and float-conversion errors; evaluation
        # must turn every float failure into EvaluationOverflowError.
        expected = _outcome(reference, field, values, (EvaluationOverflowError, OverflowError, ValueError))
        assert _outcome(computed, field, values, EvaluationOverflowError) == expected, (field, values)
        outcomes.append(expected)
    return outcomes[0] == _FAILED


@st.composite
def _fields(draw):
    """Raw trees, and their inverse and inverse square, whose sums become negative-power bases."""
    field = _read(draw(raw_trees()))
    exponent = draw(st.sampled_from([1, -1, -2]))
    assume(exponent > 0 or not field.is_zero_tree)
    return field**exponent


_points = st.lists(st.floats(-3, 3), min_size=_DIM, max_size=_DIM)
_huge_points = st.lists(st.sampled_from([-1.7e308, -1e200, 1e150, 1e200, 1.7e308]), min_size=_DIM, max_size=_DIM)


@pytest.fixture(scope="module")
def calogero4_nonzero_brackets():
    """The brackets {H2, H4} and {H3, H4} of Calogero n=4, the two that are nonzero."""
    from pqncheck.calculus import poisson_bracket
    from pqncheck.models import calogero
    from pqncheck.structures import trace_invariants

    bundle = calogero(4)
    h = trace_invariants(bundle.tensor, 4)
    return [poisson_bracket(bundle.poisson, h[1], h[3]), poisson_bracket(bundle.poisson, h[2], h[3])]


def _model_fields():
    from pqncheck.calculus import poisson_bracket
    from pqncheck.models import calogero, closed_toda
    from pqncheck.structures import trace_invariants

    cal = calogero(3)
    invariants = trace_invariants(cal.tensor, 3)
    brackets = [poisson_bracket(cal.poisson, a, b) for i, a in enumerate(invariants) for b in invariants[i:]]
    toda = closed_toda(3)
    return [*invariants, *brackets, *trace_invariants(toda.tensor, 3)]


class TestPolynomialEvaluation:
    @given(_fields(), _points)
    @settings(max_examples=300, deadline=None)
    def test_matches_tree_walk_bit_for_bit(self, field, point):
        _assert_matches_tree_walk(field, point)

    @given(_fields(), _huge_points)
    @settings(max_examples=150, deadline=None)
    def test_huge_points_fail_as_the_tree_walk_does(self, field, point):
        _assert_matches_tree_walk(field, point)

    def test_model_invariants_and_brackets(self):
        fields = _model_fields()
        assert sum(not f.is_zero_tree for f in fields) > 6
        rng = random.Random(8)
        for field in fields:
            for _ in range(20):
                point = [rng.uniform(-2, 2) for _ in range(field.chart.dim)]
                assert not _assert_matches_tree_walk(field, point)
        huge = [1e200 * (i + 1) * (-1) ** i for i in range(6)]
        # H2 and H3 of both models overflow there; the others stay finite.
        assert sum(_assert_matches_tree_walk(field, huge) for field in fields) == 4

    def test_products_multiply_left_to_right(self):
        # Coefficients that are not powers of two make the product's rounding
        # depend on the order of its factors.
        chart = Chart(2)
        q1, q2, p1 = chart.q(1), chart.q(2), chart.p(1)
        fields = [Fraction(1, 3) * q1 * q2 * p1, Fraction(2, 7) * q1**2 * p1 * (q1 - q2) ** -1 - exp(q2) * p1 / 5]
        rng = random.Random(9)
        for field in fields:
            for _ in range(50):
                assert not _assert_matches_tree_walk(field, [rng.uniform(-2, 2) for _ in range(4)])

    def test_lone_negative_zero_term_keeps_its_sign(self):
        field = -Chart(1).q(1)
        assert struct.pack("<d", field.evaluate([0.0, 1.0])) == struct.pack("<d", -0.0)
        _assert_matches_tree_walk(field, [0.0, 1.0])


class TestZeroTest:
    def test_structural_zero_passes(self):
        chart = Chart(2)
        verdict = is_zero(chart.p(1) - chart.p(1))
        assert verdict == AxiomCheck("is_zero", True, "symbolic", 0.0, None, 0)
        assert verdict

    def test_identity_outside_canonical_form_is_an_exact_zero(self):
        chart = Chart(2)
        q1, q2 = chart.q(1), chart.q(2)
        field = (q1 - q2) ** -1 * (q1 - q2) - 1
        assert not field.is_zero_tree
        assert is_zero(field) == AxiomCheck("is_zero", True, "exact", 0.0, None, 0)

    def test_tiny_nonzero_field_is_not_zero(self):
        # Its float value on the witness grid, about 1e-19, is far below any float tolerance.
        verdict = is_zero(parse_prefix("(* 1/100000000000000000000 q1)", Chart(1)))
        assert verdict == AxiomCheck("is_zero", False, "exact", 1.1e-19, Point((11.0, 5.0)), 1)
        assert not verdict

    def test_undecided_field_is_a_config_error(self):
        # L = 100000 puts the sum base exp(q1) + 1 at degree 100000 in y1 = exp(q1 / L).
        field = parse_prefix("(+ (exp (* 1/100000 q1)) (^ (+ (exp q1) 1) -1))", Chart(1))
        message = r"^is_zero: undecided by the exact zero test: degree bound 200001 is past 2\*\*16$"
        with pytest.raises(ConfigError, match=message):
            is_zero(field)
        with pytest.raises(ConfigError):
            field.is_zero()

    def test_exp_field_is_evaluated_in_floats_before_its_integer_form(self, monkeypatch):
        # exp(800 q1) overflows a float on the whole witness grid, so no point reaches the integer form.
        calls = []
        integer_value = scalar._integer_value
        monkeypatch.setattr(scalar, "_integer_value", lambda *args: calls.append(args) or integer_value(*args))
        verdict = is_zero(parse_prefix("(exp (* 800 q1))", Chart(1)))
        assert verdict == AxiomCheck("is_zero", False, "exact", 0.0, None, 50)
        assert not calls

    def test_far_apart_exp_rates_are_decided(self):
        # L = 100000 puts exp(q1) at degree 100000 in y1 = exp(q1 / L); with no sum base that needs no point.
        field = parse_prefix("(+ (exp (* 1/100000 q1)) (exp q1))", Chart(1))
        verdict = is_zero(field)
        assert not verdict and verdict.samples == 1
        assert all(x.is_integer() for x in verdict.witness.values)
        assert verdict.residual == abs(field.evaluate(verdict.witness)) > 0

    def test_calogero_brackets_match_the_report_entry(self, calogero4_nonzero_brackets):
        from pqncheck.structures import _zero_axiom

        cfg = ZeroTestConfig()
        for field in calogero4_nonzero_brackets:
            verdict = is_zero(field, cfg)
            assert verdict == _zero_axiom("is_zero", [field], cfg)
            assert verdict.mode == "exact"
            assert not verdict and all(value.is_integer() for value in verdict.witness.values)
            assert field.is_zero(cfg) == verdict

    def test_positive_function_fails_with_witness(self):
        chart = Chart(2)
        field = exp(chart.q(1) - chart.q(2))
        verdict = is_zero(field, ZeroTestConfig())
        assert not verdict.passed
        assert all(value.is_integer() for value in verdict.witness.values)
        assert verdict.residual == abs(field.evaluate(verdict.witness)) > 0

    def test_seed_determinism(self):
        chart = Chart(2)
        cfg = ZeroTestConfig(seed=99)
        f = exp(chart.q(1)) - chart.p(2) ** 2
        v1 = is_zero(f, cfg)
        v2 = is_zero(f, cfg)
        assert v1 == v2
        v3 = is_zero(f, ZeroTestConfig(seed=100))
        assert v3.witness != v1.witness

    def test_separation_guard_respected(self):
        chart = Chart(3)
        for point in sample_points(chart, ZeroTestConfig(seed=3), separation=0.3):
            qs = point.values[: chart.n]
            for i in range(chart.n):
                for j in range(i + 1, chart.n):
                    assert abs(qs[i] - qs[j]) >= 0.3

    def test_degenerate_domain(self):
        chart = Chart(3)
        with pytest.raises(DegenerateDomainError):
            sample_points(chart, ZeroTestConfig(), separation=10.0, box_halfwidth=1.0)

    def test_cancellation_scale_tolerance(self):
        # A sum that cancels catastrophically in floats is an exact zero.
        chart = Chart(1)
        big = exp(10 * chart.q(1))
        f = (big + chart.one()) * (big - chart.one()) - big**2 + chart.one()
        assert f.is_zero_tree or is_zero(f).is_zero

    @pytest.mark.parametrize(
        "n, config",
        # Each case is the config and the sampler's keyword arguments.
        [
            (3, (ZeroTestConfig(seed=4, sample_count=300), {"separation": 5e-2})),
            (3, (ZeroTestConfig(seed=5, sample_count=40), {"separation": 0.9})),
            (2, (ZeroTestConfig(seed=6), {"separation": 0, "box_halfwidth": 0.3})),
            (1, (ZeroTestConfig(seed=7), {"box_halfwidth": 1e300})),
        ],
    )
    def test_draws_match_rng_uniform(self, n, config):
        # The sampler's loop written out: one rng.uniform call per coordinate, each candidate kept or redrawn.
        cfg, sampler = config
        rng = random.Random(cfg.seed)
        h, separation = sampler.get("box_halfwidth", 2.0), sampler.get("separation", 1e-2)
        expected = []
        while len(expected) < cfg.sample_count:
            values = [rng.uniform(-h, h) for _ in range(2 * n)]
            qs = values[:n]
            if any(abs(qs[i] - qs[j]) < separation for i in range(n) for j in range(i + 1, n)):
                continue
            expected.append(values)
        points = sample_points(Chart(n), cfg, **sampler)
        assert [p.values for p in points] == [tuple(v) for v in expected]
        assert points == [Point(v) for v in expected]

    def test_degenerate_domain_uses_the_whole_budget(self):
        chart = Chart(2)
        cfg = ZeroTestConfig(sample_count=10, seed=1)
        draws = []
        original = random.Random.random

        def counted(self):
            draws.append(1)
            return original(self)

        random.Random.random = counted
        try:
            with pytest.raises(DegenerateDomainError):
                sample_points(chart, cfg, separation=1.0, box_halfwidth=0.5)
        finally:
            random.Random.random = original
        assert len(draws) == 100 * cfg.sample_count * chart.dim

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ZeroTestConfig(sample_count=0)
        # A seed that is not an int would let random.Random seed itself from the OS, or echo a non-integer.
        for seed in (None, True, 2.5, "7"):
            with pytest.raises(ValueError):
                ZeroTestConfig(seed=seed)
        with pytest.raises(ValueError):
            sample_points(Chart(1), ZeroTestConfig(), separation=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"separation": float("nan")},
            {"separation": float("inf")},
            {"box_halfwidth": 0},
            {"box_halfwidth": -1.0},
            {"box_halfwidth": float("nan")},
            {"box_halfwidth": float("inf")},
            {"box_halfwidth": 1e308},
            {"sample_count": 2.5},
            {"sample_count": True},
        ],
    )
    def test_non_finite_or_empty_ranges_are_rejected(self, kwargs):
        # sample_count is a ZeroTestConfig field; box_halfwidth and separation are sample_points arguments.
        with pytest.raises(ValueError):
            if "sample_count" in kwargs:
                ZeroTestConfig(**kwargs)
            else:
                sample_points(Chart(1), ZeroTestConfig(), **kwargs)


TINY = Fraction(1, 10**20)


class TestExactZero:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_rational_identity_is_an_exact_zero(self, seed):
        field = lagrange_identity(Chart(3))
        assert not field.is_zero_tree
        assert exact_zero(field, seed) is True
        assert exact_zero(field + TINY, seed) is False

    def test_tiny_coefficient_is_nonzero(self):
        assert exact_zero(parse_prefix("(* 1/100000000000000000000 q1)", Chart(1)), 7) is False

    def test_exp_groups_are_decided_one_by_one(self):
        chart = Chart(3)
        identity, q1, q2 = lagrange_identity(chart), chart.q(1), chart.q(2)
        assert exact_zero(identity * q1.exp() + identity * q2.exp(), 7) is True
        assert exact_zero(identity * q1.exp() + TINY * q2.exp(), 7) is False
        # Forms that differ only by a constant are separate groups (Lindemann-Weierstrass).
        assert exact_zero(identity * q1.exp() + identity * (q1 + 1).exp(), 7) is True
        assert exact_zero(q1.exp() - (q1 + 1).exp(), 7) is False

    def test_negative_coordinate_powers_and_fractional_bases(self):
        chart = Chart(2)
        q1, q2 = chart.q(1), chart.q(2)
        partial_fractions = 1 / q1 - 1 / (q1 + q2) - q2 / (q1 * (q1 + q2))
        assert not partial_fractions.is_zero_tree
        assert exact_zero(partial_fractions, 7) is True
        base = q1 + q2 * Fraction(1, 3)
        cancelled = base * base**-1 - 1
        assert not cancelled.is_zero_tree
        assert exact_zero(cancelled, 7) is True
        assert exact_zero(cancelled + TINY * q2, 7) is False

    @pytest.mark.parametrize(
        "base",
        ["(+ (exp q1) 1)", "(+ (^ (+ q1 q2) -1) 1)", "(+ (^ q1 -1) q2)"],
        ids=["exp-in-base", "nested-sum", "negative-power-in-base"],
    )
    def test_bases_once_out_of_reach_are_decided(self, base):
        base = parse_prefix(base, Chart(2))
        assert exact_zero(base**-1, 7) is False
        cancelled = base**-1 * base - 1
        assert not cancelled.is_zero_tree
        assert exact_zero(cancelled, 7) is True
        assert exact_zero(cancelled + TINY * Chart(2).q(1), 7) is False

    @pytest.mark.parametrize(
        "text",
        [
            "(+ (* (exp q1) (^ (+ (exp q1) 1) -1)) (^ (+ (exp q1) 1) -1) -1)",
            "(+ (^ (+ 1 (^ (+ q1 1) -1)) -1) (* -1 (+ q1 1) (^ (+ q1 2) -1)))",
            "(+ (^ (+ (^ q1 -1) 1) -1) (* -1 q1 (^ (+ q1 1) -1)))",
            "(+ (^ (+ 1 (^ (+ (exp q1) 1) -1)) -1) (* -1 (+ (exp q1) 1) (^ (+ (exp q1) 2) -1)))",
            "(+ (^ (exp (* 1/2 q1)) 2) (* -1 (exp q1)))",
            "(+ (* (exp (* 1/2 q1)) (^ (+ (exp (* 1/2 q1)) 1) -1)) (^ (+ (exp (* 1/2 q1)) 1) -1) -1)",
        ],
        ids=["logistic", "nested-sum", "negative-power-in-base", "exp-in-nested-sum", "half-rate", "half-rate-base"],
    )
    def test_identities_across_the_ring(self, text):
        chart = Chart(1)
        field = parse_prefix(text, chart)
        assert exact_zero(field, 7) is True
        assert exact_zero(field + TINY * chart.q(1), 7) is False

    def test_huge_degree_is_undecided(self):
        # Only with a sum base: a field without one is decided from its polynomial at any degree.
        assert exact_zero(parse_prefix("(+ (^ q1 100000) 1)", Chart(1)), 7) is False
        assert exact_zero(parse_prefix("(+ (^ (+ q1 1) -70000) (^ (+ q2 1) -70000))", Chart(2)), 7) is None

    @pytest.mark.parametrize(
        "text",
        ["(^ q1 70000)", "(exp (* 100000 q1))", "(+ (exp (* 1/100000 q1)) (exp q1))"],
        ids=["power", "exp-rate", "exp-denominator-lcm"],
    )
    def test_sum_free_field_is_decided_without_a_point(self, text, monkeypatch):
        def refuse(self, bits):
            raise AssertionError("a point was drawn")

        monkeypatch.setattr(random.Random, "getrandbits", refuse)
        assert exact_zero(parse_prefix(text, Chart(1)), 7) is False

    def test_base_zero_as_a_function_is_undecided_after_bounded_redraws(self, monkeypatch):
        chart = Chart(1)
        zero = parse_prefix("(+ (* (exp q1) (^ (+ (exp q1) 1) -1)) (^ (+ (exp q1) 1) -1) -1)", chart)
        draws = []
        original = random.Random.getrandbits

        def counted(self, bits):
            draws.append(bits)
            return original(self, bits)

        monkeypatch.setattr(random.Random, "getrandbits", counted)
        assert exact_zero(zero**-1, 7) is None
        assert len(draws) == scalar._EXACT_REDRAWS * (2 * chart.dim + 1)


class TestPrefixGrammar:
    def test_roundtrip(self):
        chart = Chart(2)
        f = (chart.p(1) ** 2) / 2 + exp(chart.q(1) - chart.q(2)) * Fraction(3, 7) - (chart.q(1) - chart.q(2)) ** -2
        assert parse_prefix(f.to_prefix(), chart) == f

    def test_plain_tokens(self):
        chart = Chart(2)
        assert parse_prefix("(+ q1 (* -1/2 p2))", chart) == chart.q(1) - chart.p(2) / 2
        assert parse_prefix("(^ (+ q1 (* -1 q2)) -2)", chart) == (chart.q(1) - chart.q(2)) ** -2

    def test_rejects_garbage(self):
        chart = Chart(1)
        for text in ["", "(+ q1", "(/ q1 2)", "(^ q1 1/2)", "(exp q1 q1)", "q9", "(+ q1) extra"]:
            with pytest.raises(UnsupportedExpressionError):
                parse_prefix(text, chart)

    def test_chartless_rendering(self):
        assert to_prefix(Coord(0)) == "x1"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_canonical_text_reads_back_as_the_field(self, n):
        # A pickle holds a field's canonical prefix text, so reading it back must give the field itself.
        from pqncheck.randgen import random_scalar_field

        chart, rng = Chart(n), seeded(n)
        for _ in range(100):
            f, g = (random_scalar_field(chart, rng, allow_negative_powers=True) for _ in range(2))
            fields = [f, f * g, f.partial(rng.randrange(chart.dim))]
            if not g.is_zero_tree:
                fields += [f / g, g**-1]
            for h in fields:
                assert parse_prefix(h.to_prefix(), chart) == h


class TestFieldBasics:
    def test_constants_are_exact(self):
        chart = Chart(1)
        assert (chart.constant(Fraction(1, 3)) * 3).constant_value == 1
        with pytest.raises(TypeError):
            chart.constant(0.5)

    def test_cross_chart_rejected(self):
        f = Chart(1).q(1)
        g = Chart(2).q(1)
        with pytest.raises(ChartMismatchError):
            f + g

    def test_immutability(self):
        f = Chart(1).q(1)
        with pytest.raises(AttributeError):
            f.root = None
