from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pqncheck.errors import (
    ChartMismatchError,
    DegenerateDomainError,
    EvaluationOverflowError,
    UnsupportedExpressionError,
)
from pqncheck.scalar import (
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
    exp,
    is_zero,
    normalize,
    parse_prefix,
    sample_points,
    substitute,
    to_prefix,
)

from conftest import fd_partial, seeded


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

    def test_wrong_dimension(self):
        chart = Chart(2)
        with pytest.raises(ChartMismatchError):
            chart.q(1).evaluate([1.0, 2.0])

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
        once = normalize(tree)
        assert normalize(once) == once

    @given(raw_trees())
    @settings(max_examples=100, deadline=None)
    def test_normalization_preserves_value(self, tree):
        chart = Chart(2)
        field = ScalarField(chart, tree)
        point = [0.37, -0.61, 0.93, -1.17]
        raw = _eval_raw(tree, point)
        assert field.evaluate(point) == pytest.approx(raw, rel=1e-9, abs=1e-9)

    @given(raw_trees(), raw_trees(), st.integers(-1, 2))
    @settings(max_examples=100, deadline=None)
    def test_operators_match_normalized_raw_trees(self, a, b, k):
        chart = Chart(2)
        f, g = ScalarField(chart, a), ScalarField(chart, b)
        cases = [
            (f + g, Sum((a, b))),
            (f - g, Sum((a, Product((Const(Fraction(-1)), b))))),
            (f * g, Product((a, b))),
        ]
        if k >= 0 or not f.is_zero_tree:
            cases.append((f**k, Power(a, k)))
        point = [0.37, -0.61, 0.93, -1.17]
        for result, raw in cases:
            assert result.root == normalize(raw)
            expected = ScalarField(chart, raw)
            assert result.evaluate(point) == expected.evaluate(point)
            assert result.term_scale(point) == expected.term_scale(point)

    def test_structural_identities(self):
        chart = Chart(2)
        q1, q2, p1 = chart.q(1), chart.q(2), chart.p(1)
        assert ((q1 + q2) ** 2 - q1**2 - 2 * q1 * q2 - q2**2).is_zero_tree
        assert (exp(q1) * exp(q2)) == exp(q1 + q2)
        assert exp(chart.zero()) == chart.one()
        assert (exp(q1) ** -2) == exp(-2 * q1)
        assert ((2 * q1 - 2 * q2) ** -2) == ((q1 - q2) ** -2) / 4
        assert (p1 - p1).is_zero_tree

    def test_exp_argument_must_be_affine(self):
        chart = Chart(1)
        with pytest.raises(UnsupportedExpressionError):
            exp(chart.q(1) * chart.p(1))
        with pytest.raises(UnsupportedExpressionError):
            exp((chart.q(1)) ** 2)

    def test_negative_power_of_zero_rejected(self):
        chart = Chart(1)
        with pytest.raises(UnsupportedExpressionError):
            chart.zero() ** -1

    def test_substitute(self):
        tree = Power(Coord(0), -2)
        replaced = substitute(tree, {0: Sum((Coord(0), Product((Const(Fraction(-1)), Coord(1)))))})
        chart = Chart(1)
        assert ScalarField(chart, replaced) == (chart.q(1) - chart.p(1)) ** -2


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


class TestZeroTest:
    def test_structural_zero_passes(self):
        chart = Chart(2)
        verdict = is_zero(chart.p(1) - chart.p(1))
        assert verdict.is_zero
        assert verdict.residual == 0.0

    def test_positive_function_fails_with_witness(self):
        chart = Chart(2)
        cfg = ZeroTestConfig()
        verdict = is_zero(exp(chart.q(1) - chart.q(2)), cfg)
        assert not verdict.is_zero
        assert verdict.witness is not None
        assert verdict.residual >= math.exp(-2 * cfg.box_halfwidth)

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
        cfg = ZeroTestConfig(separation=0.3, seed=3)
        for point in sample_points(chart, cfg):
            qs = point.values[: chart.n]
            for i in range(chart.n):
                for j in range(i + 1, chart.n):
                    assert abs(qs[i] - qs[j]) >= 0.3

    def test_degenerate_domain(self):
        chart = Chart(3)
        cfg = ZeroTestConfig(separation=10.0, box_halfwidth=1.0)
        with pytest.raises(DegenerateDomainError):
            sample_points(chart, cfg)

    def test_cancellation_scale_tolerance(self):
        # A sum that cancels catastrophically still reads as zero because the
        # threshold is relative to the local term scale.
        chart = Chart(1)
        big = exp(10 * chart.q(1))
        f = (big + chart.one()) * (big - chart.one()) - big**2 + chart.one()
        assert f.is_zero_tree or is_zero(f).is_zero

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ZeroTestConfig(sample_count=0)
        with pytest.raises(ValueError):
            ZeroTestConfig(tolerance=0)
        with pytest.raises(ValueError):
            ZeroTestConfig(separation=-1)


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
