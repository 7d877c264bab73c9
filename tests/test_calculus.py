from __future__ import annotations

from functools import partial
from itertools import combinations, permutations

import pytest

from pqncheck.calculus import (
    cartan_d,
    differential,
    koszul_bracket,
    nijenhuis_d,
    nijenhuis_torsion,
    poisson_bracket,
)
from pqncheck.errors import DegreeError
from pqncheck.exterior import (
    Bivector,
    Form,
    Tensor11,
    VectorField,
    lie_derivative,
    tensor_interior,
    wedge,
)
from pqncheck.models import (
    calogero,
    canonical_nijenhuis,
    canonical_poisson,
    closed_toda,
    open_toda,
    pair_potential_model,
)
from pqncheck.randgen import random_scalar_field
from pqncheck.scalar import Chart, exp, is_zero

from conftest import seeded
from reference import (
    deformed_lie_bracket,
    dq,
    lie_bracket,
    random_form,
    random_tensor,
    random_vector_field,
    torsion_at,
    two_particle_fixture,
)


class TestCartanD:
    def test_coordinate_formula(self, chart2):
        assert cartan_d(Form(chart2, 1, {(0,): chart2.p(1)})) == Form(chart2, 2, {(2, 0): 1})
        assert cartan_d(dq(chart2, 1)).is_zero

    def test_d_squared_zero(self, chart3):
        rng = seeded(21)
        for degree in (0, 1, 2):
            a = random_form(chart3, degree, rng)
            assert cartan_d(cartan_d(a)).is_zero

    def test_potential_one_form_differentiates_to_pair_form(self):
        # d(p2 dp1 - exp(q1 - q2) dq1) is the assembled 2-form of the single exponential pair.
        bundle = pair_potential_model(2, {(1, 2): "(exp x)"})
        chart = bundle.chart
        one_form = Form(chart, 1, {(chart.p_index(1),): chart.p(2), (chart.q_index(1),): -exp(chart.q(1) - chart.q(2))})
        assert cartan_d(one_form) == bundle.omega

    def test_top_degree_differential_vanishes(self, chart2):
        rng = seeded(22)
        a = random_form(chart2, chart2.dim, rng)
        assert cartan_d(a).is_zero


def _tensor_differential_by_definition(tensor: Tensor11, form: Form) -> Form:
    """Independent oracle: the intrinsic alternating-sum formula evaluated on
    coordinate fields, with the deformed bracket supplying the correction
    terms."""
    chart = form.chart
    q = form.degree
    out = {}
    for key in combinations(range(chart.dim), q + 1):
        fields = [VectorField.basis(chart, i) for i in key]
        total = chart.zero()
        for j in range(q + 1):
            rest = fields[:j] + fields[j + 1 :]
            value = form.apply(rest) if q else form.as_scalar()
            sign = -1 if j % 2 else 1
            total = total + sign * lie_derivative(tensor.apply(fields[j]), value)
        for a in range(q + 1):
            for b in range(a + 1, q + 1):
                bracket = deformed_lie_bracket(tensor, fields[a], fields[b])
                rest = [f for idx, f in enumerate(fields) if idx not in (a, b)]
                sign = -1 if (a + b) % 2 else 1
                total = total + sign * form.apply([bracket] + rest)
        out[key] = total
    return Form(chart, q + 1, out)


class TestNijenhuisD:
    def test_identity_reduces_to_cartan(self, chart2):
        rng = seeded(23)
        ident = Tensor11.identity(chart2)
        for degree in (0, 1, 2):
            a = random_form(chart2, degree, rng)
            assert nijenhuis_d(ident, a) == cartan_d(a)

    def test_on_functions_it_is_the_transpose_of_the_differential(self, chart2):
        nc = canonical_nijenhuis(chart2)
        out = nijenhuis_d(nc, Form.from_scalar(chart2.q(1)))
        assert out == Form(chart2, 1, {(0,): chart2.p(1)})
        rng = seeded(24)
        for _ in range(5):
            f = random_scalar_field(chart2, rng)
            assert nijenhuis_d(nc, Form.from_scalar(f)) == tensor_interior(nc, differential(f))

    def test_matches_intrinsic_definition(self, chart2):
        rng = seeded(25)
        for degree in (0, 1, 2):
            n = random_tensor(chart2, rng)
            a = random_form(chart2, degree, rng, allow_exp=False)
            assert nijenhuis_d(n, a) == _tensor_differential_by_definition(n, a)

    def test_anticommutes_with_cartan(self, chart2):
        rng = seeded(26)
        for degree in (0, 1, 2):
            n = random_tensor(chart2, rng)
            a = random_form(chart2, degree, rng)
            total = cartan_d(nijenhuis_d(n, a)) + nijenhuis_d(n, cartan_d(a))
            assert total.is_zero

    def test_two_particle_display(self):
        fixture = two_particle_fixture()
        nc = canonical_nijenhuis(fixture.chart)
        assert nijenhuis_d(nc, fixture.omega) == fixture.d_n_omega

    def test_squares_to_zero_for_torsionless(self, chart3):
        rng = seeded(27)
        nc = canonical_nijenhuis(chart3)
        n_open = open_toda(3).tensor
        for tensor in (Tensor11.identity(chart3), nc, n_open):
            for _ in range(3):
                f = Form.from_scalar(random_scalar_field(chart3, rng))
                assert nijenhuis_d(tensor, nijenhuis_d(tensor, f)).is_zero

    def test_square_is_phi_bracket_for_closed_chain(self):
        bundle = closed_toda(3)
        pi = bundle.poisson
        phi = bundle.expected.phi_closed_form
        rng = seeded(28)
        for _ in range(5):
            f = Form.from_scalar(random_scalar_field(bundle.chart, rng))
            lhs = nijenhuis_d(bundle.tensor, nijenhuis_d(bundle.tensor, f))
            rhs = koszul_bracket(pi, phi, f)
            assert (lhs - rhs).is_zero


class TestTorsion:
    def test_identity_is_torsionless(self, chart2):
        t = nijenhuis_torsion(Tensor11.identity(chart2))
        assert all(v.is_zero for v in t)

    def test_momentum_tensor_is_torsionless(self, chart3):
        t = nijenhuis_torsion(canonical_nijenhuis(chart3))
        assert all(v.is_zero for v in t)

    def test_open_chain_tensor_is_torsionless(self):
        t = nijenhuis_torsion(open_toda(3).tensor)
        assert all(v.is_zero for v in t)

    def test_antisymmetry_of_components(self, chart2):
        n = random_tensor(chart2, seeded(29))
        t = nijenhuis_torsion(n)
        basis = [VectorField.basis(chart2, j) for j in range(chart2.dim)]
        for e_j in basis:
            for e_k in basis:
                total = torsion_at(t, e_j, e_k) + torsion_at(t, e_k, e_j)
                assert all(c.is_zero_tree for c in total.components)

    def test_tensoriality(self, chart2):
        # T(fX, gY) = f g T(X, Y) at sample points
        rng = seeded(30)
        n = random_tensor(chart2, rng)
        t = nijenhuis_torsion(n)
        x = random_vector_field(chart2, rng)
        y = random_vector_field(chart2, rng)
        f = random_scalar_field(chart2, rng)
        g = random_scalar_field(chart2, rng)
        lhs = torsion_at(t, x * f, y * g)
        rhs = torsion_at(t, x, y) * (f * g)
        for a, b in zip(lhs.components, rhs.components):
            diff = a - b
            assert diff.is_zero_tree

    def test_evaluator_matches_direct_formula(self, chart2):
        rng = seeded(31)
        # A random tensor, and closed Toda's n = 3 tensor: exp entries and nonzero torsion.
        toda = closed_toda(3).tensor
        assert not all(v.is_zero for v in nijenhuis_torsion(toda))
        for n in (random_tensor(chart2, rng), toda):
            t = nijenhuis_torsion(n)
            x = random_vector_field(n.chart, rng)
            y = random_vector_field(n.chart, rng)
            direct = (
                lie_bracket(n.apply(x), n.apply(y))
                - n.apply(lie_bracket(n.apply(x), y))
                - n.apply(lie_bracket(x, n.apply(y)))
                + n.apply(n.apply(lie_bracket(x, y)))
            )
            evaluated = torsion_at(t, x, y)
            assert not direct.is_zero
            for a, b in zip(evaluated.components, direct.components):
                assert (a - b).is_zero_tree


def _random_pqn_inputs(chart: Chart, rng) -> tuple[Tensor11, Bivector, Form]:
    """A random (1,1) tensor, bivector (seldom Poisson) and 3-form, with exp terms and negative powers."""
    draw = partial(random_scalar_field, chart, rng, max_terms=2, allow_negative_powers=True)
    pairs = [(i, j) for i in range(chart.dim) for j in range(chart.dim)]
    tensor = Tensor11(chart, {key: draw() for key in pairs if rng.random() < 0.4})
    pi = Bivector.from_upper(chart, {key: draw() for key in combinations(range(chart.dim), 2) if rng.random() < 0.5})
    phi = Form(chart, 3, {key: draw() for key in combinations(range(chart.dim), 3) if rng.random() < 0.3})
    return tensor, pi, phi


def _coordinates(chart: Chart) -> list[Form]:
    return [Form.from_scalar(chart.coordinate(i)) for i in range(chart.dim)]


class TestTorsionIdentities:
    """The identities the torsion entries rest on, by exact equality of the canonical polynomials.

    (a) The component T^i of the torsion is d_N^2 x_i.  (b) d_N^2 f - [phi, f]_pi is
    sum_i (d_i f) (T^i - [phi, x_i]_pi), for any pi and phi: the fields of check_pqn's
    dN-squared-is-phi-bracket entry are combinations of those of its torsion-identity entry.
    """

    @staticmethod
    def _assert_components_are_the_square(tensor: Tensor11) -> None:
        torsion = nijenhuis_torsion(tensor)
        assert len(torsion) == tensor.chart.dim
        for t, x in zip(torsion, _coordinates(tensor.chart)):
            assert t == nijenhuis_d(tensor, nijenhuis_d(tensor, x))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_components_are_the_square_of_the_tensor_differential(self, n, seed):
        tensor, _, _ = _random_pqn_inputs(Chart(n), seeded(60 + seed))
        assert not all(t.is_zero for t in nijenhuis_torsion(tensor))
        self._assert_components_are_the_square(tensor)

    @pytest.mark.parametrize("factory", [closed_toda, open_toda, calogero])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_model_components_are_the_square_of_the_tensor_differential(self, factory, n):
        self._assert_components_are_the_square(factory(n).tensor)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_square_minus_phi_bracket_is_the_torsion_identity_along_df(self, n, seed):
        chart = Chart(n)
        rng = seeded(70 + seed)
        tensor, pi, phi = _random_pqn_inputs(chart, rng)
        # times a coordinate, so that f is never constant
        f = random_scalar_field(chart, rng, allow_negative_powers=True) * chart.coordinate(rng.randrange(chart.dim))
        f_form = Form.from_scalar(f)
        lhs = nijenhuis_d(tensor, nijenhuis_d(tensor, f_form)) - koszul_bracket(pi, phi, f_form)
        defects = [t - koszul_bracket(pi, phi, x) for t, x in zip(nijenhuis_torsion(tensor), _coordinates(chart))]
        rhs = sum((defect * f.partial(i) for i, defect in enumerate(defects)), Form.zero(chart, 2))
        assert not lhs.is_zero
        assert lhs == rhs


class TestDeformedBracket:
    def test_identity_gives_plain_bracket(self, chart2):
        rng = seeded(32)
        x = random_vector_field(chart2, rng)
        y = random_vector_field(chart2, rng)
        assert deformed_lie_bracket(Tensor11.identity(chart2), x, y) == lie_bracket(x, y)

    def test_zero_tensor_gives_zero(self, chart2):
        rng = seeded(33)
        x = random_vector_field(chart2, rng)
        y = random_vector_field(chart2, rng)
        assert deformed_lie_bracket(Tensor11.zero(chart2), x, y).is_zero

    def test_momentum_tensor_coordinate_pair(self, chart2):
        nc = canonical_nijenhuis(chart2)
        out = deformed_lie_bracket(nc, VectorField.basis(chart2, 0), VectorField.basis(chart2, 2))
        assert out == -VectorField.basis(chart2, 0)

    def test_against_numeric_expansion(self, chart2):
        # oracle: evaluate the three Lie brackets by finite differences of the
        # component functions at random points
        rng = seeded(34)
        n = random_tensor(chart2, rng, allow_exp=True)
        x = random_vector_field(chart2, rng)
        y = random_vector_field(chart2, rng)
        symbolic = deformed_lie_bracket(n, x, y)
        h = 1e-5
        for _ in range(20):
            point = [rng.uniform(-1.2, 1.2) for _ in range(chart2.dim)]

            def numeric_bracket_component(a, b, i):
                total = 0.0
                for j in range(chart2.dim):
                    up = list(point)
                    dn = list(point)
                    up[j] += h
                    dn[j] -= h
                    da = (a.components[i].evaluate(up) - a.components[i].evaluate(dn)) / (2 * h)
                    db = (b.components[i].evaluate(up) - b.components[i].evaluate(dn)) / (2 * h)
                    total += a.components[j].evaluate(point) * db - b.components[j].evaluate(point) * da
                return total

            nx = n.apply(x)
            ny = n.apply(y)
            for i in range(chart2.dim):
                expected = numeric_bracket_component(x, ny, i) + numeric_bracket_component(nx, y, i)
                correction = 0.0
                for j in range(chart2.dim):
                    entry = n.entries[i][j]
                    if not entry.is_zero_tree:
                        correction += entry.evaluate(point) * numeric_bracket_component(x, y, j)
                expected -= correction
                assert symbolic.components[i].evaluate(point) == pytest.approx(expected, rel=1e-4, abs=1e-4)


class TestPoissonBracket:
    def test_canonical_pairs(self, chart2):
        pi = canonical_poisson(chart2)
        assert poisson_bracket(pi, chart2.p(1), chart2.q(1)) == 1
        assert poisson_bracket(pi, chart2.q(1), chart2.p(1)) == -1
        assert poisson_bracket(pi, chart2.p(1), chart2.q(2)).is_zero_tree

    def test_self_bracket_vanishes(self, chart2):
        pi = canonical_poisson(chart2)
        f = random_scalar_field(chart2, seeded(35))
        assert poisson_bracket(pi, f, f).is_zero_tree

    def test_antisymmetry_and_leibniz(self, chart2):
        pi = canonical_poisson(chart2)
        rng = seeded(36)
        f = random_scalar_field(chart2, rng)
        g = random_scalar_field(chart2, rng)
        h = random_scalar_field(chart2, rng)
        assert poisson_bracket(pi, f, g) == -poisson_bracket(pi, g, f)
        lhs = poisson_bracket(pi, f, g * h)
        rhs = poisson_bracket(pi, f, g) * h + g * poisson_bracket(pi, f, h)
        assert (lhs - rhs).is_zero_tree

    def test_differentials_stand_in_for_functions(self):
        bundle = closed_toda(3)
        rng = seeded(37)
        f = random_scalar_field(bundle.chart, rng)
        g = random_scalar_field(bundle.chart, rng)
        pi = bundle.poisson
        expected = poisson_bracket(pi, f, g)
        assert poisson_bracket(pi, differential(f), g) == expected
        assert poisson_bracket(pi, f, differential(g)) == expected
        assert poisson_bracket(pi, differential(f), differential(g)) == expected
        with pytest.raises(DegreeError):
            poisson_bracket(pi, cartan_d(dq(bundle.chart, 1) * f), g)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_non_canonical_bivector_matches_the_reference_sum(self, n, seed):
        # The other cases use canonical pi: constant entries on the (q_i, p_i) pairs only.  A random
        # pi with a non-constant entry on every pair checks each entry's indices against the sum.
        chart = Chart(n)
        rng = seeded(41 + seed)
        draw = partial(random_scalar_field, chart, rng, allow_negative_powers=True)
        pi = Bivector.from_upper(chart, {key: draw() for key in combinations(range(chart.dim), 2)})
        f, g = draw(), draw()
        pairs = permutations(range(chart.dim), 2)
        expected = sum((pi.entry(i, j) * f.partial(i) * g.partial(j) for i, j in pairs), chart.zero())
        assert not expected.is_zero_tree
        assert poisson_bracket(pi, f, g) == expected
        assert poisson_bracket(pi, differential(f), differential(g)) == expected

    def test_total_momentum_commutes_with_pair_hamiltonians(self):
        # The deformed tensor depends only on coordinate differences, so the
        # first trace commutes with every other one.
        from pqncheck.structures import trace_invariants

        bundle = calogero(3)
        invariants = trace_invariants(bundle.tensor, 3)
        pi = bundle.poisson
        for k in (1, 2):
            bracket = poisson_bracket(pi, invariants[0], invariants[k])
            assert bracket.is_zero_tree or is_zero(bracket).passed

    def test_energy_pair_is_involutive_for_closed_chain(self):
        from pqncheck.structures import trace_invariants

        bundle = closed_toda(3)
        invariants = trace_invariants(bundle.tensor, 3)
        bracket = poisson_bracket(bundle.poisson, invariants[1], invariants[2])
        assert is_zero(bracket).passed
