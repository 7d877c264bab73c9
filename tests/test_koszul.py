from __future__ import annotations

import pytest

from pqncheck.calculus import (
    cartan_d,
    differential,
    koszul_bracket,
    nijenhuis_d,
    poisson_bracket,
)
from pqncheck.exterior import Bivector, Form, pi_sharp_omega_flat, wedge
from pqncheck.models import (
    canonical_deformation_form,
    canonical_poisson,
    canonical_symplectic,
    closed_toda,
    momentum_symplectic,
)
from pqncheck.randgen import random_scalar_field
from pqncheck.scalar import Chart, exp

from conftest import seeded
from reference import dq, random_form, two_particle_fixture


@pytest.fixture(scope="module")
def pi2():
    return canonical_poisson(Chart(2))


@pytest.fixture(scope="module")
def pi_varying():
    # a non-constant bivector that is not Poisson; graded antisymmetry and the
    # Leibniz rule hold for the bracket of any bivector
    chart = Chart(2)
    q1, q2 = chart.q(1), chart.q(2)
    return Bivector.from_upper(chart, {(0, 1): q1, (0, 2): -1, (1, 3): -1, (2, 3): exp(q2)})


class TestBaseCases:
    def test_functions_bracket_to_zero(self, pi2):
        chart = pi2.chart
        f = Form.from_scalar(chart.q(1) * chart.p(2))
        g = Form.from_scalar(exp(chart.q(2)))
        out = koszul_bracket(pi2, f, g)
        assert out.degree == 0 and out.is_zero

    def test_one_form_against_function_is_the_pairing(self, pi2):
        chart = pi2.chart
        g = chart.q(1) ** 2 * chart.p(2)
        out = koszul_bracket(pi2, dq(chart, 1), Form.from_scalar(g))
        # raising dq1 gives minus the p1 direction, so the pairing is -d_p1 g
        assert out == Form.from_scalar(-g.partial(chart.p_index(1)))
        flipped = koszul_bracket(pi2, Form.from_scalar(g), dq(chart, 1))
        assert flipped == -out

    def test_coordinate_differentials_bracket_via_bivector_entries(self):
        chart = Chart(2)
        q1 = chart.q(1)
        # non-constant bivector: entry pi^{q1 q2} = q1 with canonical momentum part
        entries = {(0, 1): q1, (0, 2): -1, (1, 3): -1}
        pi = Bivector.from_upper(chart, entries)
        out = koszul_bracket(pi, dq(chart, 1), dq(chart, 2))
        assert out == differential(q1)
        assert koszul_bracket(pi, dq(chart, 2), dq(chart, 1)) == -differential(q1)

    def test_differentials_bracket_to_differential_of_bracket(self, pi2):
        chart = pi2.chart
        f = chart.p(1) ** 2
        g = chart.q(1)
        lhs = koszul_bracket(pi2, differential(f), differential(g))
        assert lhs == Form(chart, 1, {(chart.p_index(1),): 2})
        assert lhs == differential(poisson_bracket(pi2, f, g))

    def test_consistency_of_the_pairing_rule(self, pi2):
        # d[dg, f] computed through the pairing rule equals d{g, f}
        chart = pi2.chart
        rng = seeded(40)
        for _ in range(5):
            f = random_scalar_field(chart, rng)
            g = random_scalar_field(chart, rng)
            via_rule = cartan_d(koszul_bracket(pi2, differential(g), Form.from_scalar(f)))
            direct = differential(poisson_bracket(pi2, g, f))
            assert (via_rule - direct).is_zero


class TestPaperDisplays:
    def test_two_particle_self_bracket(self, pi2):
        fixture = two_particle_fixture()
        out = koszul_bracket(pi2, fixture.omega, fixture.omega)
        assert out == fixture.omega_self_bracket

    def test_symplectic_bracket_is_minus_cartan(self, pi2):
        chart = pi2.chart
        omega_c = canonical_symplectic(chart)
        rng = seeded(41)
        for degree in (0, 1, 2):
            a = random_form(chart, degree, rng)
            assert koszul_bracket(pi2, omega_c, a) == -cartan_d(a)

    def test_momentum_symplectic_bracket_is_minus_tensor_differential(self, pi2):
        from pqncheck.models import canonical_nijenhuis

        chart = pi2.chart
        omega_1 = momentum_symplectic(chart)
        nc = canonical_nijenhuis(chart)
        rng = seeded(42)
        for degree in (0, 1, 2):
            a = random_form(chart, degree, rng)
            assert koszul_bracket(pi2, omega_1, a) == -nijenhuis_d(nc, a)

    def test_deformation_form_self_brackets_vanish(self, pi2):
        chart = pi2.chart
        omega_c = canonical_deformation_form(chart)
        assert koszul_bracket(pi2, omega_c, omega_c).is_zero


class TestExtensionAxioms:
    def test_graded_antisymmetry(self, pi2, pi_varying):
        chart = pi2.chart
        rng = seeded(43)
        for pi in (pi2, pi_varying):
            for qa, qb in [(0, 1), (1, 1), (1, 2), (2, 2), (0, 2), (2, 3), (3, 0), (0, 3), (2, 0)]:
                a = random_form(chart, qa, rng)
                b = random_form(chart, qb, rng)
                sign = -1 if ((qa - 1) * (qb - 1)) % 2 == 0 else 1
                assert (koszul_bracket(pi, a, b) - sign * koszul_bracket(pi, b, a)).is_zero

    def test_leibniz_rule(self, pi2, pi_varying):
        chart = pi2.chart
        rng = seeded(44)
        triples = [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 1, 2), (0, 1, 2), (3, 1, 0), (2, 0, 1)]
        for pi in (pi2, pi_varying):
            for qa, qb, qc in triples:
                a = random_form(chart, qa, rng)
                b = random_form(chart, qb, rng)
                c = random_form(chart, qc, rng)
                lhs = koszul_bracket(pi, a, wedge(b, c))
                sign = -1 if ((qa - 1) * qb) % 2 else 1
                rhs = wedge(koszul_bracket(pi, a, b), c) + sign * wedge(b, koszul_bracket(pi, a, c))
                assert (lhs - rhs).is_zero

    def test_graded_jacobi(self, pi2):
        chart = pi2.chart
        rng = seeded(45)
        for degrees in [(1, 1, 1), (1, 1, 2), (1, 2, 2)]:
            for _ in range(7):
                e1 = random_form(chart, degrees[0], rng, max_terms=2)
                e2 = random_form(chart, degrees[1], rng, max_terms=2)
                e3 = random_form(chart, degrees[2], rng, max_terms=2)
                q1, q2, q3 = degrees
                s1 = -1 if ((q1 - 1) * (q3 - 1)) % 2 else 1
                s2 = -1 if ((q2 - 1) * (q1 - 1)) % 2 else 1
                s3 = -1 if ((q3 - 1) * (q2 - 1)) % 2 else 1
                total = (
                    s1 * koszul_bracket(pi2, e1, koszul_bracket(pi2, e2, e3))
                    + s2 * koszul_bracket(pi2, e2, koszul_bracket(pi2, e3, e1))
                    + s3 * koszul_bracket(pi2, e3, koszul_bracket(pi2, e1, e2))
                )
                assert total.is_zero

    def test_result_independent_of_monomial_decomposition(self, pi2):
        # bilinearity: bracketing a sum equals the sum of brackets
        chart = pi2.chart
        rng = seeded(46)
        a1 = random_form(chart, 2, rng)
        a2 = random_form(chart, 2, rng)
        b = random_form(chart, 1, rng)
        lhs = koszul_bracket(pi2, a1 + a2, b)
        rhs = koszul_bracket(pi2, a1, b) + koszul_bracket(pi2, a2, b)
        assert (lhs - rhs).is_zero

    def test_cartan_d_is_a_derivation_of_the_bracket(self, pi2):
        chart = pi2.chart
        rng = seeded(47)
        for qa, qb in [(1, 1), (1, 2), (2, 1), (0, 1), (2, 2)]:
            a = random_form(chart, qa, rng)
            b = random_form(chart, qb, rng)
            lhs = cartan_d(koszul_bracket(pi2, a, b))
            sign = -1 if (qa - 1) % 2 else 1
            rhs = koszul_bracket(pi2, cartan_d(a), b) + sign * koszul_bracket(pi2, a, cartan_d(b))
            assert (lhs - rhs).is_zero


class TestClosedFormOracle:
    def test_bracket_with_closed_two_form_is_induced_differential(self):
        # For closed 2-forms the bracket agrees with the differential of the
        # induced (1,1) tensor: an oracle for the derived-bracket formula that
        # does not go through d_pi.
        chart3 = Chart(3)
        pi = canonical_poisson(chart3)
        rng = seeded(48)
        omegas = [
            canonical_symplectic(chart3),
            canonical_deformation_form(chart3),
            closed_toda(3).omega,
        ]
        for omega in omegas:
            assert cartan_d(omega).is_zero
            induced = pi_sharp_omega_flat(pi, omega)
            for degree in (0, 1, 2):
                a = random_form(chart3, degree, rng)
                lhs = koszul_bracket(pi, omega, a)
                rhs = nijenhuis_d(induced, a)
                assert (lhs - rhs).is_zero
