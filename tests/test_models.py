from __future__ import annotations

from fractions import Fraction

import pytest

from pqncheck.calculus import cartan_d
from pqncheck.errors import UnsupportedExpressionError
from pqncheck.exterior import Form, Tensor11
from pqncheck.models import (
    CALOGERO_ZERO_TEST,
    ExpectedOutcome,
    calogero,
    canonical_nijenhuis,
    canonical_pn,
    canonical_poisson,
    closed_toda,
    open_toda,
    pair_potential_model,
    potential,
    two_particle_fixture,
    two_particle_model,
)
from pqncheck.scalar import Coord, Power, exp
from pqncheck.structures import (
    check_pn,
    check_pqn,
    deform,
    involutivity_matrix,
    trace_invariants,
)


def test_structure_class_follows_the_three_form():
    chart = canonical_pn(2).chart
    assert ExpectedOutcome().structure_class == "PN"
    assert ExpectedOutcome(phi_closed_form=Form.zero(chart, 3)).structure_class == "PN"
    phi = Form(chart, 3, {(0, 1, 2): chart.q(1)})
    assert ExpectedOutcome(phi_closed_form=phi).structure_class == "PqN"
    with pytest.raises(TypeError):
        ExpectedOutcome(structure_class="PqN")


class TestCanonical:
    def test_single_particle_is_momentum_times_identity(self):
        bundle = canonical_pn(1)
        chart = bundle.chart
        assert bundle.tensor == Tensor11.identity(chart) * chart.p(1)

    def test_two_particle_matrix_matches_display(self):
        fixture = two_particle_fixture()
        assert canonical_pn(2).tensor.entries == fixture.n_matrix

    def test_deforming_identity_reproduces_the_tensor(self):
        bundle = canonical_pn(2)
        result = deform(bundle.poisson, Tensor11.identity(bundle.chart), bundle.omega)
        assert result.tensor == bundle.tensor


class TestPairPotential:
    def test_exponential_pair_matches_two_particle_display(self):
        bundle = pair_potential_model(2, {(1, 2): "(exp x)"})
        chart = bundle.chart
        v = exp(chart.q(1) - chart.q(2))
        expected = two_particle_model("(exp (+ q1 (* -1 q2)))")
        assert bundle.tensor == expected.tensor
        assert bundle.omega == expected.omega
        assert bundle.expected.phi_closed_form == expected.expected.phi_closed_form
        assert bundle.tensor.entry(3, 0) == v

    def test_all_zero_potentials(self):
        bundle = pair_potential_model(3, {})
        chart = bundle.chart
        expected = canonical_nijenhuis(chart)
        extra = [[chart.zero() for _ in range(chart.dim)] for _ in range(chart.dim)]
        for i in range(1, 4):
            for j in range(i + 1, 4):
                extra[chart.q_index(i)][chart.p_index(j)] = chart.one()
                extra[chart.q_index(j)][chart.p_index(i)] = -chart.one()
        assert bundle.tensor == expected + Tensor11(chart, extra)
        # the momentum-only 2-form induces a vanishing 3-form: this deformation
        # stays torsionless
        assert bundle.expected.phi_closed_form.is_zero
        assert bundle.expected.structure_class == "PN"
        result = deform(bundle.poisson, expected, bundle.omega)
        assert result.phi.is_zero and result.tensor == bundle.tensor

    def test_inverse_square_block(self):
        bundle = pair_potential_model(2, {(1, 2): Power(Coord(0), -2)})
        chart = bundle.chart
        assert bundle.tensor.entry(3, 0) == (chart.q(1) - chart.q(2)) ** -2

    def test_closed_form_phi_matches_deformation(self):
        # mixed potentials: exponential, inverse square, and polynomial
        pots = {(1, 2): "(exp x)", (1, 3): "(^ x -2)", (2, 3): "(* 2 x)"}
        bundle = pair_potential_model(3, pots)
        result = deform(
            bundle.poisson, canonical_nijenhuis(bundle.chart), bundle.omega, CALOGERO_ZERO_TEST
        )
        assert result.phi == bundle.expected.phi_closed_form
        assert result.tensor == bundle.tensor

    def test_both_displayed_phi_pieces_separately(self):
        # The two closed-form pieces of the induced 3-form each match what the
        # operators compute: the tensor differential of the 2-form, and its
        # Koszul self-bracket.
        from pqncheck.calculus import koszul_bracket, nijenhuis_d
        from pqncheck.models import pair_differential_display, pair_self_bracket_display
        from pqncheck.scalar import exp

        pots = {(1, 2): "(exp x)", (1, 3): "(^ x -2)", (2, 3): "(* 2 x)"}
        bundle = pair_potential_model(3, pots)
        chart = bundle.chart
        q1, q2, q3 = chart.q(1), chart.q(2), chart.q(3)
        fields = {
            (1, 2): exp(q1 - q2),
            (1, 3): (q1 - q3) ** -2,
            (2, 3): 2 * (q2 - q3),
        }
        nc = canonical_nijenhuis(chart)
        assert nijenhuis_d(nc, bundle.omega) == pair_differential_display(chart, fields)
        assert koszul_bracket(bundle.poisson, bundle.omega, bundle.omega) == pair_self_bracket_display(
            chart, fields
        )

    @pytest.mark.parametrize(
        "pots, has_primitive",
        [
            ({(1, 2): "(exp x)", (1, 3): "(^ x -2)", (2, 3): "(+ x (^ x 3))"}, True),
            ({(1, 2): "(^ (+ x 1) -3)", (1, 3): "(* 3 (exp (* -2 x)))", (2, 3): "(+ 5 x)"}, True),
            # 1/x, x exp(x) and 1/(x^2 + 1) have no primitive in the ring
            ({(1, 2): "(^ x -1)"}, False),
            ({(1, 2): "(* x (exp x))"}, False),
            ({(1, 2): "(^ (+ (* x x) 1) -1)"}, False),
        ],
    )
    def test_primitive_one_form(self, pots, has_primitive):
        bundle = pair_potential_model(3, pots)
        if has_primitive:
            assert cartan_d(bundle.theta) == bundle.omega
        else:
            assert bundle.theta is None

    def test_unsupported_potential_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            pair_potential_model(2, {(1, 2): "(exp q1)"})
        with pytest.raises(UnsupportedExpressionError):
            pair_potential_model(2, {(1, 2): object()})

    @pytest.mark.parametrize("foreign", [Coord(1), Coord(7)])
    def test_potential_with_a_foreign_coordinate_rejected(self, foreign):
        # Coord(7) lies beyond the one-particle chart of the symbol x
        with pytest.raises(UnsupportedExpressionError, match="univariate"):
            pair_potential_model(2, {(1, 2): foreign})

    def test_foreign_coordinate_that_cancels_is_accepted(self):
        from pqncheck.scalar import Const, Product, Sum

        cancelled = Sum((Coord(0), Coord(1), Product((Const(Fraction(-1)), Coord(1)))))
        assert pair_potential_model(2, {(1, 2): cancelled}).omega == pair_potential_model(2, {(1, 2): "x"}).omega

    def test_bad_pair_keys_rejected(self):
        with pytest.raises(ValueError):
            pair_potential_model(2, {(2, 1): "(exp x)"})
        with pytest.raises(ValueError):
            pair_potential_model(2, {(1, 3): "(exp x)"})

    def test_potential_coercion(self):
        from pqncheck.scalar import Const

        assert potential(5) == Const(Fraction(5))
        assert potential("(^ x -2)") == Power(Coord(0), -2)
        assert potential(Power(Coord(0), -2)) == Power(Coord(0), -2)


class TestToda:
    def test_closed_with_zero_wrap_equals_open(self):
        for n in (2, 3, 4):
            couplings = [Fraction(k + 1) for k in range(n - 1)]
            closed = closed_toda(n, couplings + [0])
            open_ = open_toda(n, couplings)
            assert closed.tensor == open_.tensor
            assert closed.omega == open_.omega
            assert closed.phi() == open_.phi()
            assert closed.expected.structure_class == "PN"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["unit", "mixed", "zero-wrap"])
    def test_closed_chain_phi_display(self, n, kind):
        # The paper's closed-chain 3-form: 2 f_n exp(q_n - q_1) dq_1 ^ dq_n ^ sum_i dp_i.
        couplings = {
            "unit": [1] * n,
            "mixed": [Fraction(k + 2, 3) for k in range(n)],
            "zero-wrap": [Fraction(k + 1) for k in range(n - 1)] + [0],
        }[kind]
        bundle = closed_toda(n, couplings)
        chart = bundle.chart
        coeff = 2 * Fraction(couplings[-1]) * exp(chart.q(n) - chart.q(1))
        display = Form(chart, 3, {(chart.q_index(1), chart.q_index(n), chart.p_index(i)): coeff for i in range(1, n + 1)})
        assert bundle.expected.phi_closed_form == display
        assert bundle.expected.phi_closed_form.is_zero == (kind == "zero-wrap")
        assert bundle.expected.structure_class == ("PN" if kind == "zero-wrap" else "PqN")

    def test_two_particle_closed_chain_couples_both_ways(self):
        bundle = closed_toda(2, [1, 1])
        chart = bundle.chart
        v = exp(chart.q(1) - chart.q(2)) + exp(chart.q(2) - chart.q(1))
        assert bundle.tensor.entry(3, 0) == v

    def test_involutivity_claim_only_for_unit_couplings(self):
        assert closed_toda(3).expected.involutive_up_to == 3
        assert closed_toda(3, [1, 2, 1]).expected.involutive_up_to is None
        assert open_toda(3, [5, 7]).expected.involutive_up_to == 3

    def test_coupling_count_validated(self):
        with pytest.raises(ValueError):
            closed_toda(3, [1, 1])
        with pytest.raises(ValueError):
            open_toda(3, [1, 1, 1])
        with pytest.raises(ValueError):
            closed_toda(1)


class TestCalogero:
    def test_metadata(self):
        assert calogero(3).expected.involutive_up_to == 3
        assert not calogero(3).expected.non_involutive
        assert calogero(4).expected.involutive_up_to is None
        assert calogero(4).expected.non_involutive
        assert calogero(5).expected.involutive_up_to is None
        assert not calogero(5).expected.non_involutive

    def test_energy_display(self):
        bundle = calogero(4)
        chart = bundle.chart
        h2 = trace_invariants(bundle.tensor, 2)[1]
        expected = sum((chart.p(i) ** 2 for i in range(1, 5)), chart.zero()) / 2
        for i in range(1, 5):
            for j in range(i + 1, 5):
                expected = expected + (chart.q(i) - chart.q(j)) ** -2
        assert h2 == expected


class TestTwoParticle:
    def test_fixture_matrices_match_model(self):
        fixture = two_particle_fixture()
        bundle = two_particle_model(fixture.v.root)
        assert Tensor11(fixture.chart, fixture.n_hat_matrix) == bundle.tensor

    def test_difference_potential_marked_involutive(self):
        bundle = two_particle_model("(exp (+ q1 (* -1 q2)))")
        assert bundle.expected.involutive_up_to == 2
        assert not bundle.expected.non_involutive

    def test_generic_potential_marked_non_involutive(self):
        bundle = two_particle_model("(* q1 q2)")
        assert bundle.expected.involutive_up_to is None
        assert bundle.expected.non_involutive

    def test_constant_potential_is_translation_invariant(self):
        bundle = two_particle_model(3)
        assert bundle.expected.involutive_up_to == 2


def _verify_bundle(bundle, cfg=None):
    """The integration contract: expected metadata agrees with the verdicts."""
    if bundle.omega is not None:
        assert cartan_d(bundle.omega).is_zero
    if bundle.theta is not None:
        assert cartan_d(bundle.theta) == bundle.omega
    phi = bundle.phi()
    if bundle.expected.structure_class == "PN":
        assert phi.is_zero
        assert check_pn(bundle.poisson, bundle.tensor, cfg).overall
    else:
        assert not phi.is_zero
        assert check_pqn(bundle.structure(), cfg).overall
    claim = bundle.expected.involutive_up_to
    scan = max(claim or 0, bundle.chart.n if bundle.expected.non_involutive else 0)
    if scan:
        invariants = trace_invariants(bundle.tensor, scan)
        matrix = involutivity_matrix(bundle.poisson, invariants, cfg)
        if claim is not None:
            for j in range(1, claim + 1):
                for k in range(1, claim + 1):
                    assert matrix.cell(j, k).passed, (bundle.name, j, k)
        if bundle.expected.non_involutive:
            assert not matrix.all_zero, bundle.name


class TestExpectedMetadataIntegration:
    @pytest.mark.parametrize("n", [1, 2])
    def test_canonical(self, n):
        _verify_bundle(canonical_pn(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_open_toda(self, n):
        _verify_bundle(open_toda(n, [Fraction(k + 1) for k in range(n - 1)]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_toda(self, n):
        _verify_bundle(closed_toda(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_calogero(self, n):
        _verify_bundle(calogero(n), CALOGERO_ZERO_TEST)

    def test_two_particle_generic(self):
        _verify_bundle(two_particle_model("(* q1 q2)"))

    def test_two_particle_difference(self):
        _verify_bundle(two_particle_model("(exp (+ q1 (* -1 q2)))"))
